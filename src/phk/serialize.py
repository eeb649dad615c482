"""JSON input parsing and deterministic JSON output.

Rationals travel as strings ("3/4", "-2").  On input a JSON number is
accepted too: the CLI reads each one through ``rat`` (``parse_int`` and
``parse_float``), exactly as the same literal in quotes, and an integer
stays an ``int``; a Python ``float`` is refused.  Output is canonical:
sorted keys, two-space indent, and a trailing newline, so identical inputs
produce byte-identical documents.
"""
from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .errors import InputError
from .fitzpatrick import MonotoneGraph, graph
from .linalg import Vec, vec
from .polyhedra import (
    ClosedPolyhedron,
    EmptySet,
    PartiallyOpenPolyhedron,
    make_set,
    whole_set,
)
from .portability import FinitePointSet, point_set
from .scalars import ExtValue, rat, rat_str


def parse_rational(value) -> Fraction:
    if isinstance(value, (int, str, Fraction)) and not isinstance(value, bool):
        return rat(value)
    raise InputError(f"expected a rational, got {value!r}")


def parse_vector(value, dim: int | None = None) -> Vec:
    if not isinstance(value, (list, tuple)):
        raise InputError(f"expected a vector, got {value!r}")
    out = vec([parse_rational(q) for q in value], dim)
    if not out:
        raise InputError("vectors must have at least one coordinate")
    return out


def _parse_dim(value, what: str) -> int:
    """A dimension read from JSON: an ``int`` of at least 1, never a ``bool``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InputError(f"{what} must be a positive integer")
    return value


def _only_keys(obj: dict, allowed: set[str], what: str) -> None:
    extra = sorted(set(obj) - allowed)
    if extra:
        raise InputError(f"{what} has unknown keys: {', '.join(map(repr, extra))}")


def parse_set(obj) -> PartiallyOpenPolyhedron | EmptySet:
    """Accepts {"empty": true} (with at most "dim"), {"space": n}, or
    {"dim", "rows": [...]} with rows of "normal", "offset" and "strict";
    any other key or shape is refused."""
    if not isinstance(obj, dict):
        raise InputError("a set description must be a JSON object")
    if "empty" in obj:
        if obj["empty"] is not True or not obj.keys() <= {"empty", "dim"}:
            raise InputError('an empty set is {"empty": true}, with at most "dim" beside it')
        return EmptySet(_parse_dim(obj.get("dim", 1), "empty-set dimension"))
    if "space" in obj:
        if obj.keys() != {"space"}:
            raise InputError('a whole space is {"space": n}, with no other key')
        return whole_set(_parse_dim(obj["space"], "space dimension"))
    if "dim" not in obj or "rows" not in obj:
        raise InputError('a set description needs "dim" and "rows"')
    _only_keys(obj, {"dim", "rows"}, "a set description")
    dim = _parse_dim(obj["dim"], "dimension")
    rows = []
    if not isinstance(obj["rows"], list):
        raise InputError('"rows" must be a list')
    for row in obj["rows"]:
        if not isinstance(row, dict) or "normal" not in row or "offset" not in row:
            raise InputError('each row needs "normal" and "offset"')
        _only_keys(row, {"normal", "offset", "strict"}, "a row")
        strict = row.get("strict", False)
        if not isinstance(strict, bool):
            raise InputError('"strict" must be a boolean')
        rows.append(
            (parse_vector(row["normal"], dim), parse_rational(row["offset"]), strict)
        )
    return make_set(dim, rows)


def parse_points(obj) -> FinitePointSet:
    if not isinstance(obj, dict) or "points" not in obj:
        raise InputError('a point set needs "points"')
    _only_keys(obj, {"dim", "points"}, "a point set")
    pts = obj["points"]
    if not isinstance(pts, list) or not pts:
        raise InputError('"points" must be a nonempty list')
    dim = obj.get("dim")
    if dim is not None:
        _parse_dim(dim, "point-set dimension")
    first = parse_vector(pts[0], dim)
    return point_set(len(first), [parse_vector(p, len(first)) for p in pts])


def parse_graph(obj) -> MonotoneGraph:
    if not isinstance(obj, dict) or "pairs" not in obj or "dim" not in obj:
        raise InputError('a graph needs "dim" and "pairs"')
    _only_keys(obj, {"dim", "pairs"}, "a graph")
    dim = _parse_dim(obj["dim"], "graph dimension")
    pairs = []
    if not isinstance(obj["pairs"], list):
        raise InputError('"pairs" must be a list')
    for p in obj["pairs"]:
        if not isinstance(p, dict) or "a" not in p or "astar" not in p:
            raise InputError('each pair needs "a" and "astar"')
        _only_keys(p, {"a", "astar"}, "a pair")
        pairs.append((parse_vector(p["a"], dim), parse_vector(p["astar"], dim)))
    return graph(dim, pairs)


def fmt_vector(v: Vec) -> list[str]:
    return [rat_str(q) for q in v]


def fmt_closed(p: ClosedPolyhedron | EmptySet) -> dict:
    if isinstance(p, EmptySet):
        return {"dim": p.dim, "empty": True}
    if not p.rows:
        return {"space": p.dim}
    return {
        "dim": p.dim,
        "rows": [
            {"normal": fmt_vector(n), "offset": rat_str(o)} for n, o in p.rows
        ],
    }


def fmt_set(c: PartiallyOpenPolyhedron | EmptySet) -> dict:
    if isinstance(c, EmptySet):
        return fmt_closed(c)
    doc = fmt_closed(c.carrier)
    for i in c.strict_rows:
        doc["rows"][i]["strict"] = True
    return doc


def fmt_graph(g: MonotoneGraph) -> dict:
    return {
        "dim": g.dim,
        "pairs": [
            {"a": fmt_vector(a), "astar": fmt_vector(astar)} for a, astar in g.pairs
        ],
    }


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(part.title() for part in rest)


def jsonable(x):
    """Recursive conversion of result objects to plain JSON values."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, (Fraction, ExtValue)):
        return str(x) if isinstance(x, ExtValue) else rat_str(x)
    if isinstance(x, EmptySet) or isinstance(x, ClosedPolyhedron):
        return fmt_closed(x)
    if isinstance(x, PartiallyOpenPolyhedron):
        return fmt_set(x)
    if isinstance(x, MonotoneGraph):
        return fmt_graph(x)
    if isinstance(x, tuple) and hasattr(x, "_fields"):
        return {_camel(name): jsonable(value) for name, value in zip(x._fields, x)}
    if is_dataclass(x) and not isinstance(x, type):
        return {
            _camel(f.name): jsonable(getattr(x, f.name)) for f in fields(x)
        }
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        if x and all(isinstance(q, Fraction) for q in x):
            return fmt_vector(tuple(x))
        return [jsonable(q) for q in x]
    raise InputError(f"cannot serialize {type(x).__name__}")


def dumps(doc) -> str:
    return json.dumps(jsonable(doc), sort_keys=True, indent=2) + "\n"
