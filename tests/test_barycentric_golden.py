"""Barycentric golden: what the three barycentric LPs answered on a seeded corpus.

``golden_barycentric.json`` holds two kinds of instances, each with its
inputs written out, so the file does not depend on the generators below:

* ``rep``: a graph and four pairs (x, x*), with ``rep_value``'s value and
  barycentric weights at each;
* ``sum``: a graph, a set and eight pairs (x, x*), with
  ``sum_graph_membership``'s ``lhs``, ``rhs``, value, shift and cone part at
  each.  The value is ``rep_sum_value``'s value, which the test also checks
  directly.

``rep_sum_value``'s coefficients and dual shift are not pinned.  Where the
joint program's optimum is not unique, a change of LP encoding may stop at
another optimal vertex with the same value, and no CLI verb prints them.

Graphs and sets come from ``phk.corpus``; each sum instance gains one graph
pair on the set's boundary, so normal cones and strict rows come into play.
To record the file again after a deliberate change, run from the repository
root:

    PYTHONPATH=src python3 tests/test_barycentric_golden.py
"""
from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from phk.corpus import monotone_graph_corpus, sum_instances
from phk.fitzpatrick import MonotoneGraph, graph
from phk.linalg import dot
from phk.polyhedra import contains, make_set
from phk.representability import rep_sum_value, rep_value, sum_graph_membership

GOLDEN = Path(__file__).resolve().parent / "golden_barycentric.json"


def _strs(xs) -> list[str] | None:
    return None if xs is None else [str(x) for x in xs]


def _vecs(xs) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(q) for q in x) for x in xs)


def _half(rng: random.Random, top: int) -> Fraction:
    return Fraction(rng.randint(-top, top), 2)


def _barycenter(rng: random.Random, pairs) -> tuple[tuple, tuple]:
    weights = [rng.randint(0, 3) for _ in pairs]
    weights[rng.randrange(len(weights))] += 1
    total = sum(weights)
    dim = len(pairs[0][0])
    x = tuple(sum(Fraction(w, total) * a[j] for w, (a, _) in zip(weights, pairs)) for j in range(dim))
    xs = tuple(sum(Fraction(w, total) * s[j] for w, (_, s) in zip(weights, pairs)) for j in range(dim))
    return x, xs


def rep_queries(rng: random.Random, g: MonotoneGraph) -> list[tuple[tuple, tuple]]:
    """A graph pair, a barycenter, a barycenter with another one's dual, and
    a point of the half grid."""
    x, xs = _barycenter(rng, g.pairs)
    _, other = _barycenter(rng, g.pairs)
    grid = tuple(_half(rng, 6) for _ in range(g.dim)), tuple(_half(rng, 12) for _ in range(g.dim))
    return [rng.choice(g.pairs), (x, xs), (x, other), grid]


def _boundary_pair(rng: random.Random, t: MonotoneGraph, rows) -> tuple[tuple, tuple]:
    """A graph point moved onto one face of the box, with its dual."""
    a, astar = rng.choice(t.pairs)
    normal, offset, _ = rows[rng.randrange(len(rows))]
    j = next(k for k, q in enumerate(normal) if q)
    b = list(a)
    b[j] = Fraction(offset) / normal[j]
    return tuple(b), astar


def sum_queries(rng: random.Random, t: MonotoneGraph, c, b, bstar) -> list[tuple[tuple, tuple]]:
    """Graph pairs, the boundary pair pushed out and in along its active
    rows, barycenters and points of the box with free duals, and a point
    outside the box."""
    dim = t.dim
    active = [n for n, o in c.carrier.rows if dot(n, b) == o]
    cone = bstar
    for n in active:
        w = rng.randint(0, 2)
        cone = tuple(s + w * q for s, q in zip(cone, n))
    inward = tuple(s - q for s, q in zip(bstar, active[0])) if active else bstar
    inside = [p for p in t.pairs if contains(c, p[0])]
    x, xs = _barycenter(rng, inside)
    free = tuple(_half(rng, 8) for _ in range(dim))
    box = tuple(Fraction(rng.randint(-12, 12), 4) for _ in range(dim))
    far = tuple(Fraction(9) for _ in range(dim))
    return [
        rng.choice(t.pairs),
        (b, bstar),
        (b, cone),
        (b, inward),
        (x, xs),
        (x, free),
        (box, free),
        (far, free),
    ]


def corpus(seed: int = 2019) -> list[dict]:
    """Instances, each a graph (and for ``sum`` a set) with its queries."""
    rng = random.Random(seed)
    out = []
    for g in monotone_graph_corpus(150, seed):
        out.append({"kind": "rep", "dim": g.dim, "pairs": g.pairs, "queries": rep_queries(rng, g)})
    for k, (t, c) in enumerate(sum_instances(150, seed)):
        rows = [(n, o, False) for n, o in c.carrier.rows]
        b, bstar = _boundary_pair(rng, t, rows)
        if k % 2:  # a strict row away from the graph keeps a domain point inside
            i = rng.randrange(len(rows))
            if not any(dot(rows[i][0], a) == rows[i][1] for a, _ in t.pairs):
                rows[i] = (rows[i][0], rows[i][1], True)
        t2 = graph(t.dim, t.pairs + ((b, bstar),))
        queries = sum_queries(rng, t2, make_set(t.dim, rows), b, bstar)
        out.append({"kind": "sum", "dim": t.dim, "pairs": t2.pairs, "rows": rows, "queries": queries})
    return out


def answers(instance: dict) -> list[dict]:
    """The pinned fields for each query of one instance, as strings."""
    g = graph(instance["dim"], instance["pairs"])
    if instance["kind"] == "rep":
        evs = [rep_value(g, x, xs) for x, xs in instance["queries"]]
        return [{"value": str(ev.value), "weights": _strs(ev.coefficients)} for ev in evs]
    c = make_set(instance["dim"], instance["rows"])
    ms = [sum_graph_membership(g, c, x, xs) for x, xs in instance["queries"]]
    return [
        {
            "lhs": m.lhs,
            "rhs": m.rhs,
            "value": str(m.value),
            "shift": _strs(m.shift),
            "cone_part": _strs(m.cone_part),
        }
        for m in ms
    ]


def encode(instance: dict) -> dict:
    out = {
        "kind": instance["kind"],
        "dim": instance["dim"],
        "pairs": [[_strs(a), _strs(s)] for a, s in instance["pairs"]],
        "queries": [[_strs(x), _strs(xs)] for x, xs in instance["queries"]],
    }
    if "rows" in instance:
        out["rows"] = [[_strs(n), str(o), s] for n, o, s in instance["rows"]]
    return out


def decode(stored: dict) -> dict:
    instance = dict(stored)
    instance["pairs"] = tuple(_vecs(pair) for pair in stored["pairs"])
    instance["queries"] = [_vecs(query) for query in stored["queries"]]
    if "rows" in stored:
        instance["rows"] = [(_vecs([n])[0], Fraction(o), s) for n, o, s in stored["rows"]]
    return instance


@cache
def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _answers(kind: str) -> list[dict]:
    return [a for e in _golden() if e["input"]["kind"] == kind for a in e["answers"]]


def test_barycentric_programs_reproduce_every_pinned_field():
    wrong = []
    for k, stored in enumerate(_golden()):
        for q, (got, want) in enumerate(zip(answers(decode(stored["input"])), stored["answers"])):
            wrong += [(k, q, f) for f in want if got[f] != want[f]]
    assert wrong == []


def test_sum_value_is_the_pinned_membership_value():
    for stored in _golden()[::5]:
        instance = decode(stored["input"])
        if instance["kind"] == "sum":
            g = graph(instance["dim"], instance["pairs"])
            c = make_set(instance["dim"], instance["rows"])
            for (x, xs), want in zip(instance["queries"], stored["answers"]):
                assert str(rep_sum_value(g, c, x, xs).value) == want["value"]


def test_corpus_reaches_every_case():
    reps, sums = _answers("rep"), _answers("sum")
    assert len(reps) >= 500 and len(sums) >= 1000
    assert sum(a["value"] == "+inf" for a in reps) >= 200
    assert sum(a["value"] != "+inf" for a in reps) >= 300
    assert sum(a["lhs"] and a["rhs"] for a in sums) >= 400
    assert sum(not a["lhs"] and not a["rhs"] for a in sums) >= 700
    assert sum(a["value"] == "+inf" for a in sums) >= 600
    assert sum(any(q != "0" for q in a["cone_part"] or ()) for a in sums) >= 80
    assert any(s for e in _golden() for _, _, s in e["input"].get("rows", ()))


if __name__ == "__main__":
    doc = [{"input": encode(i), "answers": answers(i)} for i in corpus()]
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in doc) + "\n]\n", encoding="utf-8"
    )
    print(f"wrote {len(doc)} instances to {GOLDEN}", file=sys.stderr)
