"""Per-layer tracing of phk from outside the package.

``Tracer.install`` wraps every public function of the traced ``phk`` modules
and rebinds each name in every ``phk`` module that imported it, so calls
made through ``from .lp import solve_max`` are seen too.  ``linalg`` and
``scalars`` stay unwrapped: their calls are too small to time without
distorting them.  Wrappers are inert until ``active`` is set.

Each call records a span ``[op, name, parent, start, end, child time,
flags, size]`` in memory; ``op`` is the operation index set by the runner
(-1 during set-up), ``parent`` the index of the enclosing span.  Self time
is a span's duration minus its children's.  Spans are written out once the
run ends (``dump``); ``totals`` folds them into additive sums from which
``layer_metrics`` derives the per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from fractions import Fraction
from time import perf_counter

MODULES = (
    "lp",
    "polyhedra",
    "normal_cones",
    "faces",
    "fitzpatrick",
    "portability",
    "representability",
    "sampling",
    "serialize",
    "cli",
)

# The innermost wrapped caller decides what an LP solve is for.  Anything
# not under one of these is a plain feasibility test.
PURPOSE = {
    "polyhedra.canonicalize": "redundancy",
    "polyhedra.make_set": "redundancy",
    "polyhedra.validate": "redundancy",
    "polyhedra.closed_subset_of": "containment",
    "representability.rep_value": "barycentric",
    "representability.rep_sum_value": "barycentric",
    "representability.sum_graph_membership": "barycentric",
    "normal_cones.supporting_rows": "feasibility",
    "normal_cones.supporting_row_witnesses": "feasibility",
    "portability.partial_supporting_rows": "feasibility",
    "faces.enumerate_faces": "feasibility",
    "normal_cones.support_value": "support",
}
PURPOSES = ("support", "attainment", "redundancy", "containment", "feasibility", "barycentric")

PARSERS = ("parse_set", "parse_points", "parse_graph", "parse_vector", "parse_rational")

OUTER = 1  # no enclosing span of the same function
GROUP_OUTER = 2  # no enclosing span of the same group
UNDER_REP = 4  # some enclosing span is a representability function


def _group(qual: str) -> str | None:
    module, name = qual.split(".", 1)
    if module == "sampling":
        return "sampling"
    if module == "serialize" and name in PARSERS:
        return "serialize.parse"
    if module == "cli" and name.startswith("cmd_"):
        return "cli.cmd"
    if module == "representability":
        return "representability"
    return None


def _bits(q: Fraction) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def certificate_bits(outcome) -> int:
    """Largest numerator or denominator bit length in an LP outcome."""
    best = _bits(outcome.value) if outcome.value is not None else 0
    for vec in (outcome.primal, outcome.dual, outcome.ray, outcome.farkas):
        if vec:
            best = max(best, max(_bits(q) for q in vec))
    return best


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.depth: dict[int, int] = {}
        self.group_depth: dict[str, int] = {}
        # (op, purpose, rows, vars, certificate bits) per lp_solve call
        self.lp: list[tuple] = []
        self.support_keys: set = set()
        self.import_s = 0.0  # set by callers that time an import themselves

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for short in MODULES:
            mod = importlib.import_module(f"phk.{short}")
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self._wrap(f"{short}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "phk" or modname.startswith("phk."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, name, wrapped[obj])

    def _purpose(self) -> str:
        names, spans, stack = self.names, self.spans, self.stack
        for k in range(len(stack) - 1, -1, -1):
            purpose = PURPOSE.get(names[spans[stack[k]][1]])
            if purpose == "support":
                entry = names[spans[stack[k + 1]][1]] if k + 1 < len(stack) else ""
                return "attainment" if entry == "lp.strict_system_feasible" else "support"
            if purpose is not None:
                return purpose
        return "feasibility"

    def _wrap(self, qual: str, fn):
        nid = len(self.names)
        self.names.append(qual)
        self.depth[nid] = 0
        group = _group(qual)
        if group is not None:
            self.group_depth.setdefault(group, 0)
        is_lp = qual == "lp.lp_solve"
        is_support = qual == "normal_cones.support_value"
        tracer = self
        spans, stack, depth, gdepth = self.spans, self.stack, self.depth, self.group_depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            flags = OUTER if depth[nid] == 0 else 0
            if group is not None and gdepth[group] == 0:
                flags |= GROUP_OUTER
            if gdepth.get("representability"):
                flags |= UNDER_REP
            purpose = tracer._purpose() if is_lp else None
            if is_support:
                tracer.support_keys.add((args[0], tuple(args[1])))
            parent = stack[-1] if stack else -1
            span = [tracer.op, nid, parent, 0.0, 0.0, 0.0, flags, 0]
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            depth[nid] += 1
            if group is not None:
                gdepth[group] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[nid] -= 1
                if group is not None:
                    gdepth[group] -= 1
                span[3] = t0
                span[4] = t1
                if parent >= 0:
                    spans[parent][5] += t1 - t0
            if isinstance(result, (list, tuple)):
                span[7] = len(result)
            if is_lp:
                p = args[0]
                tracer.lp.append(
                    (tracer.op, purpose, len(p.rows), p.dim, certificate_bits(result))
                )
            return result

        return wrapper

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict:
        """Additive sums over the recorded spans (see ``merge``)."""
        calls: dict[str, int] = {}
        top_s: dict[str, float] = {}
        self_s: dict[str, float] = {}
        top_size: dict[str, int] = {}
        group_s: dict[str, float] = {}
        group_size: dict[str, int] = {}
        partial_under_rep = 0.0
        for op, nid, parent, t0, t1, child, flags, size in self.spans:
            name = self.names[nid]
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child
            if flags & OUTER:
                top_s[name] = top_s.get(name, 0.0) + dur
                top_size[name] = top_size.get(name, 0) + size
            group = _group(name)
            if group is not None and flags & GROUP_OUTER:
                group_s[group] = group_s.get(group, 0.0) + dur
                group_size[group] = group_size.get(group, 0) + size
            if name == "portability.partial_portable_hull" and flags & UNDER_REP and flags & OUTER:
                partial_under_rep += dur
        purposes = {p: 0 for p in PURPOSES}
        for _, purpose, _, _, _ in self.lp:
            purposes[purpose] += 1
        return {
            "calls": calls,
            "top_s": top_s,
            "self_s": self_s,
            "top_size": top_size,
            "group_s": group_s,
            "group_size": group_size,
            "partial_hull_under_rep_s": partial_under_rep,
            "lp_solves": len(self.lp),
            "lp_op_solves": sum(1 for rec in self.lp if rec[0] >= 0),
            "lp_rows": sum(rec[2] for rec in self.lp),
            "lp_vars": sum(rec[3] for rec in self.lp),
            "lp_max_bits": max((rec[4] for rec in self.lp), default=0),
            "lp_purpose": purposes,
            "support_distinct": len(self.support_keys),
            "import_s": self.import_s,
        }

    def dump(self, path, **extra) -> None:
        """Write the spans and their totals as one JSON document."""
        doc = {
            "names": self.names,
            "span_fields": ["op", "name", "parent", "start", "end", "child_s", "flags", "size"],
            "spans": self.spans,
            "totals": self.totals(),
        }
        doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def merge(parts: list[dict]) -> dict:
    """Sum totals of several processes (maxima for the bit length)."""
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, dict):
                into = out.setdefault(key, {})
                for k, v in value.items():
                    into[k] = into.get(k, 0) + v
            elif key == "lp_max_bits":
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


# (metric, unit, better) for every per-layer metric, in report order.
LAYER_METRICS = (
    ("lp.solves", "count", "lower"),
    ("lp.time_s", "s", "lower"),
    ("lp.solves_per_op", "solves/op", "lower"),
    ("lp.max_bits", "bits", "lower"),
    ("lp.solves.support", "count", "lower"),
    ("lp.solves.attainment", "count", "lower"),
    ("lp.solves.containment", "count", "lower"),
    ("lp.solves.feasibility", "count", "lower"),
    ("lp.solves.barycentric", "count", "lower"),
    ("lp.rows_mean", "rows", "lower"),
    ("lp.vars_mean", "vars", "lower"),
    ("lp.solves.redundancy", "count", "lower"),
    ("polyhedra.canonicalize.time_s", "s", "lower"),
    ("polyhedra.make_set.time_s", "s", "lower"),
    ("polyhedra.validate.calls", "count", "lower"),
    ("polyhedra.validate.time_s", "s", "lower"),
    ("polyhedra.closed_subset_of.time_s", "s", "lower"),
    ("portability.hull.time_s", "s", "lower"),
    ("portability.report.self_s", "s", "lower"),
    ("polyhedra.h_to_v.calls", "count", "lower"),
    ("polyhedra.h_to_v.time_s", "s", "lower"),
    ("faces.enumerate.time_s", "s", "lower"),
    ("faces.count", "count", "lower"),
    ("fitzpatrick.by_faces.time_s", "s", "lower"),
    ("normal_cones.support.calls", "count", "lower"),
    ("normal_cones.support.time_s", "s", "lower"),
    ("normal_cones.support.distinct_share", "ratio", "higher"),
    ("normal_cones.supporting_rows.time_s", "s", "lower"),
    ("fitzpatrick.closed_form.time_s", "s", "lower"),
    ("sampling.time_s", "s", "lower"),
    ("sampling.points", "count", "lower"),
    ("representability.membership.time_s", "s", "lower"),
    ("representability.sum_value.time_s", "s", "lower"),
    ("representability.partial_hull.time_s", "s", "lower"),
    ("representability.enumeration.time_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("serialize.parse_s", "s", "lower"),
    ("serialize.dumps_s", "s", "lower"),
    ("cli.compute_s", "s", "lower"),
)


def layer_metrics(t: dict, ops: int) -> dict[str, float]:
    """Per-layer metrics from (merged) totals; times are run totals."""
    calls = t.get("calls", {})
    top = t.get("top_s", {})
    self_s = t.get("self_s", {})
    top_size = t.get("top_size", {})
    group_s = t.get("group_s", {})
    group_size = t.get("group_size", {})
    solves = t.get("lp_solves", 0)
    purpose = t.get("lp_purpose", {})
    support_calls = calls.get("normal_cones.support_value", 0)
    parse = group_s.get("serialize.parse", 0.0)
    dumps = top.get("serialize.dumps", 0.0)
    values = {
        "lp.solves": solves,
        "lp.time_s": top.get("lp.lp_solve", 0.0),
        "lp.solves_per_op": t.get("lp_op_solves", 0) / ops if ops else 0.0,
        "lp.max_bits": t.get("lp_max_bits", 0),
        "lp.rows_mean": t.get("lp_rows", 0) / solves if solves else 0.0,
        "lp.vars_mean": t.get("lp_vars", 0) / solves if solves else 0.0,
        "polyhedra.canonicalize.time_s": top.get("polyhedra.canonicalize", 0.0),
        "polyhedra.make_set.time_s": top.get("polyhedra.make_set", 0.0),
        "polyhedra.validate.calls": calls.get("polyhedra.validate", 0),
        "polyhedra.validate.time_s": top.get("polyhedra.validate", 0.0),
        "polyhedra.closed_subset_of.time_s": top.get("polyhedra.closed_subset_of", 0.0),
        "portability.hull.time_s": top.get("portability.portable_hull", 0.0),
        "portability.report.self_s": self_s.get("portability.portability_report", 0.0),
        "polyhedra.h_to_v.calls": calls.get("polyhedra.h_to_v", 0),
        "polyhedra.h_to_v.time_s": top.get("polyhedra.h_to_v", 0.0),
        "faces.enumerate.time_s": top.get("faces.enumerate_faces", 0.0),
        "faces.count": top_size.get("faces.enumerate_faces", 0),
        "fitzpatrick.by_faces.time_s": top.get("fitzpatrick.normal_cone_fitzpatrick_by_faces", 0.0),
        "normal_cones.support.calls": support_calls,
        "normal_cones.support.time_s": top.get("normal_cones.support_value", 0.0),
        "normal_cones.support.distinct_share": (
            t.get("support_distinct", 0) / support_calls if support_calls else 0.0
        ),
        "normal_cones.supporting_rows.time_s": top.get("normal_cones.supporting_rows", 0.0)
        + top.get("normal_cones.supporting_row_witnesses", 0.0),
        "fitzpatrick.closed_form.time_s": top.get("fitzpatrick.normal_cone_fitzpatrick", 0.0),
        "sampling.time_s": group_s.get("sampling", 0.0),
        "sampling.points": group_size.get("sampling", 0),
        "representability.membership.time_s": top.get("representability.sum_graph_membership", 0.0),
        "representability.sum_value.time_s": top.get("representability.rep_sum_value", 0.0),
        "representability.partial_hull.time_s": t.get("partial_hull_under_rep_s", 0.0),
        "representability.enumeration.time_s": top.get("representability.rep_sum_value_by_enumeration", 0.0),
        "cli.import_s": t.get("import_s", 0.0),
        "serialize.parse_s": parse,
        "serialize.dumps_s": dumps,
        "cli.compute_s": max(0.0, group_s.get("cli.cmd", 0.0) - parse - dumps),
    }
    for p in PURPOSES:
        values[f"lp.solves.{p}"] = purpose.get(p, 0)
    return {name: values[name] for name, _, _ in LAYER_METRICS}
