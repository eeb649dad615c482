"""Seeded inputs for the phk benchmark.

Everything here is plain Python over ``Fraction``: rows, pairs and points are
generated from the seed alone, without calling phk, so that turning them into
phk values (``make_set``, ``graph``) can be timed as set-up and so that the
expected answers come from the construction, not from phk.

A row is ``(normal, offset, strict)`` meaning ``normal . x <= offset`` (``<``
when strict).  Normals are primitive integer tuples, which is also the form
phk's canonicalization keeps, so rows can be compared with phk's output.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# One report round: (dimension, corner cuts, strict rows).  Closed sets are
# portable, sets with a strict row are not.  Half of each round is closed.
# The two closed 3-D boxes, the dearest reports, are a fifth of the round,
# so the 90th latency percentile falls inside their group.
REPORT_ROUND = (
    (1, 0, 0),
    (1, 0, 1),
    (2, 1, 0),
    (2, 1, 1),
    (2, 2, 0),
    (2, 2, 2),
    (3, 0, 0),
    (3, 0, 0),
    (3, 0, 1),
    (3, 0, 2),
)

# One sum round: (dimension, pair in the sum's graph by construction).
SUM_ROUND = ((1, True), (1, False), (2, True), (2, False))
GRAPH_PAIRS = 3


def rng_for(seed: int, workload: str) -> random.Random:
    return random.Random(f"phk-bench:{seed}:{workload}")


def rat_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def dot(a, b) -> Fraction:
    return sum((Fraction(p) * q for p, q in zip(a, b)), Fraction(0))


def satisfies(rows, x) -> bool:
    """Membership of a point in a row system, strict rows strictly."""
    for normal, offset, strict in rows:
        v = dot(normal, x)
        if v > offset or (strict and v == offset):
            return False
    return True


def _unit(dim: int, j: int, sign: int) -> tuple[int, ...]:
    return tuple(sign if k == j else 0 for k in range(dim))


def box_rows(lo, hi) -> list[tuple]:
    """Closed rows of the box ``-lo <= x <= hi`` (lo, hi > 0 per coordinate)."""
    dim = len(lo)
    rows = []
    for j in range(dim):
        rows.append((_unit(dim, j, 1), Fraction(hi[j]), False))
        rows.append((_unit(dim, j, -1), Fraction(lo[j]), False))
    return rows


def _corner_cuts(rng: random.Random, lo, hi, count: int) -> list[tuple]:
    """Rows ``s . x <= s . v - 1/2``, each cutting the box corner ``v`` in
    the sign direction ``s``.

    The box edges are at least 2 long, so the cuts stay disjoint and every
    row of the result, box rows included, is irredundant.  Unit-sign normals
    and one depth keep the cost of an operation steady across seeds.
    """
    dim = len(lo)
    corners: list[tuple[int, ...]] = []
    while len(corners) < count:
        s = tuple(rng.choice((-1, 1)) for _ in range(dim))
        if s not in corners:
            corners.append(s)
    rows = []
    for s in corners:
        vertex = [hi[j] if s[j] > 0 else -lo[j] for j in range(dim)]
        rows.append((s, dot(s, vertex) - Fraction(1, 2), False))
    return rows


def _report_set(rng: random.Random, dim: int, cuts: int, strict: int) -> tuple:
    if dim == 1:
        lo = [Fraction(rng.randint(4, 24), 4)]
        hi = [Fraction(rng.randint(4, 24), 4)]
    else:
        lo = [rng.randint(1, 3) for _ in range(dim)]
        hi = [rng.randint(1, 3) for _ in range(dim)]
    rows = box_rows(lo, hi) + _corner_cuts(rng, lo, hi, cuts)
    marked = set(rng.sample(range(len(rows)), strict))
    return tuple(sorted((n, o, i in marked) for i, (n, o, _) in enumerate(rows)))


def report_plan(seed: int, rounds: int) -> list[tuple[int, tuple]]:
    """``rounds`` x ``REPORT_ROUND`` distinct sets as ``(dim, rows)``.

    Every set is a polytope with the origin strictly inside, built from an
    irredundant row list, so phk's canonical carrier has exactly these rows.
    """
    rng = rng_for(seed, "report")
    seen: set = set()
    plan = []
    for _ in range(rounds):
        for dim, cuts, strict in REPORT_ROUND:
            while True:
                rows = _report_set(rng, dim, cuts, strict)
                if (dim, rows) not in seen:
                    break
            seen.add((dim, rows))
            plan.append((dim, rows))
    return plan


def _box_point(rng: random.Random, lo, hi) -> tuple[Fraction, ...]:
    """A point of the box on the quarter grid."""
    return tuple(
        Fraction(rng.randint(-int(4 * l), int(4 * h)), 4) for l, h in zip(lo, hi)
    )


def _boundary_point(rng: random.Random, lo, hi) -> tuple[Fraction, ...]:
    p = list(_box_point(rng, lo, hi))
    j = rng.randrange(len(p))
    p[j] = Fraction(hi[j]) if rng.random() < 0.5 else -Fraction(lo[j])
    return tuple(p)


def _monotone_duals(rng: random.Random, dim: int, points) -> list[tuple]:
    """Duals ``M a + s`` with ``M`` positive semidefinite: a monotone graph.

    In 1-D the duals are sorted along the sorted points instead.
    """
    if dim == 1:
        ys = sorted(Fraction(rng.randint(-12, 12), 2) for _ in points)
        order = sorted(range(len(points)), key=lambda i: points[i])
        out = [None] * len(points)
        for i, y in zip(order, ys):
            out[i] = (y,)
        return out
    g = [rng.randint(-2, 2) for _ in range(4)]
    m11 = g[0] * g[0] + g[2] * g[2] + rng.randint(0, 1)
    m12 = g[0] * g[1] + g[2] * g[3]
    m22 = g[1] * g[1] + g[3] * g[3] + rng.randint(0, 1)
    s = (rng.randint(-2, 2), rng.randint(-2, 2))
    return [
        (m11 * a + m12 * b + s[0], m12 * a + m22 * b + s[1]) for a, b in points
    ]


def _sum_query(rng: random.Random, dim: int, in_graph: bool) -> dict:
    top = 40 if dim == 1 else 12  # enough distinct boxes for a long run
    lo = [Fraction(rng.randint(4, top), 4) for _ in range(dim)]
    hi = [Fraction(rng.randint(4, top), 4) for _ in range(dim)]
    rows = box_rows(lo, hi)
    # Domain: the origin (strictly inside, as rep_sum_value requires), one
    # boundary point, and further distinct points of the box.
    points = [tuple(Fraction(0) for _ in range(dim)), _boundary_point(rng, lo, hi)]
    while len(points) < GRAPH_PAIRS:
        p = _box_point(rng, lo, hi)
        if p not in points:
            points.append(p)
    duals = _monotone_duals(rng, dim, points)
    pairs = tuple(zip(points, duals))
    if in_graph:
        # x = a_j on the boundary, x* = a_j* + n with n in the normal cone.
        a, astar = pairs[1]
        active = [n for n, o, _ in rows if dot(n, a) == o]
        n = [Fraction(0)] * dim
        for normal in active:
            w = rng.randint(0, 2)
            n = [q + w * c for q, c in zip(n, normal)]
        x, xstar = a, tuple(p + q for p, q in zip(astar, n))
    else:
        # x in the hull of the domain, x* anywhere.
        weights = [rng.randint(0, 3) for _ in points]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        x = tuple(
            sum(Fraction(w, total) * p[j] for w, p in zip(weights, points))
            for j in range(dim)
        )
        xstar = tuple(Fraction(rng.randint(-8, 8), 2) for _ in range(dim))
    return {
        "dim": dim,
        "rows": tuple(rows),
        "pairs": pairs,
        "x": x,
        "xstar": xstar,
        "in_graph": in_graph,
    }


def sum_plan(seed: int, rounds: int) -> list[dict]:
    """``rounds`` x ``SUM_ROUND`` queries, no box repeated within the run."""
    rng = rng_for(seed, "sum")
    seen: set = set()
    plan = []
    for _ in range(rounds):
        for dim, in_graph in SUM_ROUND:
            while True:
                q = _sum_query(rng, dim, in_graph)
                if q["rows"] not in seen:
                    break
            seen.add(q["rows"])
            plan.append(q)
    return plan


# -- cli ---------------------------------------------------------------------

SET_FIXTURES = (
    "closed_interval",
    "empty",
    "half_open_interval",
    "left_half_plane",
    "open_square",
    "plane",
    "quadrant",
    "slab_with_line",
    "unit_square",
)
GENERATED_SET = "generated_set"


def read_fixture_set(path: Path) -> tuple[int, list | None]:
    """(dim, rows) of a set file; rows is None for the empty set."""
    obj = json.loads(path.read_text())
    if obj.get("empty"):
        return obj.get("dim", 1), None
    if "space" in obj:
        return obj["space"], []
    rows = [
        (
            tuple(Fraction(q) for q in r["normal"]),
            Fraction(r["offset"]),
            bool(r.get("strict", False)),
        )
        for r in obj["rows"]
    ]
    return obj["dim"], rows


def set_json(dim: int, rows) -> dict:
    out = []
    for normal, offset, strict in rows:
        row = {"normal": [rat_str(Fraction(q)) for q in normal], "offset": rat_str(offset)}
        if strict:
            row["strict"] = True
        out.append(row)
    return {"dim": dim, "rows": out}


def _vec_arg(v) -> str:
    return json.dumps([rat_str(q) for q in v])


def _point(rng: random.Random, dim: int, rows, inside: bool):
    """A quarter-grid point of [-4, 4]^dim inside (or outside) a nonempty set.

    None for a point outside the whole space.  Every other set used here
    meets the box and leaves part of it.
    """
    if not rows and not inside:
        return None
    for _ in range(10000):
        p = tuple(Fraction(rng.randint(-16, 16), 4) for _ in range(dim))
        if satisfies(rows, p) == inside:
            return p
    raise ValueError(f"no {'inside' if inside else 'outside'} point found for {rows}")


def _vector(rng: random.Random, dim: int):
    """A half-grid vector of [-3, 3]^dim, for points and duals alike."""
    return tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(dim))


def hull_rows_json(rows) -> list[dict]:
    """Expected portable hull of a polytope: its closed rows, as phk prints them."""
    return set_json(0, [(n, o, False) for n, o, s in sorted(rows) if not s])["rows"]


def cli_plan(seed: int, rounds: int, root: Path, outdir: Path) -> list[tuple[list[str], list]]:
    """CLI calls as ``(argv, expectations)``; writes the generated inputs.

    Each expectation is ``(path, value)``: the document's entry at ``path``
    must equal ``value``.  The first round's generated files are written to
    ``outdir``, which must lie under ``root``; argv paths are relative to
    ``root``.
    """
    rng = rng_for(seed, "cli")
    outdir.mkdir(parents=True, exist_ok=True)
    rel = outdir.relative_to(root).as_posix()

    lo = [rng.randint(1, 3) for _ in range(2)]
    hi = [rng.randint(1, 3) for _ in range(2)]
    gen_rows = box_rows(lo, hi) + _corner_cuts(rng, lo, hi, 1)
    strict = rng.randrange(len(gen_rows))
    gen_rows = sorted((n, o, i == strict) for i, (n, o, _) in enumerate(gen_rows))
    (outdir / f"{GENERATED_SET}.json").write_text(json.dumps(set_json(2, gen_rows)))
    points_1d = sorted({Fraction(rng.randint(-4, 8), 4) for _ in range(3)})
    (outdir / "points_1d.json").write_text(
        json.dumps({"dim": 1, "points": [[rat_str(p)] for p in points_1d]})
    )

    sets = {}
    for name in SET_FIXTURES:
        sets[name] = (f"fixtures/{name}.json",) + read_fixture_set(root / "fixtures" / f"{name}.json")
    sets[GENERATED_SET] = (f"{rel}/{GENERATED_SET}.json", 2, gen_rows)
    nonempty = [k for k, v in sets.items() if v[2] is not None]
    probes = {1: f"{rel}/points_1d.json", 2: "fixtures/lower_left_points.json"}
    graphs = {"staircase_graph": 1, "gradient_graph_2d": 2}
    sum_pairs = (
        ("staircase_graph", "closed_interval"),
        ("staircase_graph", "half_open_interval"),
        ("gradient_graph_2d", "plane"),
        ("gradient_graph_2d", "slab_with_line"),
    )
    expect = {
        ("portable", "unit_square"): [(("result",), True)],
        ("portable", "open_square"): [(("result",), False)],
        ("hull", "half_open_interval"): [
            (("result",), {"dim": 1, "rows": [{"normal": ["1"], "offset": "1"}]})
        ],
        ("portable", GENERATED_SET): [(("result",), False)],
        ("hull", GENERATED_SET): [(("result", "rows"), hull_rows_json(gen_rows))],
        ("report", GENERATED_SET): [
            (("result", "hullAddsNothing"), False),
            (("result", "hullEqualsCarrier"), False),
        ],
    }

    calls: list[tuple[list[str], list]] = []
    for _ in range(rounds):
        run_seed = str(rng.randint(0, 999))

        def add(verb, *args, key=None):
            argv = [verb, *args, "--seed", run_seed]
            calls.append((argv, expect.get((verb, key), [])))

        for verb in ("hull", "portable", "sigma"):
            for name, (path, dim, rows) in sets.items():
                if verb == "sigma":
                    add(verb, path, "--dual", _vec_arg(_vector(rng, dim)), key=name)
                else:
                    add(verb, path, key=name)
        for verb in ("report", "probe-bp", "check-enc"):
            for name in nonempty:
                add(verb, sets[name][0], key=name)
        for name in nonempty:
            path, dim, rows = sets[name]
            point, dual = _vector(rng, dim), _vector(rng, dim)
            add("phi", path, "--point", _vec_arg(point), "--dual", _vec_arg(dual), key=name)
            add("normal-cone", path, "--point", _vec_arg(_point(rng, dim, rows, True)), key=name)
            outside = _point(rng, dim, rows, False)
            if outside is not None:
                add("separate", path, "--point", _vec_arg(outside), key=name)
            if not any(s for _, _, s in rows):
                add("check-thm7", path, key=name)
            add("partial-hull", path, probes[dim], key=name)
            add("check-ncs", path, probes[dim], key=name)
        for name, dim in graphs.items():
            point, dual = _vector(rng, dim), _vector(rng, dim)
            add("psi", f"fixtures/{name}.json", "--point", _vec_arg(point), "--dual", _vec_arg(dual))
        for gname, sname in sum_pairs:
            point, dual = _vector(rng, graphs[gname]), _vector(rng, graphs[gname])
            add(
                "sum-check", f"fixtures/{gname}.json", sets[sname][0],
                "--point", _vec_arg(point), "--dual", _vec_arg(dual),
            )
        calls.extend(HAND_WORKED)
    return calls


# Calls whose answers are worked out by hand, with those answers.
_HALF = "fixtures/half_open_interval.json"
HAND_WORKED = (
    (["separate", _HALF, "--point", '["2"]'], [(("result", "separating"), True), (("result", "margin"), "1")]),
    (["separate", _HALF, "--point", '["-1"]'], [(("result", "separating"), False)]),
    (["phi", _HALF, "--point", '["1/2"]', "--dual", '["1"]'], [(("result", "value"), "1")]),
    (
        ["sum-check", "fixtures/staircase_graph.json", "fixtures/closed_interval.json",
         "--point", '["1"]', "--dual", '["3"]'],
        [(("result", "value"), "3")],
    ),
)
