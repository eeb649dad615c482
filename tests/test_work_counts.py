"""The work of fixed input plans, pinned as exact counts.

Wall time on a shared machine drifts too much to show where work went, but
the number of LPs a fixed input plan solves, and of points it places, does
not drift.  ``count_work`` wraps ``lp.SupportLP._warm`` and every module's
``lp_solve`` binding from outside and records each cold solve under the
first function outside ``lp`` that asked for it, and each warm re-solve
apart.  It also wraps every module's ``polyhedra._signs`` binding, the
kernel that places a point against a set's rows, and records each
placement under the first function outside ``polyhedra`` and ``sampling``
that asked for it.  The counts below are the claim: a change that moves
them re-records them and says why.  Canonicalization solves one cold LP
per system, the emptiness test, and each row's redundancy test re-solves
warm from its tableau, a lone row's included.

The third plan is the 192 ``golden_cli.json`` cases, run in process through
the CLI's ``main``; its placements are kept by verb.  Its only polar cone
LP is the ``sum-check`` decomposition's ``cone_contains``, which ``_asker``
books under the generator expression of ``polyhedra._cone_holds``.  The
fourth is one grid probe, whose barycentric values are the maxima of one
``SupportLP``.  The fifth builds one set of the 3-D row ladder and its
portable hull; besides its cold solves it pins the most rows of any program
``lp_solve`` is given, which shows that no m-row primal runs.  The sixth
builds the benchmark's ``sum_plan(1, 12)`` boxes, one emptiness solve and a
warm redundancy test per row each, so a change to how fast canonicalization
runs shows whether it did less LP work.

Run this file directly to print the LP counts and placements of all six
plans:

    PYTHONPATH=src python tests/test_work_counts.py
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path

from phk import lp, polyhedra
from phk.polyhedra import make_set
from phk.portability import portability_report, portable_hull
from phk.representability import GridSpec, representability_probe
from phk.sampling import SampleSpec
from phk.serialize import parse_graph, parse_set

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

# ``bench_style_sets``, built and reported under the count.
BENCH_STYLE = {
    "normal_cones.set_member_witness": 2,
    "normal_cones.support_level": 5,
    "polyhedra._nonempty_support": 5,
    "polyhedra.make_set": 3,
    "portability._hull_verdicts": 3,
    "portability.nonsupporting_witness": 3,
    "warm": 80,
}
# Their ``_signs`` placements: the sampler places each candidate point
# once, the cloud each further point, in the set.
BENCH_STYLE_PLACED = {"portability.portability_report": 329}
# The benchmark's ``report_plan(101, 12)`` sets, built first; their reports
# under the count.  A report reads its supporting rows as the weak rows, so
# neither plan solves a witness LP in ``_hyperplanes_meeting``.
REPORT_PLAN = {
    "normal_cones.set_member_witness": 60,
    "normal_cones.support_level": 120,
    "portability._hull_verdicts": 60,
    "portability.nonsupporting_witness": 60,
    "warm": 1448,
}

# The ``golden_cli.json`` cases, each run once through ``cli.main``.
# ``_hyperplanes_meeting`` solves for the points ``hull`` prints and
# ``probe-bp`` samples, and for a polyhedron probe's kept rows;
# ``separate`` solves one witness LP per certificate.
GOLDEN_PLAN = {
    "faces.enumerate_faces": 99,
    "normal_cones._hyperplanes_meeting": 298,
    "normal_cones.set_member_witness": 67,
    "normal_cones.support_level": 57,
    "normal_cones.support_value": 80,
    "polyhedra.<genexpr>": 1,
    "polyhedra._nonempty_support": 228,
    "polyhedra.make_set": 55,
    "portability._hull_verdicts": 4,
    "portability.nonsupporting_witness": 4,
    "portability.partial_hull_report": 114,
    "portability.separation_certificate": 5,
    "representability._sum_solve": 5,
    "representability.rep_value": 6,
    "representability.sum_graph_membership": 5,
    "representability.touches": 1,
    "warm": 933,
}
# Their ``_signs`` placements, by verb.  A sampled point is placed once
# in each set a report asks about it.
GOLDEN_PLACED = {
    "check-enc": {"portability.hull_extension_report": 248},
    "check-ncs": {
        "normal_cones.normal_cone_at": 543,
        "portability._partial_rows": 36,
        "portability.partial_hull_report": 1299,
    },
    "check-thm7": {},
    "hull": {},
    "normal-cone": {
        "normal_cones.in_normal_cone": 8,
        "normal_cones.normal_cone_at": 8,
    },
    "partial-hull": {
        "normal_cones.normal_cone_at": 543,
        "portability._partial_rows": 36,
        "portability.partial_hull_report": 1299,
    },
    "phi": {"normal_cones.in_portable_hull": 24},
    "portable": {"portability.portability_report": 343},
    "probe-bp": {
        "normal_cones.normal_cone_at": 20,
        "portability.boundary_support_report": 26,
    },
    "psi": {},
    "report": {"portability.portability_report": 343},
    "separate": {
        "normal_cones.in_normal_cone": 5,
        "normal_cones.in_portable_hull": 7,
        "portability.separation_certificate": 7,
        "portability.verify_certificate": 5,
    },
    "sigma": {"cli._sigma": 3},
    "sum-check": {
        "normal_cones.normal_cone_at": 4,
        "representability.<genexpr>": 3,
        "representability._sum_program": 30,
        "representability.representability_probe": 3,
        "representability.sum_graph_membership": 5,
    },
}
# ``representability_probe`` of the gradient graph fixture on the unit
# square at step 1/4: one cold solve, then one warm re-solve per other pair.
PROBE_PLAN = {"representability.touches": 1, "warm": 7224}
# ``make_set`` and ``portable_hull`` on the 3-D row ladder at m = 121: one
# emptiness solve on the 3-row dual, then one redundancy test per row, each
# re-solved warm from its tableau with the row's column barred.
LADDER_PLAN = {"polyhedra._nonempty_support": 1, "warm": 121}
LADDER_WIDEST = 3
# ``make_set`` on the 48 boxes of ``sum_plan(1, 12)``, 1-D and 2-D: one
# emptiness solve per box, then one warm redundancy test per row.
SUM_PLAN = {"polyhedra._nonempty_support": 48, "warm": 144}


# Python 3.12 runs these inline, in the enclosing function's frame.
INLINED = ("<listcomp>", "<setcomp>", "<dictcomp>")


def _asker(inner: tuple[str, ...]) -> str:
    """The first function outside the ``inner`` modules on the stack, past
    the wrapper and the counted function; a comprehension is booked under
    the function it runs in, on every Python."""
    frame = sys._getframe(2)
    while frame.f_globals.get("__name__") in inner or frame.f_code.co_name in INLINED:
        frame = frame.f_back
    return f"{frame.f_globals['__name__'].removeprefix('phk.')}.{frame.f_code.co_name}"


def _rebind(name: str, old, new) -> None:
    """Point every ``name`` that a ``phk`` module binds to ``old`` at
    ``new``: a module that imports the name holds its own binding."""
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "phk" or mod_name.startswith("phk.")) and getattr(mod, name, None) is old:
            setattr(mod, name, new)


def count_work(run) -> tuple[dict[str, int], dict[str, int]]:
    """Cold LP solves by asking function, with warm re-solves, and
    ``polyhedra._signs`` placements by asking function, while ``run()``
    runs.  A solve is booked outside ``lp``, a placement outside
    ``polyhedra`` and ``sampling``."""
    solves: Counter = Counter()
    placed: Counter = Counter()
    real_solve, real_warm, real_signs = lp.lp_solve, lp.SupportLP._warm, polyhedra._signs

    def solve(*args):
        solves[_asker(("phk.lp",))] += 1
        return real_solve(*args)

    def warm(*args):
        solves["warm"] += 1
        return real_warm(*args)

    def signs(*args):
        placed[_asker(("phk.polyhedra", "phk.sampling"))] += 1
        return real_signs(*args)

    _rebind("lp_solve", real_solve, solve)
    _rebind("_signs", real_signs, signs)
    lp.SupportLP._warm = warm
    try:
        run()
    finally:
        # Also the modules imported during ``run``, which bound the wrappers.
        _rebind("lp_solve", solve, real_solve)
        _rebind("_signs", signs, real_signs)
        lp.SupportLP._warm = real_warm
    return dict(sorted(solves.items())), dict(sorted(placed.items()))


# A plan with two pinned tests runs once per process; both read its counts.
@cache
def bench_style_counts() -> tuple[dict[str, int], dict[str, int]]:
    from test_portability_reference import bench_style_sets

    def run():
        for c in bench_style_sets():
            portability_report(c, SampleSpec(seed=5, count=8))

    return count_work(run)


def bench_gen():
    """The benchmark's input generator, ``bench/gen.py``."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return gen


def report_plan_counts() -> tuple[dict[str, int], dict[str, int]]:
    sets = [make_set(dim, rows) for dim, rows in bench_gen().report_plan(101, 12)]
    spec = SampleSpec(seed=101, count=8)
    return count_work(lambda: [portability_report(c, spec) for c in sets])


@cache
def golden_plan_counts() -> tuple[dict[str, int], dict[str, dict[str, int]]]:
    """The LP counts of all cases, and the placements of each verb's cases."""
    from test_golden_cli import cases, run

    solves: Counter = Counter()
    placed: dict[str, Counter] = {}
    for argv in cases():
        case_solves, case_placed = count_work(lambda: run(argv))
        solves.update(case_solves)
        placed.setdefault(argv[0], Counter()).update(case_placed)
    return dict(sorted(solves.items())), {
        verb: dict(sorted(counts.items())) for verb, counts in sorted(placed.items())
    }


def ladder_plan_counts() -> tuple[dict[str, int], int]:
    """Cold solves of the row ladder at m = 121 (normals (i, j, 1) for
    |i|, |j| <= 5, offset 100), and the most rows of any program."""
    rows = [((i, j, 1), 100, False) for i in range(-5, 6) for j in range(-5, 6)]
    widest = 0
    real = lp.lp_solve

    def solve(p, *rest):
        nonlocal widest
        widest = max(widest, len(p.rows))
        return real(p, *rest)

    _rebind("lp_solve", real, solve)
    try:
        solves, _ = count_work(lambda: portable_hull(make_set(3, rows)))
    finally:
        _rebind("lp_solve", solve, real)
    return solves, widest


def sum_plan_counts() -> tuple[dict[str, int], dict[str, int]]:
    plan = bench_gen().sum_plan(1, 12)
    return count_work(lambda: [make_set(q["dim"], q["rows"]) for q in plan])


def probe_plan_counts() -> tuple[dict[str, int], dict[str, int]]:
    def load(name, parse):
        return parse(json.loads((ROOT / "fixtures" / f"{name}.json").read_text(encoding="utf-8")))

    t, c = load("gradient_graph_2d", parse_graph), load("unit_square", parse_set)
    return count_work(lambda: representability_probe(t, c, GridSpec(step=Fraction(1, 4))))


def test_bench_style_sets_solve_the_pinned_lps():
    assert bench_style_counts()[0] == BENCH_STYLE


def test_bench_style_sets_place_the_pinned_points():
    assert bench_style_counts()[1] == BENCH_STYLE_PLACED


def test_report_plan_solves_the_pinned_lps():
    counts, _ = report_plan_counts()
    assert counts == REPORT_PLAN
    assert sum(counts.values()) - counts["warm"] == 300


def test_golden_plan_solves_the_pinned_lps():
    assert golden_plan_counts()[0] == GOLDEN_PLAN


def test_golden_plan_places_the_pinned_points():
    assert golden_plan_counts()[1] == GOLDEN_PLACED


def test_probe_plan_solves_one_cold_lp():
    assert probe_plan_counts()[0] == PROBE_PLAN


def test_ladder_plan_solves_no_primal_program():
    assert ladder_plan_counts() == (LADDER_PLAN, LADDER_WIDEST)


def test_sum_plan_builds_on_the_pinned_lps():
    assert sum_plan_counts()[0] == SUM_PLAN


def test_counts_do_not_depend_on_the_hash_seed():
    code = (
        "import json, test_work_counts as t; "
        "print(json.dumps([t.bench_style_counts(), t.probe_plan_counts()[0]]))"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(TESTS)])
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
        got = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert json.loads(got.stdout) == [[BENCH_STYLE, BENCH_STYLE_PLACED], PROBE_PLAN], seed


if __name__ == "__main__":
    plans = {
        "bench_style": bench_style_counts,
        "report_plan": report_plan_counts,
        "golden_plan": golden_plan_counts,
        "probe_plan": probe_plan_counts,
        "sum_plan": sum_plan_counts,
    }
    out = {}
    for name, counts in plans.items():
        solves, placed = counts()
        out[name] = {"lp": solves, "placements": placed}
    solves, widest = ladder_plan_counts()
    out["ladder_plan"] = {"lp": solves, "widest": widest}
    print(json.dumps(out, indent=1))
