"""The report's LP work, pinned as exact counts.

Wall time on a shared machine drifts too much to show where work went, but
the number of LPs a fixed input plan solves does not drift.  ``count_work``
wraps ``lp.SupportLP._warm`` and every module's ``lp_solve`` binding from
outside and records each cold solve under the first function outside ``lp``
that asked for it, and each warm re-solve apart.  The counts below are the
claim: a change that moves them re-records them and says why.

The third plan is the 192 ``golden_cli.json`` cases, run in process through
the CLI's ``main``.  Its only polar cone LP is the ``sum-check``
decomposition's ``cone_contains``, which ``_asker`` books under the
generator expression of ``polyhedra._cone_holds``.  The fourth is one grid
probe, whose barycentric values are the maxima of one ``SupportLP``.

Run this file directly to print the counts of all four plans:

    PYTHONPATH=src python tests/test_work_counts.py
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from phk import lp
from phk.polyhedra import make_set
from phk.portability import portability_report
from phk.representability import GridSpec, representability_probe
from phk.sampling import SampleSpec
from phk.serialize import parse_graph, parse_set

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

# ``bench_style_sets``, built and reported under the count.
BENCH_STYLE = {
    "normal_cones._hyperplanes_meeting": 10,
    "normal_cones.set_member_witness": 2,
    "normal_cones.support_level": 5,
    "polyhedra._canonical_rows": 5,
    "polyhedra._irredundant": 25,
    "polyhedra.make_set": 3,
    "portability._hull_verdicts": 3,
    "portability.nonsupporting_witness": 3,
    "warm": 55,
}
# The benchmark's ``report_plan(101, 12)`` sets, built first; their reports
# under the count.
REPORT_PLAN = {
    "normal_cones._hyperplanes_meeting": 216,
    "normal_cones.set_member_witness": 60,
    "normal_cones.support_level": 120,
    "portability._hull_verdicts": 60,
    "portability.nonsupporting_witness": 60,
    "warm": 1448,
}

# The ``golden_cli.json`` cases, each run once through ``cli.main``.
GOLDEN_PLAN = {
    "faces.enumerate_faces": 99,
    "normal_cones._hyperplanes_meeting": 342,
    "normal_cones.set_member_witness": 67,
    "normal_cones.support_level": 57,
    "normal_cones.support_value": 80,
    "polyhedra.<genexpr>": 1,
    "polyhedra._canonical_rows": 228,
    "polyhedra._irredundant": 530,
    "polyhedra.make_set": 55,
    "portability._hull_verdicts": 4,
    "portability.nonsupporting_witness": 4,
    "portability.partial_hull_report": 114,
    "representability._sum_solve": 5,
    "representability.rep_value": 6,
    "representability.sum_graph_membership": 5,
    "representability.touches": 1,
    "warm": 365,
}
# ``representability_probe`` of the gradient graph fixture on the unit
# square at step 1/4: one cold solve, then one warm re-solve per other pair.
PROBE_PLAN = {"representability.touches": 1, "warm": 7224}


def _asker() -> str:
    frame = sys._getframe(2)
    while frame.f_globals.get("__name__") == "phk.lp":
        frame = frame.f_back
    return f"{frame.f_globals['__name__'].removeprefix('phk.')}.{frame.f_code.co_name}"


def _rebind(old, new) -> None:
    """Point every ``lp_solve`` name that a ``phk`` module binds to ``old``
    at ``new``: a module that imports the name holds its own binding."""
    for name, mod in list(sys.modules.items()):
        if (name == "phk" or name.startswith("phk.")) and getattr(mod, "lp_solve", None) is old:
            mod.lp_solve = new


def count_work(run) -> dict[str, int]:
    """Cold LP solves by asking function, and warm re-solves, while ``run()``
    runs."""
    counts: Counter = Counter()
    real_solve, real_warm = lp.lp_solve, lp.SupportLP._warm

    def solve(*args):
        counts[_asker()] += 1
        return real_solve(*args)

    def warm(*args):
        counts["warm"] += 1
        return real_warm(*args)

    _rebind(real_solve, solve)
    lp.SupportLP._warm = warm
    try:
        run()
    finally:
        # Also the modules imported during ``run``, which bound the wrapper.
        _rebind(solve, real_solve)
        lp.SupportLP._warm = real_warm
    return dict(sorted(counts.items()))


def bench_style_counts() -> dict[str, int]:
    from test_portability_reference import bench_style_sets

    def run():
        for c in bench_style_sets():
            portability_report(c, SampleSpec(seed=5, count=8))

    return count_work(run)


def report_plan_counts() -> dict[str, int]:
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "bench"))
    sets = [make_set(dim, rows) for dim, rows in gen.report_plan(101, 12)]
    spec = SampleSpec(seed=101, count=8)
    return count_work(lambda: [portability_report(c, spec) for c in sets])


def golden_plan_counts() -> dict[str, int]:
    from test_golden_cli import cases, run

    return count_work(lambda: [run(argv) for argv in cases()])


def probe_plan_counts() -> dict[str, int]:
    def load(name, parse):
        return parse(json.loads((ROOT / "fixtures" / f"{name}.json").read_text(encoding="utf-8")))

    t, c = load("gradient_graph_2d", parse_graph), load("unit_square", parse_set)
    return count_work(lambda: representability_probe(t, c, GridSpec(step=Fraction(1, 4))))


def test_bench_style_sets_solve_the_pinned_lps():
    assert bench_style_counts() == BENCH_STYLE


def test_report_plan_solves_the_pinned_lps():
    counts = report_plan_counts()
    assert counts == REPORT_PLAN
    assert sum(counts.values()) - counts["warm"] == 516


def test_golden_plan_solves_the_pinned_lps():
    assert golden_plan_counts() == GOLDEN_PLAN


def test_probe_plan_solves_one_cold_lp():
    assert probe_plan_counts() == PROBE_PLAN


def test_counts_do_not_depend_on_the_hash_seed():
    code = (
        "import json, test_work_counts as t; "
        "print(json.dumps([t.bench_style_counts(), t.probe_plan_counts()]))"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(TESTS)])
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
        got = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert json.loads(got.stdout) == [BENCH_STYLE, PROBE_PLAN], seed


if __name__ == "__main__":
    plans = {
        "bench_style": bench_style_counts,
        "report_plan": report_plan_counts,
        "golden_plan": golden_plan_counts,
        "probe_plan": probe_plan_counts,
    }
    print(json.dumps({name: counts() for name, counts in plans.items()}, indent=1))
