"""Tests of the benchmark itself.

    python3 -m pytest bench -q

They check that the generators are seeded, that every correctness check
rejects a wrong answer, and that a seed never used while tuning the
benchmark runs every workload with no failed operation and no wrong answer.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from phk import (  # noqa: E402
    ClosedPolyhedron,
    SampleSpec,
    fin,
    graph,
    is_monotone,
    make_set,
    portability_report,
    rep_sum_value_by_enumeration,
    sum_graph_membership,
)

FRESH_SEED = 424242  # not used while the benchmark was built and tuned


def _cli_calls(seed):
    outdir = ROOT / ".bench_out" / "test-plan"
    calls = gen.cli_plan(seed, 1, ROOT, outdir)
    files = {p.name: p.read_text() for p in sorted(outdir.iterdir())}
    return calls, files


def test_generators_are_deterministic_per_seed():
    assert gen.report_plan(5, 2) == gen.report_plan(5, 2)
    assert gen.sum_plan(5, 3) == gen.sum_plan(5, 3)
    assert _cli_calls(5) == _cli_calls(5)


def test_generators_differ_across_seeds():
    assert gen.report_plan(5, 2) != gen.report_plan(6, 2)
    assert gen.sum_plan(5, 3) != gen.sum_plan(6, 3)
    assert _cli_calls(5) != _cli_calls(6)


def test_inputs_never_repeat_within_a_run():
    plan = gen.report_plan(3, 20)
    assert len(set(plan)) == len(plan)
    boxes = [q["rows"] for q in gen.sum_plan(3, 150)]
    assert len(set(boxes)) == len(boxes)


def test_report_sets_keep_their_rows():
    for dim, rows in gen.report_plan(7, 1):
        c = make_set(dim, rows)
        assert c.carrier.rows == tuple((n, o) for n, o, _ in rows)
        assert c.strict_rows == frozenset(i for i, r in enumerate(rows) if r[2])


def test_sum_queries_are_well_formed():
    for q in gen.sum_plan(7, 3):
        g = graph(q["dim"], q["pairs"])
        assert is_monotone(g)
        assert all(gen.satisfies(q["rows"], a) for a, _ in q["pairs"])
        origin = tuple(Fraction(0) for _ in range(q["dim"]))
        assert origin in [a for a, _ in q["pairs"]]


def _strict_square():
    rows = gen.box_rows([1, 1], [2, 2])
    rows = sorted((n, o, i == 0) for i, (n, o, _) in enumerate(rows))
    return rows, make_set(2, rows)


def test_check_report_accepts_the_right_answer():
    rows, c = _strict_square()
    report = portability_report(c, SampleSpec(count=4))
    assert checks.check_report(report, rows) == []


def test_check_report_rejects_a_flipped_verdict():
    rows, c = _strict_square()
    report = portability_report(c, SampleSpec(count=4))
    flipped = dataclasses.replace(
        report,
        maximal_on_samples=True,
        coupling_identity_on_samples=True,
        hull_adds_nothing=True,
        hull_equals_carrier=True,
    )
    assert checks.check_report(flipped, rows)
    one_flipped = dataclasses.replace(report, hull_adds_nothing=True)
    assert checks.check_report(one_flipped, rows)


def test_check_report_rejects_a_hull_missing_a_row():
    rows, c = _strict_square()
    report = portability_report(c, SampleSpec(count=4))
    short = ClosedPolyhedron(2, report.hull.rows[1:])
    assert checks.check_report(dataclasses.replace(report, hull=short), rows)


def test_check_support_rejects_a_wrong_value():
    rows = [(n, o) for n, o, _ in gen.box_rows([1, 1], [2, 3])]
    assert checks.check_support(fin(Fraction(5)), (1, 1), rows) == []
    assert checks.check_support(fin(Fraction(4)), (1, 1), rows)


def test_check_sum_rejects_a_value_off_by_one():
    q = gen.sum_plan(9, 1)[0]
    assert q["in_graph"]
    g, c = graph(q["dim"], q["pairs"]), make_set(q["dim"], q["rows"])
    m = sum_graph_membership(g, c, q["x"], q["xstar"])
    e = rep_sum_value_by_enumeration(g, c, q["x"], q["xstar"])
    assert checks.check_sum(q, m, e) == []
    off = fin(m.value.finite_value + 1)
    assert checks.check_sum(q, dataclasses.replace(m, value=off), e)
    assert checks.check_sum(q, m, off)


def test_check_cli_rejects_a_falsified_document():
    doc = {"verb": "hull", "paperChecks": ["hull-idempotent"], "witnesses": {}}
    assert checks.check_cli(0, json.dumps(doc), "hull", []) == []
    doc["witnesses"]["falsified"] = ["hull-matches-face-route"]
    assert checks.check_cli(2, json.dumps(doc), "hull", [])
    assert checks.check_cli(0, json.dumps(doc), "hull", [])


def test_check_cli_rejects_a_wrong_hand_answer():
    doc = {"verb": "portable", "paperChecks": ["four-conditions-agree"], "result": False}
    assert checks.check_cli(0, json.dumps(doc), "portable", [(("result",), True)])
    assert checks.check_cli(0, json.dumps(doc) + "{}", "portable", [])


def _run(workload, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(FRESH_SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_fresh_seed_passes_every_workload():
    spec = _spec()
    for w in spec["workloads"]:
        proc = _run(w["name"])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"], proc.stderr
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = _run("sum", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in _spec()["per_layer"]}
    assert result["metrics"]["lp.solves.barycentric"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("report", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
