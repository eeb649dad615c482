"""Benchmark for phk: the portability report, the sum rule and cold CLI calls.

    python3 bench/run.py --workload {report,sum,cli} [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from ``src``.
Each workload is a closed loop, one operation at a time, in a fresh process;
its inputs come from the seed and are built through phk's public
constructors.  ``--seconds`` fixes the amount of work: the number of rounds
is the seconds times a rate calibrated so that a run of the current code
measures for about that long, so a faster program does the same work sooner.

Times are reported at a reference machine speed.  Between operations the
benchmark times two reference tasks that run no phk code, an in-process
exact-arithmetic loop and a fresh interpreter start (``slowness``), and
scales every time by the machine's speed around that moment.  This takes out
most of the drift of the shared machine's speed, which moves raw times by a
third from one minute to the next.  The raw figures and the speed go to
stderr and to ``.bench_out/``.

Every answer is checked (see ``checks.py``).  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  See ``bench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import gen
from tracer import LAYER_METRICS, Tracer, layer_metrics, merge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("report", "sum", "cli")
DEFAULT_SEED = 1
# Calibration: rounds per second of --seconds (report, sum) and the length
# of one CLI round, measured on the current code.
REPORT_ROUNDS_PER_S = 0.6
SUM_ROUNDS_PER_S = 7.2
CLI_ROUND_S = 20.0
SAMPLES = 8  # SampleSpec.count of every report
IMPORT_REPEATS = 5
BUILD_REPEATS = 3
SUPPORT_DUALS = 2  # duals per set checked against the independent LP
SPEED_WINDOW = 4  # reference samples on each side that set the local speed

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def arithmetic() -> float:
    """Seconds of fixed exact arithmetic shaped like simplex pivots.

    The collector is off: its passes would scale with phk's heap, not with
    the machine.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(8):
            a = [
                [Fraction((i * i * 7 + j * j * j * 3 + i * j + 1) % 17 + 5 * (i == j), j + 2) for j in range(6)]
                for i in range(6)
            ]
            for k in range(6):
                for i in range(6):
                    if i != k:
                        f = a[i][k] / a[k][k]
                        a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        return perf_counter() - t0
    finally:
        gc.enable()


def interpreter() -> float:
    """Seconds a fresh interpreter takes to start and exit, phk untouched."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(), check=True)
    return perf_counter() - t0


def slowness() -> float:
    """How much slower than nominal the machine runs now (1 = nominal).

    The geometric mean of the two reference tasks' ratios to their nominal
    durations (typical on the machine the README figures come from; they only
    set the scale).  The loop follows compute-bound slow-downs, the start-up
    process-level ones; phk's operations mix both.
    """
    return math.sqrt(arithmetic() / 0.0045 * interpreter() / 0.055)


# Operations between two slowness samples, per workload (about 0.3 s apart).
SAMPLE_EVERY = {"report": 2, "sum": 8, "cli": 2}


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # kB on Linux


class Run:
    """Counts, problems, latencies and speed samples of one workload run."""

    def __init__(self, workload: str, trace: bool) -> None:
        self.sample_every = SAMPLE_EVERY[workload]
        self.tracer = Tracer() if trace else None
        self.raw_latencies: list[float] = []
        self.slowness: list[float] = []
        # (raw seconds, index of the slowness sample taken just before)
        self.pending: list[tuple[float, int]] = []
        self.builds: list[list[tuple[float, int]]] = []  # chunks of each build
        self.imports: list[tuple[float, int]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.totals: dict | None = None  # merged trace totals of child processes

    def speed_sample(self, op: int = 0) -> None:
        """Sample the machine's slowness, at every ``sample_every``-th operation."""
        if op % self.sample_every == 0:
            self.slowness.append(slowness())

    def speed(self) -> float:
        """Machine speed over the whole run relative to the reference machine."""
        return 1 / statistics.median(self.slowness)

    def scaled(self, seconds: float, at: int) -> float:
        """A time measured next to slowness sample ``at``, at nominal speed.

        The local slowness is the median of the samples around ``at``, so the
        scaling follows the machine's drift within the run.
        """
        window = self.slowness[max(0, at - SPEED_WINDOW) : at + SPEED_WINDOW + 1]
        return seconds / statistics.median(window)

    def record(self, seconds: float) -> None:
        """Record one operation's latency, to be scaled when the run ends."""
        self.raw_latencies.append(seconds)
        self.pending.append((seconds, len(self.slowness) - 1))

    def setup_seconds(self) -> tuple[float | None, float | None]:
        """Raw and scaled set-up time: median build plus median import."""
        if not self.imports:
            return None, None
        raw = statistics.median(t for t, _ in self.imports)
        scaled = statistics.median(self.scaled(t, at) for t, at in self.imports)
        if self.builds:
            raw += statistics.median(sum(t for t, _ in b) for b in self.builds)
            scaled += statistics.median(
                sum(self.scaled(t, at) for t, at in b) for b in self.builds
            )
        return raw, scaled

    def activate(self, on: bool, op: int = -1) -> None:
        if self.tracer is not None:
            self.tracer.active = on
            self.tracer.op = op

    def timed(self, op: int, fn, *args):
        """Run one operation; None if it raised (counted as failed)."""
        self.attempted += 1
        self.activate(True, op)
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.activate(False)
            self.failed += 1
            print(f"operation {op} failed: {exc!r}", file=sys.stderr)
            return None
        self.record(perf_counter() - t0)
        self.activate(False)
        return result

    def check(self, label: str, problems: list[str]) -> None:
        self.problems += [f"{label}: {p}" for p in problems]

    def time_imports(self, module: str) -> None:
        """Time a fresh interpreter importing ``module``, several times.

        One unmeasured import first, so that byte-code caches exist.
        """
        code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
        for k in range(IMPORT_REPEATS + 1):
            self.speed_sample()
            at = len(self.slowness) - 1
            out = subprocess.run(
                [sys.executable, "-c", code],
                cwd=ROOT,
                env=child_env(),
                capture_output=True,
                text=True,
                check=True,
            )
            if k:
                self.imports.append((float(out.stdout), at))

    def setup(self, items: list, make, chunk: int, module: str) -> list:
        """Build ``make(item)`` for every item: traced once with tracing,
        else several times, timed in chunks with a speed sample before
        each; then time the import of ``module`` in a fresh interpreter."""
        if self.tracer is not None:
            self.activate(True)
            built = [make(item) for item in items]
            self.activate(False)
            return built
        for _ in range(BUILD_REPEATS):
            built, chunks = [], []
            for k in range(0, len(items), chunk):
                self.speed_sample()
                at = len(self.slowness) - 1
                t0 = perf_counter()
                built += [make(item) for item in items[k : k + chunk]]
                chunks.append((perf_counter() - t0, at))
            self.builds.append(chunks)
        self.time_imports(module)
        return built


def run_report(run: Run, seconds: float, seed: int) -> float:
    import phk
    from phk import SampleSpec, make_set, portability_report, support_value

    plan = gen.report_plan(seed, max(1, round(seconds * REPORT_ROUNDS_PER_S)))
    sets = run.setup(plan, lambda item: make_set(*item), 3 * len(gen.REPORT_ROUND), "phk")
    for i, ((dim, rows), c) in enumerate(zip(plan, sets)):
        if not (
            isinstance(c, phk.PartiallyOpenPolyhedron)
            and c.carrier.rows == tuple((n, o) for n, o, _ in rows)
            and c.strict_rows == frozenset(k for k, r in enumerate(rows) if r[2])
        ):
            run.check(f"set {i}", [f"make_set gave {c}, expected the rows {rows}"])

    spec = SampleSpec(seed=seed, count=SAMPLES)
    for i, ((dim, rows), c) in enumerate(zip(plan, sets)):
        run.speed_sample(i)
        report = run.timed(i, portability_report, c, spec)
        if report is not None:
            run.check(f"set {i}", checks.check_report(report, rows))
    peak = peak_rss_mb()

    # Outside the timed region: support values against an independent LP.
    rng = gen.rng_for(seed, "report-duals")
    for i, ((dim, rows), c) in enumerate(zip(plan, sets)):
        carrier = [(n, o) for n, o, _ in rows]
        for _ in range(SUPPORT_DUALS):
            dual = tuple(rng.randint(-3, 3) for _ in range(dim))
            value = support_value(c, dual).value
            run.check(f"set {i}", checks.check_support(value, dual, carrier))
    return peak


def run_sum(run: Run, seconds: float, seed: int) -> float:
    import phk
    from phk import graph, make_set, rep_sum_value_by_enumeration, sum_graph_membership

    plan = gen.sum_plan(seed, max(1, round(seconds * SUM_ROUNDS_PER_S)))

    def sum_check(g, c, x, xstar):
        # As the sum-check verb runs it.
        return sum_graph_membership(g, c, x, xstar), rep_sum_value_by_enumeration(g, c, x, xstar)

    built = run.setup(
        plan, lambda q: (make_set(q["dim"], q["rows"]), graph(q["dim"], q["pairs"])), 128, "phk"
    )
    for i, (q, (c, g)) in enumerate(zip(plan, built)):
        if not (
            isinstance(c, phk.PartiallyOpenPolyhedron)
            and c.carrier.rows == tuple(sorted((n, o) for n, o, _ in q["rows"]))
            and len(g.pairs) == len(q["pairs"])
        ):
            run.check(f"query {i}", [f"built {c}, {g} from {q}"])

    for i, (q, (c, g)) in enumerate(zip(plan, built)):
        run.speed_sample(i)
        got = run.timed(i, sum_check, g, c, q["x"], q["xstar"])
        if got is not None:
            run.check(f"query {i}", checks.check_sum(q, *got))
    return peak_rss_mb()


def run_cli(run: Run, seconds: float, seed: int) -> float:
    calls = gen.cli_plan(seed, max(1, round(seconds / CLI_ROUND_S)), ROOT, OUT / f"cli-{seed}")
    trace_dir = OUT / f"cli-trace-{seed}"
    if run.tracer is None:
        run.time_imports("phk.cli")
    else:
        trace_dir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    for i, (argv, expectations) in enumerate(calls):
        if run.tracer is None:
            cmd = [sys.executable, "-m", "phk.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(trace_dir / f"call-{i}.json"), *argv]
        run.speed_sample(i)
        run.attempted += 1
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        elapsed = perf_counter() - t0
        if proc.returncode not in (0, 2):  # 2 is a falsified check: a wrong answer
            run.failed += 1
            print(f"call {argv} exited {proc.returncode}: {proc.stderr[-500:]}", file=sys.stderr)
            continue
        run.record(elapsed)
        label = f"call {i} {' '.join(argv)}"
        run.check(label, checks.check_cli(proc.returncode, proc.stdout, argv[0], expectations))
    if run.tracer is not None:
        parts = [json.loads(p.read_text())["totals"] for p in sorted(trace_dir.glob("call-*.json"))]
        run.totals = merge(parts)
    return peak_rss_mb(resource.RUSAGE_CHILDREN)


# Each runner fills ``run`` and returns the peak resident memory in MB.
RUNNERS = {"report": run_report, "sum": run_sum, "cli": run_cli}


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    ms = [1000 * t for t in latencies]
    return {
        "ops_per_s": len(ms) / (sum(ms) / 1000),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
    }


def end_to_end(run: Run, peak_mb: float) -> tuple[dict, dict]:
    """Raw and speed-scaled end-to-end metrics."""
    setup_raw, setup_scaled = run.setup_seconds()
    scaled_latencies = [run.scaled(t, at) for t, at in run.pending]
    raw = {"setup_s": setup_raw, **latency_metrics(run.raw_latencies), "peak_rss_mb": peak_mb}
    scaled = {"setup_s": setup_scaled, **latency_metrics(scaled_latencies), "peak_rss_mb": peak_mb}
    return raw, scaled


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "phk" / "__init__.py").is_file():
        print(f"error: no phk sources under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    run = Run(args.workload, trace=bool(args.trace))
    if run.tracer is not None:
        run.tracer.install()  # before the runners bind phk's names
    peak_mb = RUNNERS[args.workload](run, args.seconds, args.seed)
    if not run.pending:
        print("error: every operation failed", file=sys.stderr)
        return 1
    for p in run.problems[:20]:
        print(f"wrong answer: {p}", file=sys.stderr)
    raw, scaled = end_to_end(run, peak_mb)
    speed = run.speed()
    tag = f"{args.workload}-{args.seed}" + ("-traced" if run.tracer else "")
    print(f"{tag}: speed {speed:.4f}, raw {json.dumps(raw)}", file=sys.stderr)
    record = {"speed": speed, "raw": raw, "scaled": scaled, "slowness": run.slowness}

    if run.tracer is None:
        values, units = scaled, END_TO_END_UNITS
    else:
        if run.totals is None:
            run.totals = run.tracer.totals()
            run.tracer.dump(OUT / f"trace-{tag}.json", speed=speed)
        values = layer_metrics(run.totals, run.attempted)
        for name, unit, _ in LAYER_METRICS:
            if unit == "s":
                values[name] *= speed
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record))
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
