"""Condensed invariant suite runnable from the command line.

Seven sections replay a CLI verb over a seeded corpus: each instance runs
the verb's own compute function from ``phk.cli.VERBS`` and is good when none
of the verb's paper checks fails, so what each identity means is stated
once, by its verb.  Three more check the kernels against independent
oracles: the simplex and strict feasibility against Fourier-Motzkin
elimination, and the H-to-V conversion by its round trip.  A section
reports how many instances it examined; a failure carries a witness so the
offending instance can be reproduced.  A verb's witness is the head of the
document ``phk <verb>`` prints for that instance: its verb and inputs.
"""
from __future__ import annotations

from argparse import Namespace
from fractions import Fraction

from .cli import VERBS, CheckSet
from .corpus import (
    line_free_closed_sets,
    lp_corpus,
    partially_open_sets,
    probe_point_sets,
    probe_polyhedra,
    random_polytopes,
    sum_instances,
)
from .fme import fm_feasible, fm_maximize
from .linalg import dot
from .lp import lp_solve, strict_system_feasible, verify_outcome
from .polyhedra import closed_contains, closed_equal, contains, h_to_v, v_to_h
from .sampling import SampleSpec, cloud_points, dual_vectors
from .serialize import jsonable


def _replay(verb: str, inputs: dict, seed: int, count: int) -> tuple[bool, dict]:
    """Run ``verb``'s compute function on ``inputs`` as ``phk <verb> --seed
    seed --samples count`` would; good when none of its checks failed."""
    checks = CheckSet()
    VERBS[verb].compute(inputs, Namespace(seed=seed, samples=count, grid=None), checks)
    return not checks.failed, {"verb": verb, "inputs": inputs}


def _lp(seed, samples):
    for p in lp_corpus(max(10, samples * 3), seed):
        out = lp_solve(p)
        good = verify_outcome(p, out)
        status, value = fm_maximize(p.objective, p.rows)
        good = good and status == out.status
        if status == "optimal":
            good = good and value == out.value
        yield good, {"objective": p.objective}


def _strict(seed, samples):
    for p in lp_corpus(max(10, samples * 3), seed + 1):
        if not p.rows:
            continue
        rows = tuple((n, o, i % 2 == 0) for i, (n, o) in enumerate(p.rows))
        w = strict_system_feasible(rows)
        if (w is not None) != fm_feasible(rows):
            yield False, {"rows": [list(n) + [o] for n, o, _ in rows]}
            continue
        fine = w is None or all(
            dot(n, w) < o if strict else dot(n, w) <= o for n, o, strict in rows
        )
        yield fine, {"witness": w}


def _conversion(seed, samples):
    sets = random_polytopes(samples, seed + 2) + line_free_closed_sets(
        samples, seed + 3
    )
    for c in sets:
        g = h_to_v(c.carrier)
        back = v_to_h(g)
        good = closed_equal(back, c.carrier)
        good = good and all(closed_contains(c.carrier, v) for v in g.vertices)
        yield good, c


def _support(seed, samples):
    for c in partially_open_sets(samples, seed + 4):
        for xstar in dual_vectors(c, SampleSpec(seed=seed, count=6)):
            yield _replay("sigma", {"set": c, "dual": xstar}, seed, 6)


def _fitzpatrick(seed, samples):
    for c in partially_open_sets(max(2, samples // 2), seed + 5, dims=(1, 2)):
        spec = SampleSpec(seed=seed, count=4)
        duals = dual_vectors(c, spec)[:6]
        for x in cloud_points(c, spec)[:8]:
            for xstar in duals:
                yield _replay("phi", {"set": c, "point": x, "dual": xstar}, seed, 4)


def _conditions(seed, samples):
    sets = partially_open_sets(samples, seed + 6) + partially_open_sets(
        samples, seed + 7, force_strict=True
    )
    for c in sets:
        yield _replay("report", {"set": c}, seed, 6)


def _separation(seed, samples):
    for c in partially_open_sets(samples, seed + 8):
        for x in cloud_points(c, SampleSpec(seed=seed, count=6)):
            if not contains(c, x):
                yield _replay("separate", {"set": c, "point": x}, seed, 6)


def _collapse(seed, samples):
    sets = partially_open_sets(samples, seed + 9)
    probes_p = probe_point_sets(samples, seed + 10)
    probes_s = probe_polyhedra(samples, seed + 11)
    for i, c in enumerate(sets):
        good, witness = _replay("check-enc", {"set": c}, seed, 4)
        probe = probes_p[i] if i % 2 == 0 else probes_s[i]
        if good and probe.dim == c.dim:
            good, witness = _replay("check-ncs", {"set": c, "probe": probe}, seed, 4)
        yield good, witness


def _sum(seed, samples):
    for t, c in sum_instances(max(2, samples // 2), seed + 12):
        probes = [(a, astar) for a, astar in t.pairs]
        zero = tuple(Fraction(0) for _ in range(t.dim))
        probes.append((t.pairs[0][0], zero))
        for x, xstar in probes:
            inputs = {"graph": t, "set": c, "point": x, "dual": xstar}
            yield _replay("sum-check", inputs, seed, samples)


def _boundary(seed, samples):
    for c in partially_open_sets(samples, seed + 13):
        yield _replay("probe-bp", {"set": c}, seed, 4)


# Report name and instance generator of each section, in report order.  A
# generator yields ``(good, witness data)`` per instance it examines.
SECTIONS = (
    ("lpAgainstElimination", _lp),
    ("strictFeasibility", _strict),
    ("conversionRoundTrip", _conversion),
    ("supportAttainment", _support),
    ("fitzpatrickTwoRoutes", _fitzpatrick),
    ("portabilityConditions", _conditions),
    ("separationBiconditional", _separation),
    ("hullCollapse", _collapse),
    ("sumRule", _sum),
    ("boundarySupport", _boundary),
)


def run_selftest(seed: int = 0, samples: int = 6) -> tuple[bool, dict]:
    """Run every section; returns overall verdict and the section reports.

    A section reports how many instances it checked and, when one fails,
    the first failing instance as its witness.
    """
    report = {}
    for name, section in SECTIONS:
        ok, checked, witness = True, 0, None
        for good, data in section(seed, samples):
            checked += 1
            if ok and not good:
                ok, witness = False, jsonable(data)
        report[name] = {"ok": ok, "checked": checked, "witness": witness}
    return all(body["ok"] for body in report.values()), report
