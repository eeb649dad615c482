"""Condensed invariant suite runnable from the command line.

Each section replays one of the package's dual-route checks on seeded
corpora and reports how many instances it examined.  A section failure
carries a witness so the offending instance can be reproduced.
"""
from __future__ import annotations

from fractions import Fraction

from .corpus import (
    line_free_closed_sets,
    lp_corpus,
    partially_open_sets,
    probe_point_sets,
    probe_polyhedra,
    random_polytopes,
    sum_instances,
)
from .fitzpatrick import (
    normal_cone_fitzpatrick,
    normal_cone_fitzpatrick_by_faces,
)
from .fme import fm_feasible, fm_maximize
from .linalg import dot
from .lp import lp_solve, strict_system_feasible, verify_outcome
from .normal_cones import in_portable_hull, support_value
from .polyhedra import (
    closed_contains,
    closed_equal,
    contains,
    h_to_v,
    v_to_h,
)
from .portability import (
    boundary_support_report,
    hull_extension_report,
    partial_hull_report,
    portability_report,
    separation_certificate,
    verify_certificate,
)
from .representability import (
    rep_sum_value_by_enumeration,
    sum_graph_membership,
)
from .sampling import SampleSpec, cloud_points, dual_vectors
from .serialize import jsonable


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
            ev = support_value(c, xstar)
            good = not ev.attained_in_set or (
                ev.value.is_finite
                and contains(c, ev.witness)
                and dot(xstar, ev.witness) == ev.value.finite_value
            )
            yield good, {"set": c, "dual": xstar}


def _fitzpatrick(seed, samples):
    for c in partially_open_sets(max(2, samples // 2), seed + 5, dims=(1, 2)):
        spec = SampleSpec(seed=seed, count=4)
        duals = dual_vectors(c, spec)[:6]
        for x in cloud_points(c, spec)[:8]:
            for xstar in duals:
                a = normal_cone_fitzpatrick(c, x, xstar)
                b = normal_cone_fitzpatrick_by_faces(c, x, xstar)
                yield a == b, {"set": c, "x": x, "xstar": xstar}


def _conditions(seed, samples):
    sets = partially_open_sets(samples, seed + 6) + partially_open_sets(
        samples, seed + 7, force_strict=True
    )
    for c in sets:
        r = portability_report(c, SampleSpec(seed=seed, count=6))
        yield len(r.verdicts()) == 1, c


def _separation(seed, samples):
    for c in partially_open_sets(samples, seed + 8):
        for x in cloud_points(c, SampleSpec(seed=seed, count=6)):
            if contains(c, x):
                continue
            cert = separation_certificate(c, x)
            good = (cert is None) == in_portable_hull(c, x)
            if cert is not None:
                good = good and verify_certificate(c, x, cert)
            yield good, {"set": c, "x": x}


def _collapse(seed, samples):
    sets = partially_open_sets(samples, seed + 9)
    probes_p = probe_point_sets(samples, seed + 10)
    probes_s = probe_polyhedra(samples, seed + 11)
    for i, c in enumerate(sets):
        ext = hull_extension_report(c, SampleSpec(seed=seed, count=4))
        good = ext["ok"]
        probe = probes_p[i] if i % 2 == 0 else probes_s[i]
        if probe.dim == c.dim:
            rep = partial_hull_report(c, probe, SampleSpec(seed=seed, count=4))
            good = good and rep["ok"]
        yield good, c


def _sum(seed, samples):
    for t, c in sum_instances(max(2, samples // 2), seed + 12):
        probes = [(a, astar) for a, astar in t.pairs]
        zero = tuple(Fraction(0) for _ in range(t.dim))
        probes.append((t.pairs[0][0], zero))
        for x, xstar in probes:
            m = sum_graph_membership(t, c, x, xstar)
            o = rep_sum_value_by_enumeration(t, c, x, xstar)
            yield m.value == o and m.agrees, {"graph": t, "set": c, "x": x}


def _boundary(seed, samples):
    for c in partially_open_sets(samples, seed + 13):
        rep = boundary_support_report(c, SampleSpec(seed=seed, count=4))
        yield rep["ok"], c


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
