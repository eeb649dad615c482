"""End-to-end acceptance checks, one per numbered scenario.

Every check is exact (tolerance zero) and deterministic: the corpora are
seeded, the sampled point clouds are seeded, and each test prints a single
PASS/FAIL line so a log scrape can recover the verdicts.  Minimum corpus
and sample sizes are asserted explicitly so a regression in the generators
cannot silently weaken a check.
"""
from fractions import Fraction
from functools import cache
from itertools import combinations, islice, product

from phk.corpus import (
    line_free_closed_sets,
    lp_corpus,
    partially_open_sets,
    probe_point_sets,
    probe_polyhedra,
    random_polytopes,
    sum_instances,
)
from phk.fitzpatrick import (
    normal_cone_fitzpatrick,
    normal_cone_fitzpatrick_by_faces,
)
from phk.fme import fm_maximize
from phk.linalg import dot, vadd, smul
from phk.lp import lp_solve, verify_outcome
from phk.normal_cones import (
    in_normal_cone,
    in_portable_hull,
    in_range,
    interior_point_of_carrier,
    support_value,
)
from phk.polyhedra import (
    ClosedPolyhedron,
    EmptySet,
    closed_as_set,
    closed_subset_of,
    contains,
    h_to_v,
    is_bounded,
    lineality_space,
    make_set,
)
from phk.portability import (
    boundary_support_report,
    is_portable,
    nonsupporting_witness,
    partial_portable_hull,
    portable_hull,
    separation_certificate,
    verify_certificate,
)
from phk.representability import (
    rep_sum_value,
    rep_sum_value_by_enumeration,
    sum_graph_membership,
)
from phk.sampling import SampleSpec, cloud_points, dual_vectors, graph_pairs
from phk.scalars import POS_INF, fin

F = Fraction


def half_open_interval():
    return make_set(1, [((-1,), 0, True), ((1,), 1, False)])


@cache
def closed_polytopes():
    return tuple(random_polytopes(100, seed=301))


@cache
def mixed_sets():
    return tuple(partially_open_sets(50, seed=211))


@cache
def strict_sets():
    return tuple(partially_open_sets(20, seed=307, force_strict=True))


@cache
def line_free_sets():
    return tuple(line_free_closed_sets(50, seed=601))


def _verdict(number: int, slug: str, ok: bool) -> None:
    print(f"ACCEPTANCE-{number} {slug}: {'PASS' if ok else 'FAIL'}")


def _monotone_on(pairs) -> bool:
    for (a, astar), (b, bstar) in combinations(pairs, 2):
        da = tuple(x - y for x, y in zip(a, b))
        dd = tuple(x - y for x, y in zip(astar, bstar))
        if dot(da, dd) < 0:
            return False
    return True


def test_acceptance_1_half_open_interval_counterexample():
    c = half_open_interval()
    hull = portable_hull(c)
    failures = []
    if hull != ClosedPolyhedron(1, (((F(1),), F(1)),)):
        failures.append(f"hull is {hull}, expected the ray below 1")
    if is_portable(c):
        failures.append("the half-open interval must not be portable")

    sampled = graph_pairs(c, SampleSpec(seed=1, count=25))
    if len(sampled) < 10:
        failures.append("too few sampled graph pairs")
    closed_unit = make_set(1, [((-1,), 0, False), ((1,), 1, False)])
    lower_ray = closed_as_set(hull)
    for name, ext in (("closed-interval", closed_unit), ("hull-ray", lower_ray)):
        if not all(in_normal_cone(ext, x, xstar) for x, xstar in sampled):
            failures.append(f"{name} does not extend the graph")
        ext_pairs = sampled + graph_pairs(ext, SampleSpec(seed=2, count=15))
        if not _monotone_on(ext_pairs):
            failures.append(f"{name} extension is not monotone on samples")

    ok = not failures
    _verdict(1, "half-open-interval-counterexample", ok)
    assert ok, failures


def test_acceptance_2_coupling_value_two_routes():
    sets = mixed_sets()
    assert len(sets) >= 50
    failures = []
    for idx, c in enumerate(sets):
        count = 10
        while True:
            spec = SampleSpec(seed=7, count=count)
            xs = cloud_points(c, spec)
            ds = dual_vectors(c, spec)
            if len(xs) * len(ds) >= 200:
                break
            count += 10
        pairs = list(islice(product(xs, ds), 200))
        assert len(pairs) >= 200
        for x, xstar in pairs:
            closed_form = normal_cone_fitzpatrick(c, x, xstar)
            by_faces = normal_cone_fitzpatrick_by_faces(c, x, xstar)
            if closed_form != by_faces:
                failures.append((idx, x, xstar, str(closed_form), str(by_faces)))
                break
        zero = tuple(F(0) for _ in range(c.dim))
        for x in xs:
            want = fin(0) if in_portable_hull(c, x) else POS_INF
            if normal_cone_fitzpatrick_by_faces(c, x, zero) != want:
                failures.append((idx, "zero-dual", x))
                break
    ok = not failures
    _verdict(2, "coupling-value-two-routes", ok)
    assert ok, failures[:3]


def test_acceptance_3_four_conditions_coherence():
    from phk.portability import portability_report

    polytopes = closed_polytopes()
    assert len(polytopes) >= 100
    failures = []
    for idx, c in enumerate(polytopes):
        # One-dimensional sets have two boundary points, so reaching one
        # hundred related pairs needs a much larger sampling request.
        count = 128 if c.dim == 1 else 16
        while True:
            r = portability_report(c, SampleSpec(seed=3, count=count))
            if r.related_pairs_checked >= 100:
                break
            count *= 2
        if not (
            r.maximal_on_samples
            and r.coupling_identity_on_samples
            and r.hull_adds_nothing
            and r.hull_equals_carrier
        ):
            failures.append(("closed", idx, r.failure_pair))

    strict = strict_sets()
    assert len(strict) >= 20
    for idx, c in enumerate(strict):
        r = portability_report(c, SampleSpec(seed=3, count=8))
        if r.hull_adds_nothing or r.hull_equals_carrier:
            failures.append(("strict-hull", idx))
        if r.maximal_on_samples or r.coupling_identity_on_samples:
            failures.append(("strict-samples", idx))
        if r.failure_pair is None:
            failures.append(("strict-witness-missing", idx))
        else:
            x, xstar = r.failure_pair
            if contains(c, x) or not in_portable_hull(c, x):
                failures.append(("strict-witness-wrong", idx, x, xstar))
    ok = not failures
    _verdict(3, "four-conditions-coherence", ok)
    assert ok, failures[:3]


def test_acceptance_4_separation_biconditional():
    corpus = (
        list(closed_polytopes()[:30])
        + list(mixed_sets()[:20])
        + list(strict_sets()[:10])
        + list(line_free_sets()[:15])
    )
    failures = []
    for idx, c in enumerate(corpus):
        portable = is_portable(c)
        exterior = [
            x for x in cloud_points(c, SampleSpec(seed=11, count=10)) if not contains(c, x)
        ]
        gap = nonsupporting_witness(c)
        if gap is not None:
            exterior.insert(0, gap[1])
        if not exterior:
            failures.append(("no-exterior-points", idx))
            continue
        every_certified = True
        for x in exterior:
            cert = separation_certificate(c, x)
            if cert is None:
                every_certified = False
            elif not verify_certificate(c, x, cert):
                failures.append(("bad-certificate", idx, x))
        if every_certified != portable:
            failures.append(("biconditional", idx, every_certified, portable))

    c = half_open_interval()
    if separation_certificate(c, (-1,)) is not None:
        failures.append("x = -1 must not be separable from the half-open interval")
    cert = separation_certificate(c, (2,))
    if cert is None or not verify_certificate(c, (2,), cert):
        failures.append("x = 2 must receive a verifying certificate")
    ok = not failures
    _verdict(4, "separation-biconditional", ok)
    assert ok, failures[:3]


def test_acceptance_5_hull_collapse_on_pairs():
    corpus = (
        list(closed_polytopes()[:15])
        + list(mixed_sets()[:15])
        + list(line_free_sets()[:10])
    )
    point_probes = probe_point_sets(12, seed=511)
    poly_probes = probe_polyhedra(12, seed=513)
    failures = []
    checked_pairs = 0
    for idx, c in enumerate(corpus):
        hull = portable_hull(c)
        hull_set = closed_as_set(hull)
        again = portable_hull(hull_set)
        if not (
            closed_subset_of(again, hull_set)
            and closed_subset_of(hull, closed_as_set(again))
        ):
            failures.append(("full-hull-not-idempotent", idx))

        probes = [EmptySet(c.dim), make_set(c.dim, [])]
        probes += [s for s in point_probes if s.dim == c.dim][:2]
        probes += [s for s in poly_probes if s.dim == c.dim][:2]
        for s in probes:
            checked_pairs += 1
            partial = partial_portable_hull(c, s)
            pset = closed_as_set(partial)
            again_partial = partial_portable_hull(pset, s)
            again_full = portable_hull(pset)
            if not (
                closed_subset_of(again_partial, pset)
                and closed_subset_of(partial, closed_as_set(again_partial))
            ):
                failures.append(("partial-partial", idx, type(s).__name__))
            if not (
                closed_subset_of(again_full, pset)
                and closed_subset_of(partial, closed_as_set(again_full))
            ):
                failures.append(("partial-full", idx, type(s).__name__))
    assert checked_pairs >= 100
    ok = not failures
    _verdict(5, "hull-collapse-on-pairs", ok)
    assert ok, failures[:3]


def test_acceptance_6_line_free_support_attainment():
    sets = line_free_sets()
    assert len(sets) >= 50
    failures = []
    for idx, c in enumerate(sets):
        if lineality_space(c.carrier) != ():
            failures.append(("not-line-free", idx))
            continue
        if not is_portable(c):
            failures.append(("not-portable", idx))
        duals = dual_vectors(c, SampleSpec(seed=13, count=40))
        # In dimension one the generator produces few distinct directions;
        # integer multiples are new sample vectors in the same ray classes.
        base = [d for d in duals if any(q != 0 for q in d)]
        scale = 2
        while len(duals) < 100:
            seen = set(duals)
            for d in base:
                scaled = smul(F(scale), d)
                if scaled not in seen:
                    duals.append(scaled)
                    seen.add(scaled)
            scale += 1
        assert len(duals) >= 100
        bounded = is_bounded(c.carrier)
        for xstar in duals:
            finite = support_value(c, xstar).value.is_finite
            member = in_range(c, xstar)
            if finite != member:
                failures.append(("domain-range-mismatch", idx, xstar))
                break
            if bounded and not member:
                failures.append(("bounded-direction-escaped", idx, xstar))
                break
    ok = not failures
    _verdict(6, "line-free-support-attainment", ok)
    assert ok, failures[:3]


def test_acceptance_7_sum_rule_two_routes():
    instances = sum_instances(10, seed=701)
    assert len(instances) >= 10
    failures = []
    for idx, (t, c) in enumerate(instances):
        assert t.dim in (1, 2) and len(t.pairs) <= 4
        anchor = interior_point_of_carrier(c)
        geometry = h_to_v(c.carrier)
        xs = [a for a, _ in t.pairs] + [anchor] + list(geometry.vertices)
        for a, b in combinations([a for a, _ in t.pairs], 2):
            xs.append(vadd(smul(F(1, 2), a), smul(F(1, 2), b)))
        for v in geometry.vertices:
            xs.append(vadd(smul(F(1, 2), v), smul(F(1, 2), anchor)))
        outside = vadd(geometry.vertices[0], tuple(F(7) for _ in range(c.dim)))
        xs.append(outside)
        ds = [astar for _, astar in t.pairs]
        ds.append(tuple(F(0) for _ in range(c.dim)))
        for j in range(c.dim):
            unit = tuple(F(1) if i == j else F(0) for i in range(c.dim))
            ds.append(unit)
            ds.append(tuple(-q for q in unit))
        for a, b in combinations([astar for _, astar in t.pairs], 2):
            ds.append(vadd(a, b))
        xs = list(dict.fromkeys(xs))
        ds = list(dict.fromkeys(ds))
        base_ds = [d for d in ds if any(q != 0 for q in d)]
        scale = 2
        while len(xs) * len(ds) < 55:
            for d in base_ds:
                scaled = smul(F(scale), d)
                if scaled not in ds:
                    ds.append(scaled)
            scale += 1
        pairs = list(islice(product(xs, ds), 60))
        assert len(pairs) >= 50, (idx, len(xs), len(ds))

        for x, xstar in pairs[:12]:
            by_lp = rep_sum_value(t, c, x, xstar).value
            by_enum = rep_sum_value_by_enumeration(t, c, x, xstar)
            if by_lp != by_enum:
                failures.append(("oracle", idx, x, xstar, str(by_lp), str(by_enum)))
                break
        for x, xstar in pairs:
            m = sum_graph_membership(t, c, x, xstar)
            if not m.agrees:
                failures.append(("membership", idx, x, xstar, m.lhs, m.rhs))
                break
    ok = not failures
    _verdict(7, "sum-rule-two-routes", ok)
    assert ok, failures[:3]


def test_acceptance_8_lp_kernel_vs_elimination():
    problems = lp_corpus(500, seed=801)
    assert len(problems) == 500
    failures = []
    for idx, p in enumerate(problems):
        out = lp_solve(p)
        if not verify_outcome(p, out):
            failures.append(("certificate", idx, out.status))
            continue
        status, value = fm_maximize(p.objective, p.rows)
        if status != out.status:
            failures.append(("status", idx, out.status, status))
        elif status == "optimal" and value != out.value:
            failures.append(("value", idx, str(out.value), str(value)))
    ok = not failures
    _verdict(8, "lp-kernel-vs-elimination", ok)
    assert ok, failures[:3]


def test_acceptance_9_boundary_points_support():
    corpus = (
        list(closed_polytopes())
        + list(mixed_sets())
        + list(strict_sets())
        + list(line_free_sets())
    )
    assert len(corpus) >= 200
    failures = []
    sampled_total = 0
    for idx, c in enumerate(corpus):
        r = boundary_support_report(c, SampleSpec(seed=9, count=6))
        sampled_total += r["sampled"]
        if not r["ok"]:
            failures.append((idx, r["witness"]))
        if not r["vacuous"] and r["sampled"] == 0:
            failures.append((idx, "no boundary points sampled"))
    assert sampled_total >= 1000
    ok = not failures
    _verdict(9, "boundary-points-support", ok)
    assert ok, failures[:3]
