"""``portability_report`` against a rebuild from the public predicates.

The report reads every sample pair from one ``row_signs`` vector and one
support lookup.  The reference below rebuilds the same report the long way,
one public predicate per condition: the closed-form coupling
``normal_cone_fitzpatrick``, ``contains`` with ``support_value``,
``monotonically_related`` and ``in_normal_cone``, over ``graph_pairs``,
``cloud_points`` and the nonsupporting witness.  Every field must agree,
the failure pair included.  The reference runs on a fresh copy of the set,
so it solves its own LPs instead of reusing the report's support LP.

The report's shortcuts are pinned against the longer routes they skip: the
hull against ``canonicalize`` of the supporting rows, the one-pass convex
combinations of ``points_in`` against term-by-term ``vadd``/``smul``, and
the value-only support lookups against ``support_value`` on a fresh set,
and the graph duals grouped by point against the flat pair walk that drops
repeated pairs by a key per pair.  The integer samplers are pinned against
their ``Fraction`` forms, kept here as the reference: the same points, row
signs, duals and cloud, in the same order.
"""
from __future__ import annotations

import json
import random
import sys
from dataclasses import fields
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from phk import normal_cones, polyhedra, portability, sampling
from phk.corpus import line_free_closed_sets, partially_open_sets
from phk.errors import InvalidSetError
from phk.fitzpatrick import monotonically_related, normal_cone_fitzpatrick
from phk.linalg import int_key, scaled, smul, unscaled, vadd, vsub, zero_vec
from phk.lp import SupportLP
from phk.normal_cones import (
    _active_normals,
    in_normal_cone,
    in_portable_hull,
    normal_cone_at,
    set_member_witness,
    support_level,
    support_value,
    supporting_rows,
)
from phk.polyhedra import (
    ClosedPolyhedron,
    PartiallyOpenPolyhedron,
    canonicalize,
    carrier_vrep,
    closed_as_set,
    closed_contains,
    closed_equal,
    closed_subset_of,
    contains,
    make_set,
    row_signs,
    system_of,
)
from phk.portability import (
    PortabilityReport,
    hull_extension_report,
    nonsupporting_witness,
    partial_hull_report,
    partial_portable_hull,
    point_set,
    portability_report,
    portable_hull,
)
from phk.sampling import SampleSpec, cloud_points, graph_pairs, points_in
from phk.scalars import POS_INF
from phk.serialize import parse_points, parse_set

F = Fraction


def fresh(c: PartiallyOpenPolyhedron) -> PartiallyOpenPolyhedron:
    """An equal set with an empty record."""
    return PartiallyOpenPolyhedron(c.carrier, c.strict_rows)


def reference_report(c, spec: SampleSpec) -> PortabilityReport:
    hull = portable_hull(c)
    zero = tuple(F(0) for _ in range(c.dim))
    pairs = list(graph_pairs(c, spec))
    pairs += [(x, zero) for x in cloud_points(c, spec)]
    witness = nonsupporting_witness(c)
    if witness is not None:
        pairs.insert(0, (witness[1], zero))
    identity_ok = maximal_ok = True
    failure = None
    related = 0
    for x, xstar in pairs:
        lhs = normal_cone_fitzpatrick(c, x, xstar)
        rhs = support_value(c, xstar).value if contains(c, x) else POS_INF
        if lhs != rhs:
            identity_ok = False
            failure = failure or (x, xstar)
        if monotonically_related(c, x, xstar):
            related += 1
            if not in_normal_cone(c, x, xstar):
                maximal_ok = False
                failure = failure or (x, xstar)
    return PortabilityReport(
        maximal_on_samples=maximal_ok,
        coupling_identity_on_samples=identity_ok,
        hull_adds_nothing=closed_subset_of(hull, c),
        hull_equals_carrier=closed_subset_of(hull, closed_as_set(c.carrier))
        and closed_subset_of(c.carrier, closed_as_set(hull)),
        hull=hull,
        related_pairs_checked=related,
        identity_pairs_checked=len(pairs),
        failure_pair=failure,
    )


def box_with_cuts(rng: random.Random, dim: int, cuts: int, strict: int):
    """A box around the origin with corners cut off, some rows strict, in
    the manner of the benchmark's report sets."""
    if dim == 1:
        lo, hi = [F(rng.randint(4, 24), 4)], [F(rng.randint(4, 24), 4)]
    else:
        lo = [rng.randint(1, 3) for _ in range(dim)]
        hi = [rng.randint(1, 3) for _ in range(dim)]
    rows = []
    for j in range(dim):
        unit = [0] * dim
        unit[j] = 1
        rows.append((tuple(unit), hi[j]))
        rows.append((tuple(-u for u in unit), lo[j]))
    corners: list[tuple[int, ...]] = []
    while len(corners) < cuts:
        s = tuple(rng.choice((-1, 1)) for _ in range(dim))
        if s not in corners:
            corners.append(s)
    for s in corners:
        vertex = [hi[j] if s[j] > 0 else -lo[j] for j in range(dim)]
        rows.append((s, sum(a * b for a, b in zip(s, vertex)) - F(1, 2)))
    marked = set(rng.sample(range(len(rows)), strict))
    return make_set(dim, [(n, o, i in marked) for i, (n, o) in enumerate(rows)])


def bench_style_sets():
    rng = random.Random(9)
    shapes = ((1, 0, 1), (2, 1, 0), (2, 2, 2), (3, 0, 0), (3, 0, 1))
    return [box_with_cuts(rng, *shape) for shape in shapes]


def shaped_sets():
    """Sets with lines and rays, which ``points_in`` pokes along."""
    return [
        make_set(2, [((1, 0), 1, True), ((-1, 0), 0, False)]),
        make_set(2, [((0, -1), 0, True), ((-1, 1), 1, False)]),
        make_set(3, [((1, 1, 0), 2, False), ((-1, 0, 0), 0, True)]),
    ]


CASES = (
    [("mixed", c) for c in partially_open_sets(6, seed=21)]
    + [("strict", c) for c in partially_open_sets(6, seed=22, force_strict=True)]
    + [("line-free", c) for c in line_free_closed_sets(6, seed=23)]
    + [("lines", c) for c in shaped_sets()]
    + [("bench", c) for c in bench_style_sets()]
)


@pytest.mark.parametrize("count", (8, 40))
@pytest.mark.parametrize(
    "kind,c", CASES, ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(CASES)]
)
def test_report_matches_the_predicate_rebuild(kind, c, count):
    spec = SampleSpec(seed=5, count=count)
    got = portability_report(c, spec)
    want = reference_report(fresh(c), spec)
    for field in fields(PortabilityReport):
        assert getattr(got, field.name) == getattr(want, field.name), field.name
    assert got.related_pairs_checked > 0


def test_the_cases_include_failing_reports():
    spec = SampleSpec(seed=5, count=8)
    verdicts = {portability_report(c, spec).failure_pair is None for _, c in CASES}
    assert verdicts == {True, False}


def test_each_report_samples_the_set_once(monkeypatch):
    # ``points_in`` and the reports' placed sampler share one body, which
    # only ``sampling`` and ``portability`` call.
    real = sampling._filtered_points_in
    handed: list[list] = []

    def counted(c, spec):
        handed.append(real(c, spec))
        return handed[-1]

    monkeypatch.setattr(sampling, "_filtered_points_in", counted)
    monkeypatch.setattr(portability, "_filtered_points_in", counted)
    c = make_set(2, [((1, 0), 1, True), ((-1, 0), 0, False), ((0, 1), 1, False), ((0, -1), 0, False)])
    spec = SampleSpec(seed=0, count=8)
    portability_report(c, spec)
    assert len(handed) == 1
    hull_extension_report(c, spec)
    assert len(handed) == 2
    # The graph pairs and the cloud grow from the list without changing it.
    again = real(c, spec)
    assert handed == [again, again]
    assert [unscaled(ints, den) for ints, den, _ in again] == points_in(c, spec)


def counting(monkeypatch, module, name) -> list:
    """Record the arguments of every call of ``module.name``."""
    real = getattr(module, name)
    calls: list = []

    def counted(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def placements(monkeypatch) -> tuple[list, list, list]:
    """Record each ``_signs`` placement as ``(set, point)``: those made
    while ``_filtered_points_in`` samples, and those made after it; and
    each set that ``portability._canonical_as_set`` makes."""
    sampled: list = []
    placed: list = []
    calls = placed
    made: list = []
    real_points, real_signs = sampling._filtered_points_in, polyhedra._signs
    real_as_set = portability._canonical_as_set

    def sampling_points(*args):
        nonlocal calls
        calls = sampled
        try:
            return real_points(*args)
        finally:
            calls = placed

    def signs(s, ints, den):
        calls.append((s, tuple(F(a, den) for a in ints)))
        return real_signs(s, ints, den)

    def as_set(p):
        made.append(real_as_set(p))
        return made[-1]

    for module in (sampling, portability):
        monkeypatch.setattr(module, "_filtered_points_in", sampling_points)
    for name, module in list(sys.modules.items()):
        if name.startswith("phk") and getattr(module, "_signs", None) is real_signs:
            monkeypatch.setattr(module, "_signs", signs)
    monkeypatch.setattr(portability, "_canonical_as_set", as_set)
    return sampled, placed, made


def placed_in(calls: list, s) -> list:
    """The points of the recorded placements in the set object ``s``."""
    return sorted(x for t, x in calls if t is s)


@pytest.mark.parametrize(
    "kind,c", CASES, ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(CASES)]
)
def test_report_places_each_point_and_looks_up_each_dual_once(kind, c, monkeypatch):
    c, spec = fresh(c), SampleSpec(seed=5, count=8)
    zero = zero_vec(c.dim)
    pairs = graph_pairs(c, spec) + [(x, zero) for x in cloud_points(c, spec)]
    witness = nonsupporting_witness(c)
    if witness is not None:
        pairs.append((witness[1], zero))
    inside = set(points_in(fresh(c), spec))
    sampled, placed, _ = placements(monkeypatch)
    looked = counting(monkeypatch, portability, "support_top")
    portability_report(c, spec)
    # The sampler places each candidate in the set once, and hands the
    # report the records of the points it keeps; the cloud and the witness
    # place only the rest.
    assert all(s is c for s, _ in sampled + placed)
    sampled, placed = [x for _, x in sampled], [x for _, x in placed]
    assert len(set(sampled)) == len(sampled) and inside <= set(sampled)
    assert len(set(placed)) == len(placed) and not inside & set(placed)
    assert inside | set(placed) == {x for x, _ in pairs}
    assert sorted(looked) == sorted({(d,) for x, d in pairs if in_portable_hull(c, x)})


def test_report_on_a_closed_box_solves_no_containment_lp(monkeypatch):
    units = [tuple(int(i == j) * sign for i in range(3)) for j in range(3) for sign in (1, -1)]
    box = make_set(3, [(u, 1, False) for u in units])
    solved = counting(monkeypatch, portability, "strict_system_feasible")
    made = counting(monkeypatch, portability, "SupportLP")
    report = portability_report(box, SampleSpec(seed=0, count=8))
    assert solved == made == [] and report.hull_adds_nothing and report.hull_equals_carrier


@pytest.mark.parametrize(
    "kind,c", CASES, ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(CASES)]
)
def test_hull_reports_place_each_sample_once_per_set(kind, c, monkeypatch):
    c, spec = fresh(c), SampleSpec(seed=5, count=8)
    inside = sorted(points_in(fresh(c), spec))
    probes = [fresh(c), closed_as_set(c.carrier)]
    in_probe = [sorted(x for x in inside if contains(probe, x)) for probe in probes]
    sampled, placed, made = placements(monkeypatch)
    hull_extension_report(c, spec)
    # The sampler places each candidate in the set once; the report places
    # each kept point once in the hull and nowhere else.
    (hull_set,) = made
    assert all(t is c for t, _ in sampled) and len(set(sampled)) == len(sampled)
    assert set(inside) <= {x for _, x in sampled}
    assert placed_in(placed, hull_set) == inside and len(placed) == len(inside)
    for probe, want in zip(probes, in_probe):
        for calls in (sampled, placed, made):
            calls.clear()
        partial_hull_report(c, probe, spec)
        # Once in the set by the sampler, once in the probe, and once in the
        # partial hull; only the probe LP's point is placed in the set after.
        (pset,) = made
        assert all(t is c for t, _ in sampled) and len(set(sampled)) == len(sampled)
        assert placed_in(placed, probe) == inside
        got = placed_in(placed, c)
        assert len(got) <= 1
        assert placed_in(placed, pset) == sorted(got + want)
        assert len(placed) == len(inside) + len(got) + len(got + want)


@pytest.mark.parametrize(
    "kind,c", CASES, ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(CASES)]
)
def test_hull_extension_looks_up_each_dual_once(kind, c, monkeypatch):
    c, spec = fresh(c), SampleSpec(seed=5, count=8)
    duals = {d for _, d in graph_pairs(fresh(c), spec)}
    made = []
    real_as_set = portability._canonical_as_set

    def as_set(p):
        made.append(real_as_set(p))
        return made[-1]

    asked = []
    real_maximum = SupportLP.maximum

    def maximum(lp, objective, without=()):
        asked.append((lp, objective))
        return real_maximum(lp, objective, without)

    monkeypatch.setattr(portability, "_canonical_as_set", as_set)
    monkeypatch.setattr(SupportLP, "maximum", maximum)
    got = hull_extension_report(c, spec)
    # Every sampled point lies in the hull, so each distinct dual is asked
    # of the hull's support LP, once.
    (hull_set,) = made
    on_hull = [d for lp, d in asked if lp is hull_set._record.support_lp]
    assert sorted(on_hull) == sorted(duals) and got["graphExtendedOnSamples"]


@pytest.mark.parametrize(
    "kind,c", CASES, ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(CASES)]
)
def test_hull_reports_build_no_polar_support_lp(kind, c, monkeypatch):
    # The sampled normal cones are compared by their generator tuples, so no
    # report builds the polar ``SupportLP`` of ``polyhedra._cone_holds``.
    spec = SampleSpec(seed=5, count=8)
    builders = []
    real = polyhedra.SupportLP

    def made(*args):
        builders.append(sys._getframe(1).f_code.co_name)
        return real(*args)

    monkeypatch.setattr(polyhedra, "SupportLP", made)
    checked = hull_extension_report(c, spec)["conesChecked"]
    for probe in (c, point_set(c.dim, points_in(c, spec))):
        checked += partial_hull_report(c, probe, spec)["conesChecked"]
    assert checked > 0 and "_cone_holds" not in builders


@pytest.mark.parametrize(
    "kind,c", CASES, ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(CASES)]
)
def test_partial_hull_asks_a_trace_lp_per_dropped_row(kind, c, monkeypatch):
    # Probed by itself, the partial hull is the portable hull.  The trace
    # LPs negate the rows it drops, in carrier order, up to the first that
    # finds a witness; the kept rows ask none.
    real = portability.strict_system_feasible
    negated = []

    def solved(system):
        if system != system_of(c) + system_of(c):
            normal, offset, _ = system[-1]
            negated.append((tuple(-q for q in normal), -offset))
        return real(system)

    monkeypatch.setattr(portability, "strict_system_feasible", solved)
    got = partial_hull_report(c, c, SampleSpec(seed=5, count=8))
    dropped = [row for row in c.carrier.rows if row not in got["partialHull"].rows]
    assert negated == dropped[: len(negated)]
    assert len(negated) == len(dropped) if got["traceEqual"] else negated


@pytest.mark.parametrize(
    "kind,c", CASES, ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(CASES)]
)
def test_a_point_set_probe_reads_its_trace_off_the_public_tests(kind, c):
    # The cloud holds points of the set, points of the partial hull outside
    # the set, and points outside both.
    spec = SampleSpec(seed=5, count=8)
    probe = point_set(c.dim, cloud_points(c, spec))
    got = partial_hull_report(c, probe, spec)
    partial = partial_portable_hull(c, probe)
    traced = [p for p in probe.points if closed_contains(partial, p) and not contains(c, p)]
    assert got["partialHull"] == partial
    assert got["traceWitness"] == (traced[0] if traced else None)
    assert got["conesChecked"] == sum(contains(c, p) for p in probe.points)


def test_a_point_set_probe_places_each_point_in_the_set_once(monkeypatch):
    # One ``row_signs`` vector per probe point gives the kept rows, the trace
    # check, the sampled points and their normal cones.
    root = Path(__file__).resolve().parent.parent / "fixtures"
    c = parse_set(json.loads((root / "unit_square.json").read_text(encoding="utf-8")))
    probe = parse_points(json.loads((root / "lower_left_points.json").read_text(encoding="utf-8")))
    real = polyhedra._signs
    placed = []

    def signs(s, ints, den):
        if s is c:
            placed.append(tuple(F(a, den) for a in ints))
        return real(s, ints, den)

    for name, module in list(sys.modules.items()):
        if name.startswith("phk") and getattr(module, "_signs", None) is real:
            monkeypatch.setattr(module, "_signs", signs)
    got = partial_hull_report(c, probe)
    assert sorted(placed) == sorted(probe.points) and len(probe.points) == 3
    assert got["conesChecked"] == 3 and got["ok"]


def test_a_hull_that_drops_an_active_row_fails_the_cone_check(monkeypatch):
    square = make_set(
        2, [((1, 0), 1, False), ((-1, 0), 0, False), ((0, 1), 1, False), ((0, -1), 0, False)]
    )
    spec = SampleSpec(seed=5, count=8)
    real = portability.supporting_rows
    lost = real(square)[0]
    assert any(row_signs(square, x)[lost] == 0 for x in points_in(square, spec))
    monkeypatch.setattr(
        portability, "supporting_rows", lambda s: real(s)[1:] if s is square else real(s)
    )
    got = hull_extension_report(square, spec)
    assert not got["conesPreservedOnSamples"] and not got["ok"]


@pytest.mark.parametrize(
    "kind,c", CASES, ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(CASES)]
)
def test_hull_verdicts_match_the_two_comparisons(kind, c):
    # Any row subset of the carrier holds the set, as the hull does; one
    # that states a strict row reaches that row's offset.
    rows = c.carrier.rows
    rng = random.Random(len(rows))
    subsets = [[r for r in rows if rng.random() < 0.6] for _ in range(12)]
    for kept in [list(rows), *subsets]:
        p = ClosedPolyhedron(c.dim, tuple(kept))
        want = (closed_subset_of(p, c), closed_equal(p, c.carrier))
        assert portability._hull_verdicts(p, c) == want, kept


def test_dedupe_keeps_each_first_occurrence_in_order():
    a, b = (F(1, 2), F(1)), (F(1), F(1, 2))
    first = (F(2, 4), F(1))
    got = sampling._dedupe([first, b, a, b, (1, F(1, 2))])
    assert got == [a, b] and got[0] is first


SHORTCUT_SETS = (
    [c for _, c in CASES]
    + partially_open_sets(12, seed=211)
    + line_free_closed_sets(12, seed=601)
)


@pytest.mark.parametrize("c", SHORTCUT_SETS)
def test_hull_is_the_canonical_form_of_the_supporting_rows(c):
    rows = [c.carrier.rows[i] for i in supporting_rows(c)]
    assert portable_hull(c) == canonicalize(c.dim, rows)


def fraction_filtered_points_in(c, spec: SampleSpec) -> list:
    """``sampling._filtered_points_in`` on ``Fraction``s, as
    ``(x, row_signs or None)``: the witness, vertices and midpoints carry
    the vector that placed them, and the combinations and recession pokes
    None."""
    rng = sampling._rng(spec, "in")
    inner = set_member_witness(c)
    geo = carrier_vrep(c)
    mids = [smul(F(1, 2), vadd(a, b)) for a, b in combinations(geo.vertices, 2)]
    features = [(inner, row_signs(c, inner))]
    for x in sampling._dedupe([inner, *geo.vertices, *mids])[1:]:
        sg = row_signs(c, x)
        if polyhedra.signs_inside(c, sg):
            features.append((x, sg))
    out = list(features)
    base = [x for x, _ in features]
    flat, den = scaled([q for f in base for q in f])
    ints = [flat[i : i + c.dim] for i in range(0, len(flat), c.dim)]
    for _ in range(spec.count):
        weights = [rng.randint(0, 4) for _ in base]
        total = sum(weights)
        if total == 0:
            continue
        point = tuple(
            F(sum(w * f[j] for w, f in zip(weights, ints)), den * total)
            for j in range(c.dim)
        )
        out.append((point, None))
    for r in geo.rays:
        step = F(rng.randint(1, 3), rng.choice((1, 2)))
        out.append((vadd(inner, smul(step, r)), None))
    for l in geo.lineality:
        out.append((vadd(inner, l), None))
        out.append((vsub(inner, l), None))
    kept: dict = {}
    for x, sg in out:
        kept.setdefault(int_key(x), (x, sg))
    return list(kept.values())


def fraction_placed_points_in(c, spec: SampleSpec) -> tuple[list, list]:
    """``fraction_filtered_points_in``'s points and the ``row_signs`` of
    each."""
    placed = fraction_filtered_points_in(c, spec)
    return [x for x, _ in placed], [row_signs(c, x) if sg is None else sg for x, sg in placed]


def fraction_cloud_from(c, spec: SampleSpec, inside: list) -> list:
    """``sampling._cloud_from``'s points on ``Fraction``s, around a
    ``points_in`` list."""
    rng = sampling._rng(spec, "cloud")
    geo = carrier_vrep(c)
    out = list(inside)
    inner = out[0]
    for v in geo.vertices:
        out.append(tuple([2 * a - b for a, b in zip(v, inner)]))
        for j in range(c.dim):
            out.append(v[:j] + (v[j] + 1,) + v[j + 1 :])
            out.append(v[:j] + (v[j] - 1,) + v[j + 1 :])
    for _ in range(spec.count):
        out.append(tuple(sampling._rational(rng) for _ in range(c.dim)))
    return sampling._dedupe(out)


def fraction_duals_at(c, spec: SampleSpec, signs: list) -> list:
    """``sampling._duals_at``'s duals on ``Fraction``s, without their
    integers."""
    rng = sampling._rng(spec, "pairs")
    combos = max(1, spec.count // 8)
    span = max(3, spec.count // 4)
    out = []
    for sg in signs:
        gens = _active_normals(c, sg)
        duals = [zero_vec(c.dim), *gens]
        for _ in range(combos if gens else 0):
            weights = [F(rng.randint(0, span)) for _ in gens]
            combo = zero_vec(c.dim)
            for w, g in zip(weights, gens):
                combo = vadd(combo, smul(w, g))
            duals.append(combo)
        out.append(sampling._dedupe(duals))
    return out


def assert_samplers_match_the_reference(c, spec: SampleSpec) -> None:
    got = sampling._filtered_points_in(c, spec)
    points, signs = fraction_placed_points_in(fresh(c), spec)
    xs = [unscaled(ints, den) for ints, den, _ in got]
    assert xs == points and repr(xs) == repr(points)
    assert [sg for _, _, sg in got] == signs
    cloud = sampling._cloud_from(c, spec, got)
    want = fraction_cloud_from(c, spec, points)
    assert cloud[: len(got)] == got
    xs = [unscaled(ints, den) for ints, den, _ in cloud]
    assert xs == want and repr(xs) == repr(want)
    for x, (ints, den, sg) in zip(want, cloud):
        # Each record is the point in lowest terms, and places it.
        assert den > 0 and gcd(den, *ints) == 1
        assert tuple(F(a, den) for a in ints) == x and sg == row_signs(c, x)
    duals = sampling._duals_at(c, spec, signs)
    want = fraction_duals_at(c, spec, signs)
    got_duals = [[unscaled(d) for d in ds] for ds in duals]
    assert got_duals == want and repr(got_duals) == repr(want)
    # Each dual is its own integers.
    assert all(type(a) is int for ds in duals for d in ds for a in d)


@pytest.mark.parametrize("count", (1, 8, 40))
@pytest.mark.parametrize(
    "kind,c", CASES, ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(CASES)]
)
def test_integer_samplers_match_the_fraction_reference(kind, c, count):
    assert_samplers_match_the_reference(c, SampleSpec(seed=5, count=count))


small = st.integers(-3, 3)
rows_drawn = st.integers(1, 3).flatmap(
    lambda dim: st.lists(
        st.tuples(
            st.tuples(*[small] * dim).filter(any),
            st.builds(F, st.integers(-6, 6), st.integers(1, 3)),
            st.booleans(),
        ),
        min_size=1,
        max_size=5,
    ).map(lambda rows: (dim, rows))
)


@settings(max_examples=60, deadline=None)
@given(rows_drawn, st.integers(0, 99), st.sampled_from((1, 8, 40)))
def test_integer_samplers_match_on_drawn_sets(drawn, seed, count):
    try:
        c = make_set(*drawn)
    except InvalidSetError:
        c = None
    assume(isinstance(c, PartiallyOpenPolyhedron))
    assert_samplers_match_the_reference(c, SampleSpec(seed=seed, count=count))


def term_by_term_points_in(c, spec: SampleSpec) -> list:
    """``points_in`` with each convex combination summed one ``smul`` term
    at a time over ``Fraction`` weights: the reference for the one-pass
    integer combinations."""
    rng = sampling._rng(spec, "in")
    inner = set_member_witness(c)
    geo = carrier_vrep(c)
    features = [inner]
    features += [v for v in geo.vertices if contains(c, v)]
    for a, b in combinations(geo.vertices, 2):
        mid = smul(F(1, 2), vadd(a, b))
        if contains(c, mid):
            features.append(mid)
    out = list(features)
    base = sampling._dedupe(features)
    for _ in range(spec.count):
        weights = [F(rng.randint(0, 4)) for _ in base]
        total = sum(weights)
        if total == 0:
            continue
        p = zero_vec(c.dim)
        for w, f in zip(weights, base):
            p = vadd(p, smul(w / total, f))
        out.append(p)
    for r in geo.rays:
        step = F(rng.randint(1, 3), rng.choice((1, 2)))
        out.append(vadd(inner, smul(step, r)))
    for l in geo.lineality:
        out.append(vadd(inner, l))
        out.append(vsub(inner, l))
    return sampling._dedupe(out)


@pytest.mark.parametrize("count", (8, 40))
@pytest.mark.parametrize("c", SHORTCUT_SETS)
def test_points_in_matches_term_by_term_combinations(c, count):
    spec = SampleSpec(seed=5, count=count)
    got, want = points_in(c, spec), term_by_term_points_in(c, spec)
    assert got == want and repr(got) == repr(want)


def sample_key(sample) -> tuple:
    """A point's ``int_key``, and for a pair (x, x*) the pair of the two
    keys."""
    if isinstance(sample[0], tuple):
        return (int_key(sample[0]), int_key(sample[1]))
    return int_key(sample)


def dedupe_by_sample_key(samples: list) -> list:
    seen = set()
    out = []
    for p in samples:
        key = sample_key(p)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def flat_pair_walk(c, spec: SampleSpec) -> list:
    """``graph_pairs`` as one flat list of (x, x*) pairs, repeats kept:
    the reference for the duals grouped by point.  Without repeats, by
    ``dedupe_by_sample_key``, it is the pair list the report once walked."""
    inside = points_in(c, spec)
    rng = sampling._rng(spec, "pairs")
    combos = max(1, spec.count // 8)
    span = max(3, spec.count // 4)
    pairs = []
    for x in inside:
        gens = normal_cone_at(c, x).generators
        pairs.append((x, zero_vec(c.dim)))
        for g in gens:
            pairs.append((x, g))
        for _ in range(combos if gens else 0):
            weights = [F(rng.randint(0, span)) for _ in gens]
            combo = zero_vec(c.dim)
            for w, g in zip(weights, gens):
                combo = vadd(combo, smul(w, g))
            pairs.append((x, combo))
    return pairs


@pytest.mark.parametrize("count", (8, 40))
@pytest.mark.parametrize("c", SHORTCUT_SETS)
def test_graph_pairs_match_the_flat_pair_walk(c, count):
    spec = SampleSpec(seed=5, count=count)
    want = dedupe_by_sample_key(flat_pair_walk(fresh(c), spec))
    got = graph_pairs(c, spec)
    assert got == want and repr(got) == repr(want)
    assert hull_extension_report(c, spec)["pairsChecked"] == len(want)


def test_the_flat_pair_walk_repeats_pairs():
    spec = SampleSpec(seed=5, count=40)
    walks = [flat_pair_walk(c, spec) for c in SHORTCUT_SETS]
    assert any(len(dedupe_by_sample_key(w)) < len(w) for w in walks)


def test_shortcut_sets_have_rays_and_lines():
    geos = [sampling._carrier_geometry(c) for c in SHORTCUT_SETS]
    assert any(g.rays for g in geos) and any(g.lineality for g in geos)


@pytest.mark.parametrize(
    "kind,c", CASES, ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(CASES)]
)
def test_each_support_lookup_solves_one_support_lp(kind, c, monkeypatch):
    c = fresh(c)
    asked = []
    real_top = portability.support_top

    def recording(s, x):
        asked.append(x)
        return real_top(s, x)

    monkeypatch.setattr(portability, "support_top", recording)
    portability_report(c, SampleSpec(seed=5, count=8))
    monkeypatch.undo()
    duals = list(dict.fromkeys(asked))
    assert duals
    other = fresh(c)
    want = {x: support_value(other, x) for x in duals}

    # A support LP is ``SupportLP.maximum`` on the set's object; the
    # attainment LP is ``strict_system_feasible``.
    owners = {"maximum": SupportLP, "strict_system_feasible": normal_cones}
    calls = {name: 0 for name in owners}
    for name, owner in owners.items():
        real = getattr(owner, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    # Asked again after the report, each dual re-solves: nothing is remembered.
    finite = 0
    for x in duals:
        before = dict(calls)
        assert support_level(c, x) == want[x].value
        assert calls == {**before, "maximum": before["maximum"] + 1}
        before = dict(calls)
        assert support_value(c, x) == want[x]
        finite += want[x].value.is_finite
        assert calls == {
            "maximum": before["maximum"] + 1,
            "strict_system_feasible": before["strict_system_feasible"]
            + want[x].value.is_finite,
        }
    assert finite > 0
