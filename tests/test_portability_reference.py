"""``portability_report`` against a rebuild from the public predicates.

The report reads every sample pair from one ``row_signs`` vector and one
support lookup.  The reference below rebuilds the same report the long way,
one public predicate per condition: the closed-form coupling
``normal_cone_fitzpatrick``, ``contains`` with ``support_value``,
``monotonically_related`` and ``in_normal_cone``, over ``graph_pairs``,
``cloud_points`` and the nonsupporting witness.  Every field must agree,
the failure pair included.
"""
from __future__ import annotations

import random
import sys
from dataclasses import fields
from fractions import Fraction

import pytest

from phk import sampling
from phk.corpus import line_free_closed_sets, partially_open_sets
from phk.fitzpatrick import monotonically_related, normal_cone_fitzpatrick
from phk.normal_cones import in_normal_cone, support_value
from phk.polyhedra import closed_as_set, closed_subset_of, contains, make_set
from phk.portability import (
    PortabilityReport,
    hull_extension_report,
    nonsupporting_witness,
    portability_report,
    portable_hull,
)
from phk.sampling import SampleSpec, cloud_points, graph_pairs
from phk.scalars import POS_INF

F = Fraction


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
    want = reference_report(c, spec)
    for field in fields(PortabilityReport):
        assert getattr(got, field.name) == getattr(want, field.name), field.name
    assert got.related_pairs_checked > 0


def test_the_cases_include_failing_reports():
    spec = SampleSpec(seed=5, count=8)
    verdicts = {portability_report(c, spec).failure_pair is None for _, c in CASES}
    assert verdicts == {True, False}


def test_each_report_samples_the_set_once(monkeypatch):
    real = sampling.points_in
    handed: list[list] = []

    def counted(c, spec):
        handed.append(real(c, spec))
        return handed[-1]

    # Rebind every module's name for the sampler, as ``from`` imports hold
    # their own reference.
    for name, mod in list(sys.modules.items()):
        if name.startswith("phk") and getattr(mod, "points_in", None) is real:
            monkeypatch.setattr(mod, "points_in", counted)
    c = make_set(2, [((1, 0), 1, True), ((-1, 0), 0, False), ((0, 1), 1, False), ((0, -1), 0, False)])
    spec = SampleSpec(seed=0, count=8)
    portability_report(c, spec)
    assert len(handed) == 1
    hull_extension_report(c, spec)
    assert len(handed) == 2
    # The graph pairs and the cloud grow from the list without changing it.
    fresh = real(c, spec)
    assert handed == [fresh, fresh]
