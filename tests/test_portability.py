"""Hulls, portability verdicts, separation certificates, and reports."""
import json
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from phk.corpus import (
    line_free_closed_sets,
    partially_open_sets,
    probe_point_sets,
    probe_polyhedra,
    random_polytopes,
)
from phk.errors import InputError
from phk.polyhedra import (
    ClosedPolyhedron,
    EmptySet,
    PartiallyOpenPolyhedron,
    canonicalize,
    closed_as_set,
    closed_contains,
    closed_subset_of,
    contains,
    make_set,
    space,
)
from phk.normal_cones import supporting_row_witnesses
from phk.portability import (
    boundary_support_report,
    hull_extension_report,
    is_portable,
    line_free_report,
    nonsupporting_witness,
    partial_hull_report,
    partial_portable_hull,
    partial_supporting_rows,
    point_set,
    portability_report,
    portable_hull,
    portable_hull_by_faces,
    separation_certificate,
    verify_certificate,
)
from phk.sampling import SampleSpec, cloud_points
from phk.serialize import parse_points, parse_set

F = Fraction


def half_open_interval():
    return make_set(1, [((-1,), 0, True), ((1,), 1, False)])


def unit_square():
    return make_set(
        2,
        [
            ((1, 0), 1, False),
            ((-1, 0), 0, False),
            ((0, 1), 1, False),
            ((0, -1), 0, False),
        ],
    )


def open_square():
    return make_set(
        2,
        [
            ((1, 0), 1, True),
            ((-1, 0), 0, False),
            ((0, 1), 1, True),
            ((0, -1), 0, False),
        ],
    )


class TestPortableHull:
    def test_half_open_interval(self):
        # The hull of (0, 1] drops the lower bound entirely.  [DERIVED]
        h = portable_hull(half_open_interval())
        assert h == ClosedPolyhedron(1, (((F(1),), F(1)),))

    def test_closed_sets_are_fixed_points(self):
        c = unit_square()
        h = portable_hull(c)
        assert closed_subset_of(h, c)
        assert closed_subset_of(c.carrier, closed_as_set(h))

    def test_empty_set_hull_is_the_space(self):
        assert portable_hull(EmptySet(2)) == space(2)
        assert portable_hull_by_faces(EmptySet(2)) == space(2)

    def test_two_routes_agree_on_fixtures(self):
        for c in (
            half_open_interval(),
            unit_square(),
            open_square(),
            make_set(2, [((-1, 0), 0, False), ((0, -1), 0, True)]),
            make_set(2, [((1, 0), 1, False), ((-1, 0), 1, False)]),
        ):
            assert portable_hull(c) == portable_hull_by_faces(c)

    def test_two_routes_agree_on_corpus(self):
        for c in partially_open_sets(12, seed=5):
            assert portable_hull(c) == portable_hull_by_faces(c)

    def test_hull_contains_the_set(self):
        for c in partially_open_sets(10, seed=7):
            h = portable_hull(c)
            for x in cloud_points(c, SampleSpec(seed=1, count=8)):
                if contains(c, x):
                    assert closed_contains(h, x)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@cache
def _fixtures():
    """Every fixture that is a set or a point set, parsed as the CLI does."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if "points" in doc:
            out.append(parse_points(doc))
        elif "pairs" not in doc:
            out.append(parse_set(doc))
    return tuple(out)


@cache
def _premise_sets():
    sets = (
        random_polytopes(9, seed=71)
        + partially_open_sets(9, seed=72)
        + partially_open_sets(6, seed=73, force_strict=True)
        + line_free_closed_sets(9, seed=74)
        + list(_fixtures())
    )
    return tuple(c for c in sets if isinstance(c, PartiallyOpenPolyhedron))


def _premise_probes(c):
    """Corpus and fixture probes of the set's dimension, the empty set, and
    the set's own supporting-row witnesses, which keep rows."""
    own = point_set(c.dim, [w for _, w in supporting_row_witnesses(c)])
    others = probe_point_sets(6, seed=75) + probe_polyhedra(6, seed=76) + list(_fixtures())
    return [EmptySet(c.dim), own] + [s for s in others if s.dim == c.dim]


class TestHullsAreCarrierRowSubsets:
    """The hulls keep carrier rows without canonicalizing them; that is
    sound only if the kept rows are already canonical."""

    def test_hulls_equal_their_canonical_form(self):
        checked = 0
        for c in _premise_sets():
            hulls = [portable_hull(c), portable_hull_by_faces(c)]
            hulls += [partial_portable_hull(c, s) for s in _premise_probes(c)]
            for h in hulls:
                assert h == canonicalize(c.dim, h.rows)
                checked += 1
        assert checked >= 300

    def test_a_point_set_partial_hull_solves_no_lp(self, forbid_lp):
        # Finding the witnesses validates each set, so the hulls below start
        # from validated sets and only the hull itself could solve an LP.
        probes = [
            (c, point_set(c.dim, [w for _, w in supporting_row_witnesses(c)]))
            for c in _premise_sets()
        ]
        forbid_lp()
        kept = sum(len(partial_portable_hull(c, s).rows) for c, s in probes)
        assert kept > 0


class TestIsPortable:
    def test_examples(self):
        assert is_portable(unit_square())
        assert not is_portable(half_open_interval())
        assert not is_portable(open_square())
        assert not is_portable(EmptySet(1))
        assert is_portable(make_set(2, []))

    def test_strict_facet_rules_out_portability(self):
        for c in partially_open_sets(10, seed=3, force_strict=True):
            assert c.strict_rows
            assert not is_portable(c)

    def test_closed_polytopes_are_portable(self):
        for c in random_polytopes(10, seed=11):
            assert is_portable(c)


class TestNonsupportingWitness:
    def test_closed_square_has_none(self):
        assert nonsupporting_witness(unit_square()) is None

    def test_half_open_interval(self):
        got = nonsupporting_witness(half_open_interval())
        assert got is not None
        row, point = got
        assert row == 0
        assert point == (F(0),)
        # The witness certifies the gap: in the hull, not in the set.
        assert closed_contains(portable_hull(half_open_interval()), point)
        assert not contains(half_open_interval(), point)


class TestSeparation:
    def test_certificate_beyond_the_kept_row(self):
        c = half_open_interval()
        cert = separation_certificate(c, (2,))
        assert cert is not None
        assert cert.normal == (F(1),)
        assert cert.support_point == (F(1),)
        assert cert.margin == F(1)
        assert verify_certificate(c, (2,), cert)

    def test_no_certificate_inside_the_hull(self):
        # -1/2 is outside (0, 1] but inside its hull, so no supporting
        # half-space separates it.
        assert separation_certificate(half_open_interval(), (F(-1, 2),)) is None

    def test_member_point_rejected(self):
        with pytest.raises(InputError):
            separation_certificate(unit_square(), (F(1, 2), F(1, 2)))

    def test_tampered_certificates_fail(self):
        c = half_open_interval()
        cert = separation_certificate(c, (2,))
        bad_margin = type(cert)(cert.normal, cert.support_point, cert.margin + 1)
        assert not verify_certificate(c, (2,), bad_margin)
        bad_support = type(cert)(cert.normal, (F(1, 2),), cert.margin)
        assert not verify_certificate(c, (2,), bad_support)
        bad_normal = type(cert)((F(-1),), cert.support_point, cert.margin)
        assert not verify_certificate(c, (2,), bad_normal)
        # A point of the wrong dimension is rejected before any check, as by
        # ``separation_certificate``.
        square = unit_square()
        cert = separation_certificate(square, (2, 0))
        for bad in (cert, type(cert)(cert.normal, (F(2), F(0)), cert.margin)):
            with pytest.raises(InputError, match="vector has dimension 3, expected 2"):
                verify_certificate(square, (2, 0, 0), bad)
        with pytest.raises(InputError, match="vector has dimension 3, expected 2"):
            separation_certificate(square, (2, 0, 0))

    def test_certificates_verify_across_corpus(self):
        for c in partially_open_sets(8, seed=13):
            hull = portable_hull(c)
            for x in cloud_points(c, SampleSpec(seed=2, count=8)):
                if contains(c, x):
                    continue
                cert = separation_certificate(c, x)
                if closed_contains(hull, x):
                    assert cert is None
                else:
                    assert cert is not None and verify_certificate(c, x, cert)


class TestPortabilityReport:
    def test_closed_square_all_conditions_hold(self):
        r = portability_report(unit_square(), SampleSpec(seed=0, count=10))
        assert r.maximal_on_samples
        assert r.coupling_identity_on_samples
        assert r.hull_adds_nothing
        assert r.hull_equals_carrier
        assert r.failure_pair is None
        assert r.related_pairs_checked > 0
        assert r.identity_pairs_checked > 0

    def test_open_square_all_conditions_fail(self):
        r = portability_report(open_square(), SampleSpec(seed=0, count=10))
        assert not r.maximal_on_samples
        assert not r.coupling_identity_on_samples
        assert not r.hull_adds_nothing
        assert not r.hull_equals_carrier
        assert r.failure_pair is not None
        x, xstar = r.failure_pair
        # The targeted witness pairs a hull-only point with the zero dual.
        assert xstar == (F(0), F(0))
        assert not contains(open_square(), x)

    def test_four_conditions_agree_on_corpus(self):
        for c in partially_open_sets(10, seed=17):
            r = portability_report(c, SampleSpec(seed=0, count=6))
            verdicts = {
                r.maximal_on_samples,
                r.coupling_identity_on_samples,
                r.hull_adds_nothing,
                r.hull_equals_carrier,
            }
            assert len(verdicts) == 1


class TestHullExtension:
    def test_half_open_interval_extends_cleanly(self):
        r = hull_extension_report(half_open_interval(), SampleSpec(seed=0, count=8))
        assert r["ok"]
        assert r["idempotent"]
        assert r["hullPortable"]
        assert r["hullContainsClosure"]
        assert r["conesPreservedOnSamples"]
        assert r["graphExtendedOnSamples"]

    def test_corpus(self):
        for c in partially_open_sets(8, seed=19):
            assert hull_extension_report(c, SampleSpec(seed=0, count=5))["ok"]


class TestPartialHull:
    def test_finite_probe_set(self):
        c = unit_square()
        s = point_set(2, [(0, 0), (F(1, 2), F(0))])
        # Only the rows whose hyperplanes pass through a probe point stay.
        kept = partial_supporting_rows(c, s)
        rows = [c.carrier.rows[i] for i in kept]
        # (0,0) lies on both lower facets, (1/2, 0) only on one of them.
        assert sorted(rows) == [((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0))]
        h = partial_portable_hull(c, s)
        assert closed_contains(h, (F(5), F(0)))
        assert not closed_contains(h, (F(0), F(-1)))

    def test_polyhedral_probe_set(self):
        c = half_open_interval()
        s = make_set(1, [((1,), 0, False)])  # (-inf, 0]
        # S meets the set only where x > 0 fails, so no row survives.
        assert partial_supporting_rows(c, s) == ()
        assert partial_portable_hull(c, s) == space(1)

    def test_empty_probe_set(self):
        assert partial_portable_hull(unit_square(), EmptySet(2)) == space(2)

    def test_full_probe_recovers_the_hull(self):
        for c in partially_open_sets(8, seed=23):
            assert partial_portable_hull(c, make_set(c.dim, [])) == portable_hull(c)

    def test_report_detects_trace_mismatch(self):
        c = half_open_interval()
        s = make_set(1, [((1,), 0, False)])
        r = partial_hull_report(c, s, SampleSpec(seed=0, count=6))
        assert not r["traceEqual"]
        assert r["traceWitness"] is not None
        assert not r["graphsAgreeOnTrace"]
        assert r["restrictionBiconditional"]
        assert r["collapse"]
        assert r["ok"]

    def test_report_on_matching_trace(self):
        c = unit_square()
        s = make_set(2, [((0, 1), 0, False)])  # lower half-plane
        r = partial_hull_report(c, s, SampleSpec(seed=0, count=6))
        assert r["traceEqual"]
        assert r["graphsAgreeOnTrace"]
        assert r["restrictionBiconditional"]
        assert r["ok"]

    def test_probe_dimension_mismatch(self):
        with pytest.raises(InputError):
            partial_portable_hull(unit_square(), point_set(1, [(0,)]))


class TestLineFreeReport:
    def test_square(self):
        r = line_free_report(unit_square(), SampleSpec(seed=0, count=8))
        assert r["lineFree"] and r["portable"] and r["bounded"]
        assert r["boundedAttainsAll"]
        assert r["domainMatchesRange"]
        assert r["ok"]

    def test_quadrant(self):
        quadrant = make_set(2, [((-1, 0), 0, False), ((0, -1), 0, False)])
        r = line_free_report(quadrant, SampleSpec(seed=0, count=8))
        assert r["lineFree"] and r["portable"] and not r["bounded"]
        assert r["domainMatchesRange"]
        assert r["ok"]

    def test_slab_has_a_line_but_is_still_portable(self):
        slab = make_set(2, [((1, 0), 1, False), ((-1, 0), 1, False)])
        r = line_free_report(slab, SampleSpec(seed=0, count=8))
        assert not r["lineFree"]
        assert r["lineFreeImpliesPortable"]
        assert r["ok"]

    def test_strict_rows_rejected(self):
        with pytest.raises(InputError):
            line_free_report(half_open_interval())


class TestBoundarySupport:
    def test_square(self):
        r = boundary_support_report(unit_square(), SampleSpec(seed=0, count=8))
        assert r["ok"] and r["sampled"] > 0 and not r["vacuous"]

    def test_whole_space_is_vacuous(self):
        r = boundary_support_report(make_set(2, []))
        assert r["ok"] and r["vacuous"] and r["sampled"] == 0

    def test_corpus(self):
        for c in partially_open_sets(8, seed=29):
            assert boundary_support_report(c, SampleSpec(seed=0, count=5))["ok"]
