"""The carrier's generators on integers, against the ``Fraction`` reference.

``polyhedra._generators`` walks a polyhedron's rows on integers and returns
an ``IntVRep``: the vertices over one least common denominator, in sorted
order, and the rays and lineality as primitive integer tuples.  Turned into
``Fraction``s, it must equal ``reference_h_to_v`` in content and in order,
since the samplers' base order, and so every sampled byte, depends on the
order.  The report's sampled route reads the integers as they are and
builds no ``Fraction`` ``VRep``.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings

from phk import polyhedra
from phk.faces import enumerate_faces
from phk.lp import max_value
from phk.polyhedra import (
    IntVRep,
    carrier_generators,
    carrier_vrep,
    h_to_v,
    make_set,
    space,
    whole_set,
)
from phk.portability import hull_extension_report, line_free_report, portability_report
from phk.sampling import SampleSpec
from test_polyhedra import degenerate_systems, reference_generators
from test_portability_reference import CASES, SHORTCUT_SETS, fresh

# Carriers that are lower-dimensional, or have rays or lines.
SHAPED = {
    "segment": [((1, 1), 1, False), ((-1, -1), -1, False), ((1, 0), 1, False), ((-1, 0), 0, False)],
    "point-in-3d": [((1, 0, 0), 0, False), ((-1, 0, 0), 0, False), ((0, 1, 0), 1, False),
                    ((0, -1, 0), -1, False), ((0, 0, 1), 2, False), ((0, 0, -1), -2, False)],
    "triangle-in-3d": [((0, 0, 1), 1, False), ((0, 0, -1), -1, False), ((-1, 0, 0), 0, False),
                       ((0, -1, 0), 0, False), ((1, 1, 0), 1, False)],
    "quadrant": [((-1, 0), 0, False), ((0, -1), 0, True)],
    "wedge": [((1, -2), 3, False), ((-3, 1), "1/2", False)],
    "slab": [((1, 0), 1, True), ((-1, 0), 0, False)],
    "tilted-slab": [((2, 3), 5, False), ((-2, -3), "1/3", False)],
    "prism-with-line": [((1, 1, 0), 2, False), ((-1, 0, 0), 0, True), ((0, -1, 0), "1/2", False)],
    "half-plane-in-3d": [((1, 2, 3), 4, False)],
    "ray-in-plane": [((0, 1, 0), 1, False), ((0, -1, 0), -1, False), ((-1, 0, 0), "2/3", False),
                     ((0, 0, 1), 0, False), ((0, 0, -1), 0, False)],
}

CARRIERS = (
    [(f"case-{i}", c.carrier) for i, (_, c) in enumerate(CASES)]
    + [(f"shortcut-{i}", c.carrier) for i, c in enumerate(SHORTCUT_SETS)]
    + [(name, make_set(len(rows[0][0]), rows).carrier) for name, rows in SHAPED.items()]
    + [(f"space-{d}", space(d)) for d in range(1, 7)]
)


def as_fractions(g: IntVRep) -> polyhedra.VRep:
    """The integer generators as ``Fraction``s, by hand."""
    return polyhedra.VRep(
        tuple(tuple(Fraction(a, g.den) for a in v) for v in g.vertices),
        tuple(tuple(Fraction(a) for a in r) for r in g.rays),
        tuple(tuple(Fraction(a) for a in l) for l in g.lineality),
    )


def assert_integer_generators(g: IntVRep) -> None:
    """Integers throughout; the least common denominator, sorted vertices;
    primitive rays and lines, each line's first nonzero entry positive."""
    entries = [a for group in (g.vertices, g.rays, g.lineality) for v in group for a in v]
    assert type(g.den) is int and g.den > 0 and all(type(a) is int for a in entries)
    assert gcd(g.den, *[a for v in g.vertices for a in v]) == 1
    assert list(g.vertices) == sorted(g.vertices)
    for r in (*g.rays, *g.lineality):
        assert gcd(*r) == 1
    assert all(next(a for a in l if a) > 0 for l in g.lineality)


def assert_matches_the_reference(p) -> None:
    g = polyhedra._generators(p)
    assert_integer_generators(g)
    got, want = as_fractions(g), reference_generators(h_to_v, p)
    assert got == want and repr(got) == repr(want)
    assert polyhedra._fraction_vrep(g) == got and h_to_v(p) == got


@pytest.mark.parametrize("name,p", CARRIERS, ids=[name for name, _ in CARRIERS])
def test_integer_generators_match_the_fraction_reference(name, p):
    assert_matches_the_reference(p)


def test_the_carriers_cover_every_shape():
    gens = [polyhedra._generators(p) for _, p in CARRIERS]
    lower = [p for _, p in CARRIERS if set(p.rows) & {(tuple(-a for a in n), -o) for n, o in p.rows}]
    assert lower and any(g.rays for g in gens) and any(g.lineality and g.rays for g in gens)
    assert any(g.den > 1 for g in gens) and any(g.lineality and not g.rays for g in gens)


@settings(max_examples=200)
@given(degenerate_systems())
def test_integer_generators_match_on_drawn_systems(p):
    if max_value((Fraction(0),) * p.dim, p.rows) is not None:
        assert_matches_the_reference(p)


@pytest.mark.parametrize("d", range(1, 7))
def test_the_whole_space_is_the_origin_and_the_unit_lines(d):
    units = tuple(tuple(int(i == j) for i in range(d)) for j in range(d))
    assert carrier_generators(whole_set(d)) == IntVRep(((0,) * d,), 1, (), units)


def test_the_record_keeps_the_integers_and_the_api_returns_fractions():
    c = make_set(2, [((1, 0), 1, True), ((0, 1), "1/3", False), ((-1, -1), 0, False)])
    g = carrier_generators(c)
    assert c._record.vrep is g and carrier_generators(c) is g
    v = carrier_vrep(c)
    assert v == as_fractions(g) and all(type(a) is Fraction for x in v.vertices for a in x)


def counting_fraction_vreps(monkeypatch) -> list:
    """Record each ``Fraction`` ``VRep`` made from integer generators."""
    made = []
    real = polyhedra._fraction_vrep

    def counted(g):
        made.append(g)
        return real(g)

    monkeypatch.setattr(polyhedra, "_fraction_vrep", counted)
    return made


@pytest.mark.parametrize("kind,c", CASES, ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(CASES)])
def test_the_sampled_reports_build_no_fraction_vrep(kind, c, monkeypatch):
    c, spec = fresh(c), SampleSpec(seed=5, count=8)
    made = counting_fraction_vreps(monkeypatch)
    portability_report(c, spec)
    hull_extension_report(c, spec)
    assert made == [] and c._record.vrep is not None


def test_the_face_route_builds_one_fraction_vrep_per_call(monkeypatch):
    c = make_set(2, [((-1, 0), 0, False), ((0, -1), 0, True), ((1, 1), 2, False)])
    made = counting_fraction_vreps(monkeypatch)
    enumerate_faces(c)
    enumerate_faces(c)
    assert made == [c._record.vrep]
    line_free_report(polyhedra.closed_as_set(c.carrier), SampleSpec(seed=0, count=4))
    assert len(made) == 2
