"""Support values, supporting rows, and normal cones for small sets.

Expected numbers marked [DERIVED] were computed by hand from the carrier
geometry (vertex enumeration of intervals/boxes) before the implementation
existed and are frozen here.
"""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from phk import lp
from phk.corpus import partially_open_sets
from phk.errors import InputError, InvalidSetError
from phk.lp import strict_system_feasible
from phk.normal_cones import (
    in_normal_cone,
    in_portable_hull,
    in_range,
    interior_point_of_carrier,
    normal_cone_at,
    set_member_witness,
    strictly_inside,
    support_value,
    supporting_row_witnesses,
    supporting_rows,
)
from phk.polyhedra import (
    EmptySet,
    PartiallyOpenPolyhedron,
    cone_contains,
    contains,
    make_set,
    system_of,
)
from phk.portability import (
    is_portable,
    nonsupporting_witness,
    portable_hull,
    portable_hull_by_faces,
    separation_certificate,
)
from phk.sampling import SampleSpec, cloud_points
from phk.scalars import NEG_INF, POS_INF, fin

F = Fraction


def half_open_interval():
    # (0, 1]
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


def quadrant():
    return make_set(2, [((-1, 0), 0, False), ((0, -1), 0, False)])


class TestSupportValue:
    def test_interval_up(self):
        ev = support_value(half_open_interval(), (1,))
        assert ev.value == fin(1)
        assert ev.attained_in_set
        assert ev.witness == (F(1),)

    def test_interval_down_not_attained(self):
        # sup of -x over (0, 1] is 0, approached but never reached.  [DERIVED]
        ev = support_value(half_open_interval(), (-1,))
        assert ev.value == fin(0)
        assert not ev.attained_in_set
        assert ev.witness is None

    def test_square_diagonal(self):
        ev = support_value(unit_square(), (1, 1))
        assert ev.value == fin(2)
        assert ev.attained_in_set
        assert ev.witness == (F(1), F(1))

    def test_unbounded_direction(self):
        ev = support_value(quadrant(), (1, 0))
        assert ev.value is POS_INF
        assert not ev.attained_in_set

    def test_zero_direction(self):
        ev = support_value(half_open_interval(), (0,))
        assert ev.value == fin(0)
        assert ev.attained_in_set

    def test_empty_set(self):
        assert support_value(EmptySet(2), (1, 1)).value is NEG_INF

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            support_value(unit_square(), (1,))
        with pytest.raises(InputError):
            support_value(EmptySet(2), (1,))


class TestSupportingRows:
    def test_half_open_interval_loses_a_row(self):
        # Carrier rows in canonical order: -x <= 0, then x <= 1.  The first
        # hyperplane only touches the carrier at 0, which the strict row
        # removes, so only the second row supports.  [DERIVED]
        c = half_open_interval()
        assert supporting_rows(c) == (1,)
        ((idx, witness),) = supporting_row_witnesses(c)
        assert idx == 1
        assert witness == (F(1),)

    def test_closed_square_keeps_all_rows(self):
        c = unit_square()
        assert supporting_rows(c) == (0, 1, 2, 3)
        for i, w in supporting_row_witnesses(c):
            normal, offset = c.carrier.rows[i]
            assert contains(c, w)
            assert sum(n * q for n, q in zip(normal, w)) == offset

    def test_whole_space_has_no_rows(self):
        c = make_set(2, [])
        assert supporting_rows(c) == ()


class TestPortableHullMembership:
    def test_interval_hull_is_a_ray(self):
        c = half_open_interval()
        assert in_portable_hull(c, (F(-5),))
        assert in_portable_hull(c, (F(1),))
        assert not in_portable_hull(c, (F(2),))

    def test_empty_set_hull_is_everything(self):
        assert in_portable_hull(EmptySet(3), (F(9), F(9), F(9)))

    def test_square(self):
        c = unit_square()
        assert in_portable_hull(c, (F(1, 2), F(1, 2)))
        assert not in_portable_hull(c, (F(2), F(0)))


class TestNormalCones:
    def test_corner_cone(self):
        cone = normal_cone_at(unit_square(), (1, 1))
        assert cone_contains(cone, (1, 0))
        assert cone_contains(cone, (0, 1))
        assert cone_contains(cone, (3, 5))
        assert not cone_contains(cone, (-1, 0))

    def test_interior_cone_is_trivial(self):
        cone = normal_cone_at(unit_square(), (F(1, 2), F(1, 2)))
        assert cone.generators == ()
        assert cone_contains(cone, (0, 0))
        assert not cone_contains(cone, (1, 0))

    def test_edge_cone(self):
        cone = normal_cone_at(unit_square(), (1, F(1, 2)))
        assert cone_contains(cone, (1, 0))
        assert not cone_contains(cone, (1, 1))

    def test_outside_point_rejected(self):
        with pytest.raises(InputError):
            normal_cone_at(unit_square(), (2, 0))
        # The removed endpoint of (0, 1] is outside the set.
        with pytest.raises(InputError):
            normal_cone_at(half_open_interval(), (0,))

    def test_graph_membership(self):
        c = unit_square()
        assert in_normal_cone(c, (1, 1), (1, 1))
        assert in_normal_cone(c, (F(1, 2), F(1, 2)), (0, 0))
        assert not in_normal_cone(c, (F(1, 2), F(1, 2)), (1, 0))
        assert not in_normal_cone(c, (2, 0), (1, 0))

    def test_graph_membership_interval(self):
        c = half_open_interval()
        assert in_normal_cone(c, (1,), (1,))
        assert not in_normal_cone(c, (F(1, 2),), (1,))
        # 0 is not in the set, so no dual vector pairs with it.
        assert not in_normal_cone(c, (0,), (-1,))


class TestRange:
    def test_unattained_direction_not_in_range(self):
        assert not in_range(half_open_interval(), (-1,))
        assert support_value(half_open_interval(), (-1,)).witness is None

    def test_attained_direction(self):
        assert in_range(half_open_interval(), (1,))
        assert support_value(half_open_interval(), (1,)).witness == (F(1),)

    def test_unbounded_direction(self):
        assert not in_range(quadrant(), (1, 1))


class TestPointQueries:
    def test_interior_point_of_carrier(self):
        p = interior_point_of_carrier(unit_square())
        assert p is not None
        assert strictly_inside(unit_square(), p)

    def test_lower_dimensional_carrier_has_no_interior(self):
        point = make_set(1, [((1,), 0, False), ((-1,), 0, False)])
        assert interior_point_of_carrier(point) is None

    def test_whole_space(self):
        c = make_set(2, [])
        assert interior_point_of_carrier(c) == (F(0), F(0))
        assert strictly_inside(c, (F(7), F(-7)))

    def test_member_witness(self):
        for c in (half_open_interval(), unit_square(), quadrant()):
            assert contains(c, set_member_witness(c))


@st.composite
def boxes_with_extras(draw):
    dim = draw(st.integers(min_value=1, max_value=2))
    rows = []
    for j in range(dim):
        e = [0] * dim
        e[j] = 1
        rows.append((tuple(e), draw(st.integers(1, 3)), draw(st.booleans())))
        rows.append(
            (tuple(-q for q in e), draw(st.integers(1, 3)), draw(st.booleans()))
        )
    for _ in range(draw(st.integers(0, 1))):
        normal = tuple(
            draw(st.integers(-2, 2)) for _ in range(dim)
        )
        if any(normal):
            rows.append((normal, draw(st.integers(1, 4)), draw(st.booleans())))
    try:
        return make_set(dim, rows)
    except Exception:
        return None


small_duals = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    min_size=1,
    max_size=2,
)


@settings(max_examples=40, deadline=None)
@given(boxes_with_extras(), small_duals)
def test_support_homogeneity_and_attainment(c, d):
    if not isinstance(c, PartiallyOpenPolyhedron) or len(d) != c.dim:
        return
    d = tuple(d)
    ev = support_value(c, d)
    doubled = support_value(c, tuple(2 * q for q in d))
    assert doubled.value == ev.value.scale(2)
    if ev.attained_in_set:
        assert contains(c, ev.witness)
        assert fin(sum(n * q for n, q in zip(d, ev.witness))) == ev.value


@settings(max_examples=40, deadline=None)
@given(boxes_with_extras(), small_duals, small_duals)
def test_support_subadditive(c, u, v):
    if not isinstance(c, PartiallyOpenPolyhedron):
        return
    if len(u) != c.dim or len(v) != c.dim:
        return
    u, v = tuple(u), tuple(v)
    s = support_value(c, tuple(a + b for a, b in zip(u, v))).value
    su = support_value(c, u).value
    sv = support_value(c, v).value
    assert s <= su + sv


@settings(max_examples=40, deadline=None)
@given(boxes_with_extras())
def test_supporting_row_witnesses_lie_on_their_rows(c):
    if not isinstance(c, PartiallyOpenPolyhedron):
        return
    for i, w in supporting_row_witnesses(c):
        normal, offset = c.carrier.rows[i]
        assert contains(c, w)
        assert sum(n * q for n, q in zip(normal, w)) == offset


@st.composite
def shaped_sets(draw):
    """Valid sets in 1-3 D of five shapes: closed, partially open, lower
    dimensional (a row and its negation), with lineality (normals that skip
    the last coordinate) and the whole space."""
    n = draw(st.integers(min_value=1, max_value=3))
    shape = draw(st.sampled_from(["closed", "open", "flat", "lines", "space"]))
    width = n - 1 if shape == "lines" and n > 1 else n
    normal = st.lists(st.integers(-2, 2), min_size=width, max_size=width).map(
        lambda a: tuple(a) + (0,) * (n - width)
    )
    strict = st.just(False) if shape == "closed" else st.booleans()
    rows = []
    if shape != "space":
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            rows.append((draw(normal), draw(st.integers(min_value=0, max_value=3)), draw(strict)))
    if shape == "flat":
        a = draw(normal.filter(any))
        rows += [(a, 0, False), (tuple(-q for q in a), 0, False)]
    try:
        c = make_set(n, rows)
    except InvalidSetError:
        c = None
    assume(isinstance(c, PartiallyOpenPolyhedron))
    return c


# ``shaped_sets`` and, by seed, one corpus set with some strict row.
drawn_sets = st.one_of(
    shaped_sets(),
    st.integers(min_value=0, max_value=10**6).map(
        lambda seed: partially_open_sets(1, seed, force_strict=True)[0]
    ),
)


def counting_lp(patch):
    """Count ``lp_solve`` calls from here on, through any module."""
    calls = []
    real = lp.lp_solve

    def counted(p):
        calls.append(p)
        return real(p)

    patch.setattr(lp, "lp_solve", counted)
    return calls


@settings(max_examples=200)
@given(shaped_sets())
def test_supporting_rows_agree_with_the_witnesses_and_the_faces(c):
    with pytest.MonkeyPatch.context() as patch:
        calls = counting_lp(patch)
        rows = supporting_rows(c)
    # No set solves an LP for its supporting rows.
    assert calls == []
    # Every supporting row gets a witness point.
    assert rows == tuple(i for i, _ in supporting_row_witnesses(c))
    assert portable_hull_by_faces(c).rows == tuple(c.carrier.rows[i] for i in rows)
    # One probe LP per row, strict rows included, as every row was once tested.
    probed = tuple(
        i
        for i, (a, b) in enumerate(c.carrier.rows)
        if strict_system_feasible(system_of(c) + ((tuple(-q for q in a), -b, False),)) is not None
    )
    assert rows == probed


def test_a_set_finds_its_supporting_rows_without_an_lp(forbid_lp):
    line = make_set(2, [((1, 0), 0, False), ((-1, 0), 0, False)])
    sets = [unit_square(), quadrant(), line, make_set(3, []), half_open_interval()]
    sets += partially_open_sets(6, seed=5, force_strict=True)
    forbid_lp()
    for c in sets:
        weak = tuple(i for i in range(len(c.carrier.rows)) if i not in c.strict_rows)
        assert supporting_rows(c) == weak
        assert portable_hull(c).rows == tuple(c.carrier.rows[i] for i in weak)
        x = (F(2),) * c.dim
        below = [sum(a * q for a, q in zip(n, x)) <= o for n, o in portable_hull(c).rows]
        assert in_portable_hull(c, x) == all(below)
        if not c.strict_rows:
            assert nonsupporting_witness(c) is None


@settings(max_examples=100)
@given(drawn_sets)
def test_the_portable_hull_is_the_weak_rows(c):
    # Two laws of valid sets: the supporting rows are the weak rows, and the
    # set is portable exactly when it has no strict row.
    weak = tuple(row for i, row in enumerate(c.carrier.rows) if i not in c.strict_rows)
    assert portable_hull_by_faces(c).rows == weak
    assert is_portable(c) == (not c.strict_rows)


def reference_certificate(witnesses, c, x):
    """The first row, in ``supporting_row_witnesses`` order, that x
    violates: (normal, its witness point, the margin), or None."""
    for i, w in witnesses:
        normal, offset = c.carrier.rows[i]
        value = sum(a * q for a, q in zip(normal, x))
        if value > offset:
            return normal, w, value - offset
    return None


@settings(max_examples=60)
@given(drawn_sets, st.integers(min_value=0, max_value=50))
def test_separation_solves_one_witness_lp(c, seed):
    witnesses = supporting_row_witnesses(c)
    outside = [x for x in cloud_points(c, SampleSpec(seed=seed, count=4)) if not contains(c, x)]
    for x in outside:
        with pytest.MonkeyPatch.context() as patch:
            calls = counting_lp(patch)
            cert = separation_certificate(c, x)
        # One LP for the violated row's witness, none when no row separates.
        assert len(calls) == (cert is not None)
        got = cert and (cert.normal, cert.support_point, cert.margin)
        assert got == reference_certificate(witnesses, c, x)


def test_strict_rows_cost_no_witness_lp(monkeypatch):
    # [0, 1) x (0, 1] cut by a weak diagonal that misses the set's corner.
    c = make_set(
        2,
        [
            ((1, 0), 1, True),
            ((-1, 0), 0, False),
            ((0, 1), 1, False),
            ((0, -1), 0, True),
            ((1, 1), F(3, 2), False),
        ],
    )
    assert len(c.carrier.rows) == 5 and len(c.strict_rows) == 2
    calls = counting_lp(monkeypatch)
    witnesses = supporting_row_witnesses(c)
    assert len(calls) == 3
    assert [c.carrier.rows[i] for i, _ in witnesses] == [
        row for row in c.carrier.rows if row[0] in {(-1, 0), (0, 1), (1, 1)}
    ]
