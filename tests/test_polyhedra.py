from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phk.errors import InputError, InvalidSetError, ScaleLimitError
from phk.fme import fm_feasible, fm_maximize
from phk import polyhedra
from phk.linalg import dot, nullspace_basis, primitive, vec, vneg, zero_vec
from phk.lp import max_value, strict_system_feasible
from phk.polyhedra import (
    ClosedPolyhedron,
    EmptySet,
    PartiallyOpenPolyhedron,
    VRep,
    canonicalize,
    closed_as_set,
    closed_contains,
    closed_equal,
    closed_subset_of,
    cone,
    cone_contains,
    cones_equal,
    contains,
    h_to_v,
    is_bounded,
    lineality_space,
    make_set,
    space,
    system_of,
    v_to_h,
    validate,
    whole_set,
)
from phk.portability import portable_hull

from test_linalg import fraction_rref, rowspace_basis
from test_lp import closed_point


def closed(dim, rows):
    out = canonicalize(dim, rows)
    assert isinstance(out, ClosedPolyhedron)
    return out


def interval(lo, hi, open_lo=False, open_hi=False):
    out = make_set(1, [([-1], -Fraction(lo), open_lo), ([1], Fraction(hi), open_hi)])
    assert isinstance(out, PartiallyOpenPolyhedron)
    return out


def test_canonicalize_drops_dominated_parallel_row():
    p = closed(1, [([1], 1), ([1], 2)])
    assert p.rows == ((vec([1]), Fraction(1)),)


def test_canonicalize_keeps_opposing_rows_of_an_equality():
    p = closed(1, [([1], 0), ([-1], 0)])
    assert len(p.rows) == 2


def test_canonicalize_detects_empty():
    assert canonicalize(1, [([1], -1), ([-1], 0)]) == EmptySet(1)


def test_canonicalize_zero_normal_rows():
    assert canonicalize(2, [([0, 0], -1)]) == EmptySet(2)
    assert canonicalize(2, [([0, 0], 3)]) == space(2)


def test_canonicalize_no_rows_is_whole_space():
    assert canonicalize(1, []) == space(1)


def test_canonicalize_scales_rows_to_primitive_normals():
    p = closed(2, [(["2/3", "4/3"], 2)])
    assert p.rows == ((vec([1, 2]), Fraction(3)),)


def test_canonicalize_removes_interior_redundancy():
    # x+y <= 5 is implied by the unit square.
    p = closed(2, [([1, 0], 1), ([0, 1], 1), ([-1, 0], 0), ([0, -1], 0), ([1, 1], 5)])
    assert len(p.rows) == 4


def test_canonicalize_is_idempotent_and_deterministic():
    rows = [([1, 1], 2), ([1, 0], 1), ([0, 1], 1), ([-1, 0], 0), ([0, -1], 0)]
    a = closed(2, rows)
    b = closed(2, list(reversed(rows)))
    assert a == b
    again = canonicalize(2, [(n, o) for n, o in a.rows])
    assert again == a


def test_make_set_half_open_interval():
    c = interval(0, 1, open_lo=True)
    assert c.strict_rows == {i for i, r in enumerate(c.carrier.rows) if r[0] == vec([-1])}
    assert contains(c, [1]) and contains(c, ["1/2"])
    assert not contains(c, [0]) and not contains(c, [2])


def test_make_set_empty_strict_region_collapses_to_empty():
    assert make_set(1, [([1], 0, True), ([-1], 0, False)]) == EmptySet(1)


def test_make_set_refuses_unrepresentable_strict_marking():
    # x + y <= 2 is redundant for the unit square but touches it at (1,1);
    # marking it strict would carve out the corner, which carrier + strict
    # rows cannot express.
    with pytest.raises(InvalidSetError):
        make_set(
            2,
            [
                ([1, 0], 1, False),
                ([0, 1], 1, False),
                ([-1, 0], 0, False),
                ([0, -1], 0, False),
                ([1, 1], 2, True),
            ],
        )


def test_make_set_drops_strict_row_whose_face_misses_the_carrier():
    # x < 1 is a looser parallel of x <= 0: redundant, and its hyperplane
    # misses the set.
    c = make_set(1, [([1], 0, False), ([1], 1, True)])
    assert isinstance(c, PartiallyOpenPolyhedron)
    assert c.strict_rows == frozenset()
    assert c.carrier == closed(1, [([1], 0)])


def test_make_set_keeps_a_strict_row_equal_to_a_weak_row():
    # 2x < 2 is x < 1 scaled: it ties with the weak x <= 1, and strict wins.
    for tie in ([([1], 1, False), ([2], 2, True)], [([2], 2, True), ([1], 1, False)]):
        assert make_set(1, [([-1], 0, False), *tie]) == interval(0, 1, open_hi=True)


def test_make_set_drops_a_redundant_nonparallel_strict_row_that_misses_the_set():
    # x + y < 3 is implied by the unit square's rows, and x + y = 3 misses it.
    square = [([1, 0], 1, False), ([0, 1], 1, False), ([-1, 0], 0, False), ([0, -1], 0, False)]
    c = make_set(2, [*square, ([1, 1], 3, True)])
    assert c == make_set(2, square)
    assert c.strict_rows == frozenset()


def test_validate_reports_empty_carrier():
    carrier = ClosedPolyhedron(1, ((vec([-1]), Fraction(0)), (vec([1]), Fraction(-1))))
    # Built around the check, which refuses this carrier.
    v = validate(polyhedra._valid_set(carrier))
    assert not v.nonempty and not v.closure_is_carrier
    with pytest.raises(InvalidSetError):
        PartiallyOpenPolyhedron(carrier, frozenset())


def test_validate_accepts_constructed_sets():
    v = validate(interval(0, 1, open_lo=True))
    assert v.nonempty and v.closure_is_carrier
    e = validate(EmptySet(1))
    assert not e.nonempty and not e.closure_is_carrier


def test_whole_space_set():
    w = whole_set(2)
    assert validate(w).nonempty
    assert contains(w, [5, -7])


def test_closed_subset_of_examples():
    box = interval(0, 1)
    half_open = interval(0, 1, open_lo=True)
    line = closed(1, [([1], 1)])  # (-inf, 1]
    assert closed_subset_of(box.carrier, box)
    assert not closed_subset_of(line, half_open)
    assert not closed_subset_of(box.carrier, half_open)  # 0 is in the carrier only
    assert closed_subset_of(EmptySet(1), half_open)
    assert closed_subset_of(closed(1, [(["1"], "1/2"), (["-1"], "-1/4")]), half_open)


def test_a_closed_hull_equals_its_carrier_without_an_lp(monkeypatch):
    # Each side states every row of the other, so no row needs an LP, and
    # an empty side would be a subset too: not even emptiness is asked.
    c = make_set(2, [([1, 0], 1, False), ([0, 1], 1, False), ([-1, -1], 1, False)])
    hull = portable_hull(c)

    def solve(*args):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(polyhedra, "_nonempty_support", solve)
    monkeypatch.setattr(polyhedra, "SupportLP", solve)
    assert closed_equal(hull, c.carrier)


def test_closed_subset_of_refuses_a_dimension_mismatch_with_an_empty_set():
    square = closed_as_set(closed(2, [([1, 0], 1), ([-1, 0], 0), ([0, 1], 1), ([0, -1], 0)]))
    with pytest.raises(InputError):
        closed_subset_of(EmptySet(3), square)
    with pytest.raises(InputError):
        closed_subset_of(space(3), EmptySet(2))


def test_closed_subset_of_unbounded_direction_fails_fast():
    upper = closed(1, [([1], 0)])
    assert not closed_subset_of(upper, interval(-5, 5))


def test_lineality_space():
    assert lineality_space(space(1)) == (vec([1]),)
    slab = closed(2, [([1, 0], 1), ([-1, 0], 0)])
    assert lineality_space(slab) == (vec([0, 1]),)
    assert lineality_space(closed(1, [([1], 1), ([-1], 0)])) == ()
    with pytest.raises(InputError):
        lineality_space(ClosedPolyhedron(1, ((vec([1]), Fraction(-1)), (vec([-1]), Fraction(0)))))


def test_h_to_v_ray_example():
    g = h_to_v(closed(1, [([-1], 0)]))
    assert g.vertices == (vec([0]),)
    assert g.rays == (vec([1]),)
    assert g.lineality == ()


def test_h_to_v_unit_square():
    square = closed(2, [([1, 0], 1), ([0, 1], 1), ([-1, 0], 0), ([0, -1], 0)])
    g = h_to_v(square)
    assert set(g.vertices) == {vec([0, 0]), vec([0, 1]), vec([1, 0]), vec([1, 1])}
    assert g.rays == () and g.lineality == ()


def test_h_to_v_lower_dimensional_segment():
    seg = closed(2, [([0, 1], 0), ([0, -1], 0), ([1, 0], 1), ([-1, 0], 0)])
    g = h_to_v(seg)
    assert set(g.vertices) == {vec([0, 0]), vec([1, 0])}
    assert g.rays == () and g.lineality == ()


def test_h_to_v_whole_space_and_empty():
    g = h_to_v(space(2))
    assert g.vertices == (vec([0, 0]),)
    assert set(g.lineality) == {vec([1, 0]), vec([0, 1])}
    assert h_to_v(EmptySet(2)) == VRep((), (), ())


def test_h_to_v_slab_mixes_lineality_and_rays():
    slab = closed(2, [([1, 0], 1), ([-1, 0], 0)])
    g = h_to_v(slab)
    assert g.lineality == (vec([0, 1]),)
    assert len(g.vertices) >= 1
    for v in g.vertices:
        assert closed_contains(slab, v)


def test_seven_dimensional_sets_convert():
    units = tuple(tuple(Fraction(int(i == j)) for i in range(7)) for j in range(7))
    assert h_to_v(space(7)) == VRep((vec([0] * 7),), (), units)
    simplex = closed(7, [(vneg(u), 0) for u in units] + [([1] * 7, 1)])
    g = h_to_v(simplex)
    assert g.vertices == tuple(sorted((vec([0] * 7),) + units))
    assert not g.rays and not g.lineality
    assert v_to_h(g) == simplex


def forbid_the_walk(monkeypatch):
    """Make every row-subset walk in ``polyhedra`` fail on its first step:
    the ``eliminate`` that adds a row."""

    def walk(*args):
        raise AssertionError("the subset walk started")

    monkeypatch.setattr(polyhedra, "eliminate", walk)


def test_conversion_budget_counts_vertex_subsets(monkeypatch):
    # 40 normals spanning R^6, each row holding the origin: C(40, 6) vertex
    # candidates, then C(40, 5) ray candidates.
    normals = sorted(product((-1, 0, 1), repeat=6), key=lambda n: sum(map(abs, n)))[1:41]
    p = ClosedPolyhedron(6, tuple((vec(n), Fraction(1)) for n in normals))
    forbid_the_walk(monkeypatch)
    with pytest.raises(ScaleLimitError, match="walk 3838380 row subsets"):
        h_to_v(p)
    assert comb(40, 6) == 3838380 > polyhedra.CONVERSION_SUBSET_CAP


def test_conversion_budget_counts_facet_subsets(monkeypatch):
    cube = VRep(tuple(vec(v) for v in product((0, 1), repeat=6)), (), ())
    forbid_the_walk(monkeypatch)
    with pytest.raises(ScaleLimitError, match="walk 74974368 row subsets"):
        v_to_h(cube)
    assert comb(64, 6) == 74974368


def test_v_to_h_round_trip_square():
    square = closed(2, [([1, 0], 1), ([0, 1], 1), ([-1, 0], 0), ([0, -1], 0)])
    back = v_to_h(h_to_v(square))
    assert back == square


def test_v_to_h_of_single_point():
    p = v_to_h(VRep((vec(["1/2", "-3"]),), (), ()))
    assert isinstance(p, ClosedPolyhedron)
    assert closed_contains(p, ["1/2", "-3"])
    assert not closed_contains(p, [0, -3])
    assert len(p.rows) == 4  # two implicit equalities


def test_v_to_h_empty_and_unbounded():
    assert v_to_h(VRep((), (), ()), dim=3) == EmptySet(3)
    quad = v_to_h(VRep((vec([0, 0]),), (vec([1, 0]), vec([0, 1])), ()))
    assert quad == closed(2, [([-1, 0], 0), ([0, -1], 0)])


@pytest.mark.parametrize(
    "v",
    [
        VRep((vec([0, 0]),), (), (vec([1]),)),
        VRep((vec([0, 0]),), (vec([1, 0, 0]),), ()),
        VRep((vec([0, 0]), vec([1])), (), ()),
        VRep((vec([0]), vec([1, 0])), (), ()),
    ],
    ids=["short-line", "long-ray", "short-vertex", "long-vertex"],
)
def test_v_to_h_refuses_generators_of_another_length(v):
    with pytest.raises(InputError):
        v_to_h(v)


def test_is_bounded():
    assert is_bounded(closed(1, [([1], 1), ([-1], 0)]))
    assert not is_bounded(closed(1, [([1], 1)]))
    assert not is_bounded(space(2))


def test_cone_membership():
    k = cone(2, [[1, 0], [1, 1]])
    assert cone_contains(k, [2, 1])
    assert cone_contains(k, [0, 0])
    assert cone_contains(k, [0, 1]) is False
    assert cone_contains(k, [1, "1/2"])
    zero = cone(2, [])
    assert cone_contains(zero, [0, 0])
    assert not cone_contains(zero, [1, 0])


def test_cones_equal_up_to_generator_scaling_and_redundancy():
    a = cone(2, [[1, 0], [0, 1]])
    b = cone(2, [[2, 0], [0, 3], [1, 1]])
    assert cones_equal(a, b)
    c = cone(2, [[1, 0], [1, 1]])
    assert not cones_equal(a, c)


# -- randomized round trips -------------------------------------------------

coef = st.integers(min_value=-3, max_value=3)


@st.composite
def closed_systems(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=0, max_value=5))
    rows = []
    for _ in range(m):
        normal = [draw(coef) for _ in range(n)]
        rows.append((normal, draw(coef)))
    # A box keeps everything bounded half the time.
    if draw(st.booleans()):
        for j in range(n):
            e = [0] * n
            e[j] = 1
            rows.append((list(e), draw(st.integers(min_value=1, max_value=3))))
            e2 = [0] * n
            e2[j] = -1
            rows.append((list(e2), draw(st.integers(min_value=0, max_value=3))))
    return n, rows


@given(closed_systems())
def test_canonicalize_preserves_the_set(sys_):
    n, rows = sys_
    out = canonicalize(n, rows)
    raw = ClosedPolyhedron(n, tuple((vec(a), Fraction(b)) for a, b in rows))
    if isinstance(out, EmptySet):
        assert closed_point(raw.rows, n) is None
        return
    # The raw rows are a container as they stand, every row weak.
    assert closed_subset_of(out, raw)
    assert closed_subset_of(raw, out)


@given(closed_systems())
def test_h_v_round_trip_mutual_containment(sys_):
    n, rows = sys_
    out = canonicalize(n, rows)
    if isinstance(out, EmptySet):
        return
    g = h_to_v(out)
    assert g.vertices, "nonempty polyhedron must produce at least one vertex"
    back = v_to_h(g)
    assert isinstance(back, ClosedPolyhedron)
    assert closed_subset_of(back, closed_as_set(out))
    assert closed_subset_of(out, closed_as_set(back))
    for v in g.vertices:
        assert closed_contains(out, v)
    for r in g.rays:
        assert all(dot(normal, r) <= 0 for normal, _ in out.rows)
    for l in g.lineality:
        assert all(dot(normal, l) == 0 for normal, _ in out.rows)


@st.composite
def cone_queries(draw):
    """At most 3 generators in dimension 1-3, and a vector that is a
    nonnegative combination of them half the time."""
    n = draw(st.integers(min_value=1, max_value=3))
    gens = draw(st.lists(st.lists(coef, min_size=n, max_size=n), max_size=3))
    if gens and draw(st.booleans()):
        weights = [draw(st.integers(min_value=0, max_value=3)) for _ in gens]
        x = [sum(w * g[t] for w, g in zip(weights, gens)) for t in range(n)]
    else:
        x = draw(st.lists(coef, min_size=n, max_size=n))
    return n, gens, x


@given(cone_queries())
def test_cone_membership_agrees_with_elimination(query):
    # x is in the cone iff {w >= 0, sum_i w_i g_i = x} is feasible, each
    # equation written as two weak rows; 3 columns keep the elimination quick.
    n, gens, x = query
    m = len(gens)
    rows = [
        (tuple(Fraction(-int(i == j)) for j in range(m)), Fraction(0), False)
        for i in range(m)
    ]
    for t in range(n):
        column = tuple(Fraction(g[t]) for g in gens)
        rows.append((column, Fraction(x[t]), False))
        rows.append((tuple(-q for q in column), -Fraction(x[t]), False))
    assert cone_contains(cone(n, gens), x) == fm_feasible(rows)


@st.composite
def containment_queries(draw):
    """A closed ``p`` and a partially open ``c`` in 1-3 D with at most 5 rows
    each.  Some of ``c``'s rows, weak and strict, are copied verbatim into
    ``p``, which ``closed_subset_of`` then reads without an LP when weak."""
    n = draw(st.integers(min_value=1, max_value=3))
    row = st.tuples(st.tuples(*[coef] * n), coef).map(
        lambda r: (tuple(map(Fraction, r[0])), Fraction(r[1]))
    )
    c_rows = draw(st.lists(row, min_size=1, max_size=5, unique=True))
    strict = draw(st.sets(st.integers(min_value=0, max_value=len(c_rows) - 1)))
    copied = draw(st.sets(st.integers(min_value=0, max_value=len(c_rows) - 1), min_size=1))
    own = draw(st.lists(row, max_size=5 - len(copied)))
    p_rows = draw(st.permutations([c_rows[i] for i in sorted(copied)] + own))
    # Raw rows, neither canonical nor always nonempty: built around the check.
    c = polyhedra._valid_set(ClosedPolyhedron(n, tuple(c_rows)), frozenset(strict))
    return ClosedPolyhedron(n, tuple(p_rows)), c


def subset_by_elimination(p: ClosedPolyhedron, c: PartiallyOpenPolyhedron) -> bool:
    """``p`` in ``c`` by Fourier-Motzkin alone: ``p`` empty, or every row of
    ``c`` bounds its maximum over ``p``, strictly for a strict row."""
    if p.rows and not fm_feasible([(a, b, False) for a, b in p.rows]):
        return True
    for i, (normal, offset) in enumerate(c.carrier.rows):
        status, top = fm_maximize(normal, p.rows)
        if status == "unbounded":
            return False
        if top > offset or (i in c.strict_rows and top == offset):
            return False
    return True


@given(containment_queries())
def test_containment_agrees_with_elimination(query):
    p, c = query
    assert closed_subset_of(p, c) == subset_by_elimination(p, c)
    q = c.carrier
    raw = polyhedra._valid_set
    want = subset_by_elimination(p, raw(q)) and subset_by_elimination(q, raw(p))
    assert closed_equal(p, q) == want


# -- make_set against the strict-threading reference ------------------------


def reference_irredundant(rows):
    """``_irredundant`` as it was before the barred re-solve: each row in
    turn against the rows that survive so far, by a cold ``max_value`` over
    a new row list.  A row with no others is kept."""
    survivors = list(rows)
    i = 0
    while i < len(survivors):
        normal, offset = survivors[i]
        top = max_value(normal, survivors[:i] + survivors[i + 1 :])
        if top is not None and top <= offset:
            survivors.pop(i)
        else:
            i += 1
    return tuple(survivors)


def reference_normalize_row(normal, offset):
    """A nonzero row scaled on ``Fraction``s to its primitive normal, the
    offset by the same positive factor, read off the first nonzero entry."""
    p = primitive(normal)
    pivot = next(i for i, a in enumerate(normal) if a != 0)
    return p, offset * (p[pivot] / normal[pivot])


def reference_make_set(dim, rows):
    """``make_set`` with each row's strict flag carried through merging and
    redundancy removal, every strict row they drop listed for the touching
    check.  The library canonicalizes closed rows only and matches strict
    rows to the carrier afterwards; both must give the same value."""
    screened = []
    for normal, offset, strict in rows:
        nv, off = vec(normal, dim), Fraction(offset)
        if not any(nv):
            if off < 0 or (strict and off == 0):
                return EmptySet(dim)
            continue
        screened.append((*reference_normalize_row(nv, off), bool(strict)))
    best, dropped = {}, []
    for normal, offset, strict in screened:
        cur = best.get(normal)
        if cur is None or offset < cur[0]:
            if cur is not None and cur[1]:
                dropped.append((normal, cur[0]))
            best[normal] = (offset, strict)
        elif offset == cur[0]:
            best[normal] = (offset, strict or cur[1])
        elif strict:
            dropped.append((normal, offset))
    merged = sorted((n, o, s) for n, (o, s) in best.items())
    if closed_point([(n, o) for n, o, _ in merged], dim) is None:
        return EmptySet(dim)
    carrier = reference_irredundant([(n, o) for n, o, _ in merged])
    dropped += [(n, o) for n, o, s in merged if s and (n, o) not in carrier]
    for normal, offset in dropped:
        if closed_point([*carrier, (vneg(normal), -offset)], dim) is not None:
            raise InvalidSetError("a dropped strict row touches the carrier")
    marked = {(n, o) for n, o, s in merged if s}
    strict = frozenset(i for i, r in enumerate(carrier) if r in marked)
    # Built around the check, so the reference runs no ``canonicalize``.
    c = polyhedra._valid_set(ClosedPolyhedron(dim, carrier), strict)
    if strict and strict_system_feasible(system_of(c)) is None:
        return EmptySet(dim)
    return c


@st.composite
def strict_systems(draw):
    """Weak and strict rows in 1-3 D, most of them holding at the origin.
    Copies of earlier rows are planted: verbatim, as positive multiples,
    with the other flag (a weak/strict tie), as looser strict parallels,
    and as a strict sum of two rows, which is redundant and touches the
    carrier where both hyperplanes do.  So are zero-normal rows, among them
    the empty ``0 < 0`` and ``0 <= -1``."""
    n = draw(st.integers(min_value=1, max_value=3))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        normal = [draw(coef) for _ in range(n)]
        rows.append((normal, draw(st.integers(min_value=-1, max_value=3)), draw(st.booleans())))
    pick = st.integers(min_value=0, max_value=len(rows) - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        (normal, offset, strict), other = rows[draw(pick)], rows[draw(pick)]
        k = draw(st.integers(min_value=1, max_value=3))
        rows.append(
            draw(
                st.sampled_from(
                    [
                        ([k * a for a in normal], k * offset, strict),
                        (normal, offset, not strict),
                        (normal, offset + k, True),
                        ([a + b for a, b in zip(normal, other[0])], offset + other[1], True),
                    ]
                )
            )
        )
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        rows.append(draw(st.sampled_from([([0] * n, 0, True), ([0] * n, -1, False), ([0] * n, 1, True)])))
    return n, draw(st.permutations(rows))


def assert_agrees_with_the_reference(n, rows):
    """``make_set``'s value or ``InvalidSetError``, its strict rows, and
    ``canonicalize`` of the rows read as weak, against the reference."""
    try:
        want = reference_make_set(n, rows)
    except InvalidSetError:
        with pytest.raises(InvalidSetError):
            make_set(n, rows)
    else:
        got = make_set(n, rows)
        assert got == want
        if isinstance(want, PartiallyOpenPolyhedron):
            assert got.strict_rows == want.strict_rows
    closed_ref = reference_make_set(n, [(a, b, False) for a, b, _ in rows])
    want = closed_ref.carrier if isinstance(closed_ref, PartiallyOpenPolyhedron) else closed_ref
    assert canonicalize(n, [(a, b) for a, b, _ in rows]) == want


@settings(max_examples=300)
@given(strict_systems())
def test_make_set_agrees_with_the_strict_threading_reference(sys_):
    assert_agrees_with_the_reference(*sys_)


ratio = st.builds(Fraction, coef, st.integers(min_value=1, max_value=6))


@st.composite
def rational_systems(draw):
    """Weak and strict rows in 1-3 D with rational normals and offsets,
    denominators 1-6.  Planted: copies scaled by a rational of either sign,
    copies that differ only in strictness, and zero-normal rows that hold
    (``0 <= 1/2``, ``0 < 1``, ``0 <= 0``), that fail (``0 <= -1/3``) and
    the strict ``0 < 0``."""
    n = draw(st.integers(min_value=1, max_value=3))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        normal = [draw(ratio) for _ in range(n)]
        rows.append((normal, abs(draw(ratio)) + draw(st.integers(min_value=-1, max_value=2)), draw(st.booleans())))
    pick = st.integers(min_value=0, max_value=len(rows) - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        normal, offset, strict = rows[draw(pick)]
        k = draw(ratio.filter(bool))
        rows.append(
            draw(st.sampled_from([([k * a for a in normal], k * offset, strict), (normal, offset, not strict)]))
        )
    zero = [Fraction(0)] * n
    zeros = [(zero, Fraction(1, 2), False), (zero, 1, True), (zero, 0, False), (zero, Fraction(-1, 3), False), (zero, 0, True)]
    rows += draw(st.lists(st.sampled_from(zeros), max_size=2))
    return n, draw(st.permutations(rows))


@settings(max_examples=300)
@given(rational_systems())
def test_rational_rows_agree_with_the_fraction_reference(sys_):
    assert_agrees_with_the_reference(*sys_)


def test_canonicalize_clears_rational_rows_to_integer_normals():
    # (2/3, -4/9) . x <= 1/2, times 9/2.
    p = closed(2, [(["2/3", "-4/9"], "1/2")])
    assert p.rows == ((vec([3, -2]), Fraction(9, 4)),)
    c = make_set(2, [([Fraction(2, 3), Fraction(-4, 9)], Fraction(1, 2), True)])
    assert c.carrier == p and c.strict_rows == {0}
    # The carrier's normals are ``Fraction``s, as every reader of its rows expects.
    assert all(type(a) is Fraction for normal, _ in p.rows + c.carrier.rows for a in normal)


@pytest.mark.parametrize("row", [([1],), ([1], 1, False, 0)])
def test_make_set_refuses_a_row_of_the_wrong_length(row):
    with pytest.raises(InputError, match="row 1 must be"):
        make_set(1, [([-1], 0, False), row])


@pytest.mark.parametrize("row", [([1],), ([1], 1, False)])
def test_canonicalize_refuses_a_row_of_the_wrong_length(row):
    with pytest.raises(InputError, match="row 1 must be"):
        canonicalize(1, [([-1], 0), row])


@pytest.mark.parametrize("row", [5, (5, 1, False)], ids=["row", "normal"])
def test_make_set_refuses_a_row_that_is_not_a_sequence(row):
    with pytest.raises(InputError, match="row 1 must be"):
        make_set(1, [([-1], 0, False), row])


@pytest.mark.parametrize("row", [5, (5, 1)], ids=["row", "normal"])
def test_canonicalize_refuses_a_row_that_is_not_a_sequence(row):
    with pytest.raises(InputError, match="row 1 must be"):
        canonicalize(1, [([-1], 0), row])


@st.composite
def feasible_systems(draw):
    """Weak rows in 1-3 D that hold at a planted point, some of them
    tightly, with planted redundant rows (the sum of two rows at their
    summed offset or looser), equality pairs (a row and its negation, both
    tight) and scaled duplicates, in any order."""
    n = draw(st.integers(min_value=1, max_value=3))
    x0 = [Fraction(draw(coef), draw(st.integers(min_value=1, max_value=2))) for _ in range(n)]
    slack = st.sampled_from((0, 0, 1, 2, Fraction(1, 2)))

    def row(normal, extra):
        return normal, dot(vec(normal), vec(x0)) + extra

    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        rows.append(row([draw(coef) for _ in range(n)], draw(slack)))
    pick = st.integers(min_value=0, max_value=len(rows) - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        (normal, offset), other = rows[draw(pick)], rows[draw(pick)]
        k = draw(st.integers(min_value=1, max_value=3))
        plant = draw(st.sampled_from(("sum", "equality", "scaled")))
        if plant == "sum":
            rows.append(([a + b for a, b in zip(normal, other[0])], offset + other[1] + draw(slack)))
        elif plant == "equality":
            tight = row(normal, 0)
            rows += [tight, ([-a for a in normal], -tight[1])]
        else:
            rows.append(([k * a for a in normal], k * offset))
    return n, draw(st.permutations(rows))


def merged_rows(dim, rows):
    """The screened, merged rows that ``_irredundant`` is given, on
    ``Fraction``s: the tightest offset per primitive normal, sorted.  The
    rows hold somewhere, so a zero-normal row among them holds everywhere."""
    best = {}
    for normal, offset in rows:
        nv = vec(normal, dim)
        if any(nv):
            normal, offset = reference_normalize_row(nv, Fraction(offset))
            best[normal] = min(offset, best.get(normal, offset))
    return sorted(best.items())


@settings(max_examples=300)
@given(feasible_systems())
def test_the_barred_pass_keeps_the_reference_rows_in_order(system):
    n, rows = system
    merged = merged_rows(n, rows)
    tops = polyhedra._nonempty_support(merged, n)
    assert tops is not None
    assert polyhedra._irredundant(merged, tops) == reference_irredundant(merged)


def test_the_order_decides_which_rows_a_flat_carrier_keeps():
    # On the line x = 0, y <= 1 and x + y <= 1 each make the other
    # redundant.  In sorted order y <= 1 is tested first and goes.
    rows = [([1, 0], 0), ([-1, 0], 0), ([0, 1], 1), ([1, 1], 1)]
    merged = merged_rows(2, rows)
    assert [normal for normal, _ in merged] == [vec([-1, 0]), vec([0, 1]), vec([1, 0]), vec([1, 1])]
    kept = polyhedra._irredundant(merged, polyhedra._nonempty_support(merged, 2))
    assert kept == reference_irredundant(merged) == (merged[0], merged[2], merged[3])
    assert canonicalize(2, rows) == ClosedPolyhedron(2, kept)


def test_a_dropped_strict_row_is_refused_exactly_when_it_touches():
    triangle = [([-1, 0], 0, False), ([0, -1], 0, False), ([1, 1], 1, False)]
    # x < 1 is redundant for the triangle, and its line meets it at the
    # vertex (1, 0) alone.
    touching = [*triangle, ([1, 0], 1, True)]
    with pytest.raises(InvalidSetError):
        reference_make_set(2, touching)
    with pytest.raises(InvalidSetError):
        make_set(2, touching)
    # x < 2, and the looser strict parallel x + y < 3, miss it.
    missing = [*triangle, ([1, 0], 2, True), ([2, 2], 3, True)]
    got = make_set(2, missing)
    assert got == reference_make_set(2, missing) == make_set(2, triangle)
    assert not got.strict_rows


# -- the generator walk against the subset-by-subset reference ---------------


def combine(basis, coeffs):
    """``sum(coeffs[j] * basis[j])`` on ``Fraction``s."""
    return tuple(dot(coeffs, column) for column in zip(*basis))


def reference_cone_generators(m_rows, k):
    """``cone_generators`` as it was before the depth-first walk: every
    (k-1)-subset by ``combinations``, its nullspace solved from scratch, on
    ``Fraction``s."""
    lin = nullspace_basis(m_rows, k)
    if lin:
        w = rowspace_basis(m_rows)
        if not w:
            return lin, []
        reduced = [tuple(dot(row, wj) for wj in w) for row in m_rows]
        _, inner_rays = reference_cone_generators(reduced, len(w))
        return lin, sorted(primitive(combine(w, r)) for r in inner_rays)
    if k == 0:
        return [], []
    rays = set()
    for sub in combinations(range(len(m_rows)), k - 1):
        null = nullspace_basis([m_rows[i] for i in sub], k)
        if len(null) != 1:
            continue
        for cand in (null[0], vneg(null[0])):
            if all(dot(row, cand) <= 0 for row in m_rows):
                rays.add(primitive(cand))
    return [], sorted(rays)


def solve_square(a_rows, b):
    """Solve A x = b for square A; None when A is singular."""
    k = len(a_rows)
    if k == 0:
        return ()
    aug = [list(r) + [bb] for r, bb in zip(a_rows, b)]
    reduced, pivots = fraction_rref(aug)
    if pivots != list(range(k)):
        # Rank-deficient A, or the right-hand side became a pivot column.
        return None
    return tuple(reduced[i][k] for i in range(k))


def test_solve_square():
    a = [vec([2, 1]), vec([1, -1])]
    assert solve_square(a, [Fraction(3), Fraction(0)]) == vec([1, 1])
    singular = [vec([1, 1]), vec([2, 2])]
    assert solve_square(singular, [Fraction(1), Fraction(2)]) is None


def reference_pointed_vertices(normals, offsets, k):
    """``_pointed_vertices`` before the walk: one ``solve_square`` per
    k-subset, checked against every row by ``dot``."""
    if k == 0:
        return [()]
    verts = set()
    for sub in combinations(range(len(normals)), k):
        sol = solve_square([normals[i] for i in sub], [offsets[i] for i in sub])
        if sol is not None and all(dot(a, sol) <= b for a, b in zip(normals, offsets)):
            verts.add(sol)
    return sorted(verts)


def reference_h_to_v(p):
    """``h_to_v`` as it was before the walks ran on integers, each walk by
    subsets on ``Fraction``s: the vertices and rays of the rows projected
    onto the row space, lifted back by ``combine``."""
    if isinstance(p, EmptySet) or max_value(zero_vec(p.dim), p.rows) is None:
        return VRep((), (), ())
    normals = [normal for normal, _ in p.rows]
    offsets = [offset for _, offset in p.rows]
    lin = nullspace_basis(normals, p.dim)
    w = rowspace_basis(normals)
    if not w:
        return VRep((zero_vec(p.dim),), (), tuple(lin))
    reduced = [tuple(dot(nr, wj) for wj in w) for nr in normals]
    verts = sorted(combine(w, v) for v in reference_pointed_vertices(reduced, offsets, len(w)))
    _, inner_rays = reference_cone_generators(reduced, len(w))
    rays = sorted(primitive(combine(w, r)) for r in inner_rays)
    return VRep(tuple(verts), tuple(rays), tuple(sorted(lin)))


def reference_generators(convert, arg):
    """``convert(arg)`` (``h_to_v`` or ``v_to_h``) by the subset-by-subset
    reference on ``Fraction``s: ``reference_h_to_v``, or ``v_to_h`` with
    ``reference_cone_generators`` for its cone."""
    if convert is h_to_v:
        return reference_h_to_v(arg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polyhedra, "cone_generators", reference_cone_generators)
        return convert(arg)


@st.composite
def degenerate_systems(draw):
    """Weak rows in 1-4 D: a planted vertex with up to n + 3 rows tight at
    it, other rows around it, repeated directions (verbatim, scaled, with
    another offset) and, when the normals skip the last coordinate, a line."""
    n = draw(st.integers(min_value=1, max_value=4))
    width = n - 1 if n > 1 and draw(st.booleans()) else n  # lineality along e_n
    normal = st.lists(st.integers(-2, 2), min_size=width, max_size=width).map(
        lambda a: a + [0] * (n - width)
    )
    apex = draw(st.lists(st.fractions(-2, 2, max_denominator=2), min_size=n, max_size=n))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=n + 3))):
        a = draw(normal)
        rows.append((a, sum(x * y for x, y in zip(a, apex))))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        rows.append((draw(normal), draw(st.integers(min_value=-1, max_value=3))))
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if rows else 0):
        a, b = draw(st.sampled_from(rows))
        k = draw(st.integers(min_value=1, max_value=3))
        rows.append(draw(st.sampled_from([(a, b), ([k * x for x in a], k * b), (a, b + k)])))
    rows = draw(st.permutations(rows))
    return ClosedPolyhedron(n, tuple((vec(a), Fraction(b)) for a, b in rows))


@settings(max_examples=200)
@given(degenerate_systems())
def test_h_to_v_agrees_with_the_subset_reference(p):
    assert h_to_v(p) == reference_generators(h_to_v, p)


@st.composite
def generator_sets(draw):
    """Generator forms in 1-3 D with repeated and collinear vertices,
    repeated or opposite ray directions, and lineality."""
    n = draw(st.integers(min_value=1, max_value=3))
    point = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(vec)
    verts = draw(st.lists(point, min_size=1, max_size=5))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a, b = draw(st.sampled_from(verts)), draw(st.sampled_from(verts))
        verts.append(draw(st.sampled_from([a, tuple(2 * x - y for x, y in zip(a, b))])))
    direction = point.filter(any)
    rays = draw(st.lists(direction, max_size=3))
    if rays and draw(st.booleans()):
        rays.append(draw(st.sampled_from([tuple(2 * x for x in rays[0]), vneg(rays[0])])))
    lines = draw(st.lists(direction, max_size=1))
    return VRep(tuple(verts), tuple(rays), tuple(lines))


@settings(max_examples=150)
@given(generator_sets())
def test_v_to_h_agrees_with_the_subset_reference(v):
    assert v_to_h(v) == reference_generators(v_to_h, v)


def test_the_reference_sees_a_degenerate_apex():
    # Four rows tight at the apex of a square pyramid in 3-D.
    pyramid = ClosedPolyhedron(
        3,
        tuple(
            (vec(a), Fraction(b))
            for a, b in [
                ((1, 0, 1), 1),
                ((-1, 0, 1), 1),
                ((0, 1, 1), 1),
                ((0, -1, 1), 1),
                ((0, 0, -1), 0),
            ]
        ),
    )
    got = h_to_v(pyramid)
    assert got == reference_generators(h_to_v, pyramid)
    assert vec([0, 0, 1]) in got.vertices and len(got.vertices) == 5
