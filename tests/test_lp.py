from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phk.errors import InputError, ScaleLimitError
from phk.fme import ELIMINATION_ROW_CAP, fm_feasible, fm_maximize
from phk.linalg import dot, vec, zero_vec
from phk.lp import (
    EqualityLP,
    LPProblem,
    lp_solve,
    max_value,
    problem,
    strict_system_feasible,
    verify_outcome,
)
from phk.polyhedra import cone, cone_contains


def rows_of(*rs):
    return tuple((vec(n), Fraction(o)) for n, o in rs)


def closed_point(rows, dim):
    """A point of a weak-row system, or None when it is empty: the m-row
    primal with a zero objective, kept as the reference for the margin
    program's points and for ``SupportLP``'s zero-objective emptiness."""
    return lp_solve(LPProblem(zero_vec(dim), tuple(rows))).primal


def test_optimal_with_exact_duals():
    # maximize x subject to x <= 1, -x <= 0
    p = problem([1], [([1], 1), ([-1], 0)])
    out = lp_solve(p)
    assert out.status == "optimal"
    assert out.value == 1
    assert out.primal == vec([1])
    assert verify_outcome(p, out)


def test_infeasible_farkas_certificate():
    p = problem([1], [([1], -1), ([-1], 0)])
    out = lp_solve(p)
    assert out.status == "infeasible"
    assert out.farkas == vec([1, 1])
    assert verify_outcome(p, out)


def test_unbounded_ray():
    p = problem([1], [([-1], 0)])
    out = lp_solve(p)
    assert out.status == "unbounded"
    assert out.ray is not None and dot(p.objective, out.ray) > 0
    assert verify_outcome(p, out)


def test_no_rows_cases():
    free = problem([0, 0], [])
    out = lp_solve(free)
    assert out.status == "optimal" and out.value == 0
    assert verify_outcome(free, out)
    grow = problem([1, -2], [])
    out2 = lp_solve(grow)
    assert out2.status == "unbounded"
    assert verify_outcome(grow, out2)


def test_degenerate_square_corner():
    # Three rows meet at the optimum; Bland's rule must terminate.
    p = problem(
        [1, 1],
        [([1, 0], 1), ([0, 1], 1), ([1, 1], 2), ([-1, 0], 0), ([0, -1], 0)],
    )
    out = lp_solve(p)
    assert out.status == "optimal"
    assert out.value == 2
    assert verify_outcome(p, out)


def test_fractional_data_stays_exact():
    p = problem(["1/3", "1/7"], [(["2/5", 1], "3/4"), ([1, 0], "1/2"), ([-1, -1], 5)])
    out = lp_solve(p)
    assert out.status == "optimal"
    assert verify_outcome(p, out)


def test_verify_outcome_rejects_each_tampered_field():
    # Each tampered outcome breaks one condition and keeps every other one,
    # so each check is needed on its own.
    rows = [([1, 0], 1), ([0, 1], 1), ([1, 1], 3), ([-1, 0], -1)]
    opt_p = problem([1, 1], rows)
    opt = lp_solve(opt_p)
    assert (opt.status, opt.value, opt.primal) == ("optimal", 2, vec([1, 1]))
    good_dual = opt._replace(dual=vec([1, 1, 0, 0]))
    unb_p = problem([1, 0], [([-1, 0], 0), ([0, 1], 1)])
    unb = lp_solve(unb_p)
    assert unb.status == "unbounded"
    inf_p = problem([1], [([1], 0), ([-1], -1), ([1], 2)])
    inf = lp_solve(inf_p)
    assert inf.status == "infeasible"
    good_farkas = inf._replace(farkas=vec([1, 1, 0]))
    for p, o in ((opt_p, opt), (opt_p, good_dual), (unb_p, unb), (inf_p, inf), (inf_p, good_farkas)):
        assert verify_outcome(p, o)
    half = Fraction(1, 2)
    tampered = [
        (opt_p, good_dual._replace(dual=vec([0, 1, 0, -1]))),  # negative, yet gives c and pays 2
        (opt_p, good_dual._replace(dual=vec([1, 1, 0]))),
        (opt_p, good_dual._replace(dual=vec([1, 1, 0, 0, 0]))),
        (opt_p, good_dual._replace(dual=vec([half, half, half, 0]))),  # pays 2 + 1/2
        (opt_p, good_dual._replace(dual=vec([1 + half, half, 0, 0]))),  # combines to (3/2, 1/2)
        (opt_p, good_dual._replace(primal=vec([1 + half, half]))),  # value 2, breaks x <= 1
        (opt_p, good_dual._replace(value=2 + half)),
        (opt_p, good_dual._replace(dual=None)),
        (opt_p, good_dual._replace(primal=None)),
        (opt_p, good_dual._replace(value=None)),
        (unb_p, unb._replace(ray=vec([1, 1]))),  # A d > 0 on y <= 1
        (unb_p, unb._replace(ray=vec([0, -1]))),  # c . d = 0
        (unb_p, unb._replace(ray=vec([0, 0]))),
        (unb_p, unb._replace(ray=None)),
        (inf_p, good_farkas._replace(farkas=vec([2, 1, -1]))),  # negative, yet 0 and pays -3
        (inf_p, good_farkas._replace(farkas=vec([1, 1]))),
        (inf_p, good_farkas._replace(farkas=vec([1, 1, 0, 0]))),
        (inf_p, good_farkas._replace(farkas=vec([1 + half, 1, 0]))),  # combines to 1/2
        (inf_p, good_farkas._replace(farkas=vec([0, half, half]))),  # pays 1/2
        (inf_p, good_farkas._replace(farkas=None)),
        (opt_p, good_dual._replace(status="maybe")),
        (opt_p, good_dual._replace(status="infeasible")),
    ]
    for p, o in tampered:
        assert not verify_outcome(p, o), o


def test_dimension_guard():
    with pytest.raises(InputError):
        problem([], [])
    with pytest.raises(InputError):
        problem([1], [([1, 2], 0)])


def test_row_length_must_match_the_objective():
    with pytest.raises(InputError):
        lp_solve(LPProblem(vec([1, 0]), rows_of(([1], 1))))
    with pytest.raises(InputError):
        lp_solve(LPProblem(vec([1]), rows_of(([1, 0], 1))))
    with pytest.raises(InputError):
        max_value(vec([1, 0]), [((1,), 1)])
    with pytest.raises(InputError):
        closed_point([((1, 1), 1)], 1)
    with pytest.raises(InputError):
        lp_solve(EqualityLP(vec([1, 0]), rows_of(([1], 1))))
    with pytest.raises(InputError):
        lp_solve(EqualityLP(vec([1]), rows_of(([1, 0], 1))))


def test_rows_may_hold_list_normals():
    p = LPProblem(vec([1]), (([Fraction(1)], Fraction(1)),))
    out = lp_solve(p)
    assert out.status == "optimal" and out.value == 1 and out.primal == vec([1])
    assert verify_outcome(p, out)
    rows = [([1, 1], 1)]
    got = strict_system_feasible([(n, o, False) for n, o in rows])
    assert got is not None and dot([1, 1], got) <= 1
    p = LPProblem(zero_vec(2), tuple(rows))
    out = lp_solve(p)
    assert out.status == "optimal" and out.value == 0 and out.primal == got
    assert verify_outcome(p, out)


def test_strict_feasibility_examples():
    f = strict_system_feasible([(vec([1]), Fraction(0), True), (vec([-1]), Fraction(1), True)])
    assert f is not None
    (w,) = f
    assert w < 0 and -w < 1

    g = strict_system_feasible([(vec([1]), Fraction(0), True), (vec([-1]), Fraction(0), False)])
    assert g is None

    h = strict_system_feasible([(vec([-1]), Fraction(0), True), (vec([1]), Fraction(1), False)])
    assert h is not None
    (w,) = h
    assert 0 < w <= 1


def test_strict_feasibility_empty_system_is_an_error():
    with pytest.raises(InputError):
        strict_system_feasible([])


def test_strict_matches_closed_when_no_strict_rows():
    rows = [(vec([1, 1]), Fraction(1), False), (vec([-1, 0]), Fraction(0), False)]
    strict = strict_system_feasible(rows)
    closed = closed_point([(n, o) for n, o, _ in rows], 2)
    assert strict is not None and strict == closed


# -- random agreement with the elimination oracle ---------------------------

# Rational coefficients with denominators 1 to 6, so the tableau's row
# denominators are exercised, not only integer data.
coef = st.builds(Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=6))


@st.composite
def lp_instances(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=0, max_value=6))
    obj = vec([draw(coef) for _ in range(n)])
    rows = []
    for _ in range(m):
        normal = [draw(coef) for _ in range(n)]
        rows.append((vec(normal), draw(coef)))
    # Degenerate shapes: a zero row, a duplicated row, a positively scaled row.
    plant = draw(st.sampled_from(("none", "zero", "duplicate", "scaled")))
    if plant == "zero":
        rows.append((vec([0] * n), draw(coef)))
    elif rows and plant != "none":
        normal, offset = draw(st.sampled_from(rows))
        t = Fraction(1) if plant == "duplicate" else draw(coef.filter(lambda q: q > 0))
        rows.insert(draw(st.integers(0, len(rows))), (tuple(t * a for a in normal), t * offset))
    return LPProblem(obj, tuple(rows))


@given(lp_instances())
def test_simplex_agrees_with_elimination(p):
    out = lp_solve(p)
    assert verify_outcome(p, out)
    status, value = fm_maximize(p.objective, p.rows)
    assert out.status == status
    if status == "optimal":
        assert out.value == value


# -- value-only maxima through the dual equality program --------------------


def weakly_feasible(p: LPProblem) -> bool:
    return not p.rows or fm_feasible([(normal, offset, False) for normal, offset in p.rows])


@given(lp_instances().filter(weakly_feasible))
def test_max_value_agrees_with_elimination_and_the_primal(p):
    top = max_value(p.objective, p.rows)
    status, value = fm_maximize(p.objective, p.rows)
    assert (top is None) == (status == "unbounded")
    assert top == value
    out = lp_solve(p)
    assert (out.status, out.value) == (status, value)


def test_max_value_fixed_cases():
    assert max_value(zero_vec(2), ()) == 0
    assert max_value(vec([1, 0]), ()) is None
    box = rows_of(([1, 0], 1), ([0, 1], 3), ([-1, -1], 0))
    assert max_value(zero_vec(2), box) == 0
    assert max_value(vec([1, 1]), box) == 4
    assert max_value(vec([-1, 0]), box) == 3
    # A slab |x| <= 1 in the plane holds the line along the second axis.
    slab = rows_of(([1, 0], 1), ([-1, 0], 1))
    assert max_value(vec([0, 1]), slab) is None
    assert max_value(vec([1, 1]), slab) is None
    assert max_value(vec([-2, 0]), slab) == 2
    assert max_value(vec([0, 0]), slab) == 0
    # Duplicated and scaled rows leave the dual with dependent columns.
    again = rows_of(([1, 0], 1), ([1, 0], 1), ([2, 0], 2), (["1/3", 0], "1/3"), ([0, 1], 3), ([-1, -1], 0))
    assert max_value(vec([1, 1]), again) == 4 == lp_solve(LPProblem(vec([1, 1]), again)).value
    assert max_value(vec(["1/2", "-1/3"]), again) == lp_solve(LPProblem(vec(["1/2", "-1/3"]), again)).value


# -- the equality form against its inequality encoding ----------------------


def inequality_form(p: EqualityLP) -> LPProblem:
    """The same program written as weak rows over free variables: ``-e_j``
    rows for ``w >= 0`` and a ``+-`` pair per equation."""
    k = p.dim
    rows = [(tuple(Fraction(-1 if i == j else 0) for i in range(k)), Fraction(0)) for j in range(k)]
    for normal, offset in p.rows:
        rows += [(normal, offset), (tuple(-a for a in normal), -offset)]
    return LPProblem(p.objective, tuple(rows))


def equality_certificate_holds(p: EqualityLP, out) -> bool:
    """Optimal: A w = b, w >= 0, A^T y >= c, b.y = value.  Unbounded:
    A d = 0, d >= 0, c.d > 0.  Infeasible: A^T y >= 0, b.y < 0."""
    columns = [tuple(normal[j] for normal, _ in p.rows) for j in range(p.dim)]
    offsets = tuple(offset for _, offset in p.rows)
    if out.status == "optimal":
        w, y = out.primal, out.dual
        return (
            all(dot(normal, w) == offset for normal, offset in p.rows)
            and all(q >= 0 for q in w)
            and dot(p.objective, w) == out.value
            and len(y) == len(p.rows)
            and all(dot(col, y) >= c for col, c in zip(columns, p.objective))
            and dot(offsets, y) == out.value
        )
    if out.status == "unbounded":
        d = out.ray
        return (
            all(dot(normal, d) == 0 for normal, _ in p.rows)
            and all(q >= 0 for q in d)
            and dot(p.objective, d) > 0
        )
    y = out.farkas
    return (
        len(y) == len(p.rows)
        and all(dot(col, y) >= 0 for col in columns)
        and dot(offsets, y) < 0
    )


@st.composite
def equality_instances(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=0, max_value=4))
    obj = vec([draw(coef) for _ in range(k)])
    normals = [vec([draw(coef) for _ in range(k)]) for _ in range(m)]
    if draw(st.booleans()):  # right-hand sides from a point w0 >= 0: feasible
        w0 = [abs(draw(coef)) for _ in range(k)]
        rows = [(a, dot(a, w0)) for a in normals]
    else:
        rows = [(a, draw(coef)) for a in normals]
    # Dependent shapes: a zero row (consistent or not), a duplicated row, a
    # row scaled by a nonzero factor of either sign.
    plant = draw(st.sampled_from(("none", "zero", "zero-rhs", "duplicate", "scaled")))
    if plant == "zero":
        rows.append((zero_vec(k), Fraction(0)))
    elif plant == "zero-rhs":
        rows.insert(draw(st.integers(0, len(rows))), (zero_vec(k), draw(coef.filter(bool))))
    elif rows and plant != "none":
        normal, offset = draw(st.sampled_from(rows))
        t = Fraction(1) if plant == "duplicate" else draw(coef.filter(bool))
        rows.insert(draw(st.integers(0, len(rows))), (tuple(t * a for a in normal), t * offset))
    return EqualityLP(obj, tuple(rows))


@settings(max_examples=300)
@given(equality_instances())
def test_equality_form_agrees_with_its_inequality_encoding(p):
    out = lp_solve(p)
    assert equality_certificate_holds(p, out)
    ref = inequality_form(p)
    old = lp_solve(ref)
    assert verify_outcome(ref, old)
    assert (out.status, out.value) == (old.status, old.value)
    status, value = fm_maximize(ref.objective, ref.rows)
    assert out.status == status
    if status == "optimal":
        assert out.value == value


def test_elimination_refuses_a_four_column_encoding_at_once():
    # Dense equations over four columns: the fourth elimination step would
    # build over 20 million rows, where the simplex answers at once.
    p = EqualityLP(
        vec([1, -1, 2, 1]),
        rows_of(
            ([1, 2, 3, 4], 10),
            ([4, 3, 2, 1], 10),
            ([1, -1, 1, -1], 0),
            ([2, 1, -1, -2], 0),
            ([1, 1, -2, 1], 1),
        ),
    )
    out = lp_solve(p)
    assert (out.status, out.value) == ("optimal", 3)
    ref = inequality_form(p)
    start = perf_counter()
    with pytest.raises(ScaleLimitError, match=f"above the cap of {ELIMINATION_ROW_CAP}"):
        fm_maximize(ref.objective, ref.rows)
    assert perf_counter() - start < 1.0


def test_dependent_row_keeps_its_artificial_basic_at_zero():
    # One generator in 2-D: both coordinate rows read w = 2, so after phase 1
    # one artificial is basic at zero in a row with no structural entry.
    p = EqualityLP(vec([0]), rows_of(([1], 2), ([1], 2)))
    out = lp_solve(p)
    assert out.status == "optimal" and out.primal == vec([2])
    assert equality_certificate_holds(p, out)
    line = cone(2, [(1, 1)])
    assert cone_contains(line, (2, 2)) and not cone_contains(line, (2, 3))


def test_equality_form_without_rows():
    out = lp_solve(EqualityLP(vec([-1, 0]), ()))
    assert out.status == "optimal" and out.value == 0 and out.primal == vec([0, 0])
    grow = lp_solve(EqualityLP(vec([-1, "1/2", 3]), ()))
    assert grow.status == "unbounded" and grow.ray == vec([0, 1, 6])


@st.composite
def strict_systems(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=5))
    rows = []
    for _ in range(m):
        normal = [draw(coef) for _ in range(n)]
        rows.append((vec(normal), draw(coef), draw(st.booleans())))
    return rows


@given(strict_systems())
def test_strict_feasibility_agrees_with_elimination(rows):
    mine = strict_system_feasible(rows)
    assert (mine is not None) == fm_feasible(rows)
    if mine is not None:
        for normal, offset, strict in rows:
            v = dot(normal, mine)
            assert v < offset if strict else v <= offset


# -- a third exact oracle: sympy's simplex -----------------------------------


def sympy_maximize(p: LPProblem) -> tuple[str, Fraction | None] | None:
    """Status and optimal value of ``p`` by ``sympy.solvers.simplex.lpmax``.

    Returns None when sympy calls ``p`` optimal at a point that breaks one of
    its rows: sympy 1.14 does so on some infeasible systems, such as
    ``SYMPY_MISREAD`` below, so that answer is set aside rather than trusted.
    """
    simplex = pytest.importorskip("sympy.solvers.simplex")
    import sympy

    xs = sympy.symbols(f"x0:{p.dim}")

    def linear(coefs):
        return sum((sympy.Rational(c.numerator, c.denominator) * x for c, x in zip(coefs, xs)), sympy.S.Zero)

    rows = [linear(a) <= sympy.Rational(b.numerator, b.denominator) for a, b in p.rows]
    try:
        value, at = simplex.lpmax(linear(p.objective), rows)
    except simplex.InfeasibleLPError:
        return "infeasible", None
    except simplex.UnboundedLPError:
        return "unbounded", None
    point = [Fraction(int(q.p), int(q.q)) for q in (sympy.S(at.get(x, 0)) for x in xs)]
    if any(dot(a, point) > b for a, b in p.rows):
        return None
    return "optimal", Fraction(int(value.p), int(value.q))


# Infeasible: the two rows on x1 pin it at -14/5, where the first row and
# the third cannot both hold.  sympy 1.14's lpmax answers 127/30 at
# (-3/2, 1/5), which breaks the second row.
SYMPY_MISREAD = problem(
    [-3, "-4/3"],
    [(["3/2", "5/2"], "-7/4"), ([0, 1], "-14/5"), ([1, "-1/2"], "-8/5"),
     (["-3/2", "-1/2"], "43/20"), ([0, -1], "14/5")],
)


def _third_opinion(p: LPProblem) -> tuple[str, Fraction | None]:
    """sympy's answer, or the elimination oracle's where sympy's own point
    refutes it."""
    theirs = sympy_maximize(p)
    if theirs is None:
        status, value = fm_maximize(p.objective, p.rows)
        theirs = (status, value if status == "optimal" else None)
    return theirs


@given(lp_instances())
def test_simplex_agrees_with_sympy(p):
    out = lp_solve(p)
    assert verify_outcome(p, out)
    assert (out.status, out.value) == _third_opinion(p)


def test_sympy_oracle_on_beale_and_degenerate_rows():
    beale = problem(
        ["3/4", -20, "1/2", -6],
        [(["1/4", -8, -1, 9], 0), (["1/2", -12, "-1/2", 3], 0), ([0, 0, 1, 0], 1)]
        + [([-1 if k == i else 0 for k in range(4)], 0) for i in range(4)],
    )
    square = problem(
        [1, 1],
        [([1, 0], 1), ([1, 0], 1), (["2", 0], 2), ([0, 0], 0), ([0, 1], 1), ([-1, -1], 0)],
    )
    for p in (beale, square):
        out = lp_solve(p)
        assert verify_outcome(p, out)
        assert (out.status, out.value) == sympy_maximize(p)
    assert lp_solve(beale).value == Fraction(5, 4)


def test_a_sympy_point_that_breaks_a_row_is_set_aside():
    out = lp_solve(SYMPY_MISREAD)
    assert out.status == "infeasible" and verify_outcome(SYMPY_MISREAD, out)
    assert sympy_maximize(SYMPY_MISREAD) in (None, ("infeasible", None))
    assert _third_opinion(SYMPY_MISREAD) == ("infeasible", None)
