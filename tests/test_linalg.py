from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phk.errors import InputError
from phk.fitzpatrick import graph
from phk.linalg import (
    dot,
    nullspace_basis,
    primitive,
    primitive_signed,
    rowspace_basis,
    rref,
    scaled,
    vec,
)
from phk.normal_cones import normal_cone_at, support_value
from phk.polyhedra import contains, make_set
from phk.portability import point_set, separation_certificate


small = st.integers(min_value=-6, max_value=6)
vectors3 = st.tuples(small, small, small).map(lambda t: vec(t))


def test_vec_checks_the_dimension_when_asked():
    assert vec([1, "1/2"], 2) == (Fraction(1), Fraction(1, 2))
    with pytest.raises(InputError, match="vector has dimension 3, expected 2"):
        vec([1, 2, 3], 2)
    assert vec([1, 2, 3]) == vec([1, 2, 3], 3)


@pytest.mark.parametrize("xs", [5, None, "1", b"1", bytearray(b"1"), {1: 2}], ids=repr)
def test_vec_refuses_what_is_not_a_sequence(xs):
    # Text iterates as characters and a mapping as its keys: "1" is not (1,).
    with pytest.raises(InputError, match="a vector must be a sequence of rationals"):
        vec(xs, 1)


def test_vec_reads_any_iterable_of_rationals():
    assert vec(iter([1, "2/3"])) == vec((x for x in (1, "2/3"))) == (Fraction(1), Fraction(2, 3))


HALF_OPEN = make_set(1, [((-1,), 0, True), ((1,), 1, False)])  # (0, 1]

# Each public function that reads a vector, called with a bad one.
NOT_VECTORS = {
    "contains": lambda x: contains(HALF_OPEN, x),
    "support_value": lambda x: support_value(HALF_OPEN, x),
    "normal_cone_at": lambda x: normal_cone_at(HALF_OPEN, x),
    "separation_certificate": lambda x: separation_certificate(HALF_OPEN, x),
    "point_set": lambda x: point_set(1, [x]),
    "graph": lambda x: graph(1, [(x, x)]),
}


@pytest.mark.parametrize("name", NOT_VECTORS)
@pytest.mark.parametrize("x", [5, "1", {1: 0}], ids=repr)
def test_api_refuses_a_vector_that_is_not_a_sequence(name, x):
    with pytest.raises(InputError, match="a vector must be a sequence of rationals"):
        NOT_VECTORS[name](x)


def test_nullspace_orthogonal_to_rows():
    rows = [vec([1, 2, 3]), vec([0, 1, 1])]
    basis = nullspace_basis(rows, 3)
    assert len(basis) == 1
    for row in rows:
        assert dot(row, basis[0]) == 0


def test_nullspace_of_empty_system_is_standard_basis():
    basis = nullspace_basis([], 2)
    assert basis == [vec([1, 0]), vec([0, 1])]


@given(st.lists(vectors3, min_size=0, max_size=4))
def test_rank_nullity(rows):
    r = len(rowspace_basis(rows)) if rows else 0
    n = len(nullspace_basis(rows, 3))
    assert r + n == 3


def test_primitive_scaling():
    assert primitive(vec(["2/3", "4/3"])) == vec([1, 2])
    assert primitive(vec([-2, 4])) == vec([-1, 2])
    assert primitive_signed(vec([-2, 4])) == vec([1, -2])
    assert primitive(vec([0, 0])) == vec([0, 0])


@given(vectors3)
def test_primitive_preserves_direction(v):
    p = primitive(v)
    # p is a positive multiple of v: cross-ratios agree and signs match.
    for a, b in zip(v, p):
        assert (a == 0) == (b == 0)
        if a != 0:
            assert (a > 0) == (b > 0)


# Ints, zeros and fractions with denominators 1-12, negative entries included.
scalars = st.one_of(
    st.integers(-40, 40),
    st.just(0),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
)
vector_pairs = st.integers(0, 7).flatmap(
    lambda n: st.tuples(
        st.lists(scalars, min_size=n, max_size=n), st.lists(scalars, min_size=n, max_size=n)
    )
)


@given(vector_pairs)
def test_dot_matches_the_naive_fraction_sum(pair):
    u, v = pair
    got = dot(u, v)
    assert type(got) is Fraction
    assert got == sum((a * b for a, b in zip(u, v)), Fraction(0))


def test_dot_of_empty_vectors_is_zero():
    assert dot((), ()) == 0 and type(dot((), ())) is Fraction


@given(st.lists(scalars, max_size=5), st.lists(scalars, max_size=5))
def test_dot_refuses_a_length_mismatch(u, v):
    if len(u) == len(v):
        v = v + [Fraction(1)]
    with pytest.raises(InputError, match="dimension mismatch"):
        dot(u, v)


@given(st.lists(scalars, max_size=7))
def test_scaled_writes_integers_over_the_least_common_denominator(v):
    ints, den = scaled(v)
    assert den > 0 and all(type(x) is int for x in ints)
    assert [Fraction(x, den) for x in ints] == list(v)
    # den is the least common denominator exactly when no factor k > 1
    # divides den and every integer (den / k would then do).
    assert gcd(den, *ints) == 1


def test_scaled_of_the_empty_vector():
    assert scaled(()) == ([], 1)


def fraction_rref(rows):
    """The ``Fraction`` elimination ``rref`` replaced, kept as a reference."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _with_copies(rows, picks):
    """Rows plus zero rows and repeated (or scaled) copies of earlier rows."""
    out = [[Fraction(x) for x in r] for r in rows]
    for kind, i, t in picks:
        if kind == "zero":
            out.append([Fraction(0)] * len(rows[0]))
        else:
            out.append([Fraction(t) * x for x in out[i % len(out)]])
    return out


matrices = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=1, max_size=5),
        st.lists(
            st.tuples(st.sampled_from(["zero", "copy"]), st.integers(0, 9), st.integers(-3, 3)),
            max_size=4,
        ),
    ).map(lambda t: _with_copies(*t))
)


@settings(max_examples=300)
@given(matrices)
def test_integer_rref_matches_the_fraction_reference(rows):
    got = rref(rows)
    assert got == fraction_rref(rows)
    assert all(type(x) is Fraction for row in got[0] for x in row)


def test_rref_on_more_rows_than_columns_and_no_rows():
    rows = [vec(r) for r in (["1/2", 1], [1, 2], [0, 0], ["1/3", "-1/5"], [2, 4])]
    assert rref(rows) == fraction_rref(rows) == ([[1, 0], [0, 1]], [0, 1])
    assert rref([]) == ([], [])
