from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from phk.errors import InputError
from phk.linalg import (
    dot,
    nullspace_basis,
    primitive,
    primitive_signed,
    rowspace_basis,
    solve_square,
    vec,
)


small = st.integers(min_value=-6, max_value=6)
vectors3 = st.tuples(small, small, small).map(lambda t: vec(t))


def test_vec_checks_the_dimension_when_asked():
    assert vec([1, "1/2"], 2) == (Fraction(1), Fraction(1, 2))
    with pytest.raises(InputError, match="vector has dimension 3, expected 2"):
        vec([1, 2, 3], 2)
    assert vec([1, 2, 3]) == vec([1, 2, 3], 3)


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


def test_solve_square():
    a = [vec([2, 1]), vec([1, -1])]
    x = solve_square(a, [Fraction(3), Fraction(0)])
    assert x == vec([1, 1])
    singular = [vec([1, 1]), vec([2, 2])]
    assert solve_square(singular, [Fraction(1), Fraction(2)]) is None


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
