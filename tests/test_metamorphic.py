"""Metamorphic properties: answers that must move predictably with the input.

Over seeded corpus sets (mixed, strict and line-free), rewriting the rows of
a set leaves ``make_set`` unchanged; permuting coordinates carries the
portable hull, the portability verdict and the support values along; and
translating by ``t`` shifts the support value by ``<x*, t>`` while leaving
attainment, the verdict and the existence of a separating half-space alone;
and an integer change of variables ``x = U y`` with ``det U = +-1`` maps
membership, support values, attainment, the verdict and the hull's rows.
The support values do not depend on the order in which the duals are
asked, although each set's support LP re-solves from the tableau the
previous dual left.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from phk.corpus import line_free_closed_sets, partially_open_sets
from phk.linalg import dot, vadd
from phk.normal_cones import support_level, support_value
from phk.polyhedra import (
    PartiallyOpenPolyhedron,
    closed_as_set,
    closed_subset_of,
    contains,
    make_set,
)
from phk.portability import is_portable, portable_hull, separation_certificate
from phk.sampling import SampleSpec, cloud_points, dual_vectors

SETS = (
    partially_open_sets(27, seed=61)
    + partially_open_sets(27, seed=62, force_strict=True)
    + line_free_closed_sets(27, seed=63)
)
SPEC = SampleSpec(seed=0, count=4)


def rows_of(c):
    return [(n, o, i in c.strict_rows) for i, (n, o) in enumerate(c.carrier.rows)]


def rng_for(idx: int, salt: str) -> random.Random:
    return random.Random(f"metamorphic:{idx}:{salt}")


def test_the_corpus_mixes_kinds():
    assert len(SETS) == 81
    assert any(c.strict_rows for c in SETS) and any(not c.strict_rows for c in SETS)
    assert {c.dim for c in SETS} == {1, 2, 3}


@pytest.mark.parametrize("idx", range(len(SETS)))
def test_make_set_ignores_row_order_duplicates_and_scale(idx):
    c = SETS[idx]
    rng = rng_for(idx, "rows")
    rows = rows_of(c)
    rows += rng.sample(rows, rng.randint(1, len(rows)))
    rng.shuffle(rows)
    scaled = []
    for n, o, strict in rows:
        t = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        scaled.append((tuple(t * q for q in n), t * o, strict))
    assert make_set(c.dim, scaled) == c


@pytest.mark.parametrize("idx", range(len(SETS)))
def test_coordinate_permutation(idx):
    c = SETS[idx]
    perm = list(range(c.dim))
    rng_for(idx, "perm").shuffle(perm)

    def move(v):
        return tuple(v[j] for j in perm)

    moved = make_set(c.dim, [(move(n), o, s) for n, o, s in rows_of(c)])
    hull = portable_hull(c)
    carried = make_set(c.dim, [(move(n), o, False) for n, o in hull.rows])
    moved_hull = portable_hull(moved)
    assert closed_subset_of(carried.carrier, closed_as_set(moved_hull))
    assert closed_subset_of(moved_hull, carried)
    assert is_portable(moved) == is_portable(c)
    for xstar in dual_vectors(c, SPEC):
        a, b = support_value(c, xstar), support_value(moved, move(xstar))
        assert (a.value, a.attained_in_set) == (b.value, b.attained_in_set), xstar


@pytest.mark.parametrize("idx", range(len(SETS)))
def test_translation(idx):
    c = SETS[idx]
    rng = rng_for(idx, "shift")
    t = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(c.dim))
    shifted = make_set(c.dim, [(n, o + dot(n, t), s) for n, o, s in rows_of(c)])
    assert is_portable(shifted) == is_portable(c)
    for xstar in dual_vectors(c, SPEC):
        a, b = support_value(c, xstar), support_value(shifted, xstar)
        assert b.value == a.value + dot(xstar, t), xstar
        assert b.attained_in_set == a.attained_in_set, xstar
    outside = [x for x in cloud_points(c, SPEC) if not contains(c, x)]
    for x in outside:
        here = separation_certificate(c, x) is not None
        there = separation_certificate(shifted, vadd(x, t)) is not None
        assert here == there, x


def unimodular(dim: int, rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    """An integer matrix U with det +-1 and its integer inverse, built from
    column additions, swaps and sign flips."""
    u = [[int(i == j) for j in range(dim)] for i in range(dim)]
    inv = [row[:] for row in u]
    for _ in range(3 * dim):
        i, j = rng.sample(range(dim), 2) if dim > 1 else (0, 0)
        op = rng.choice(("add", "add", "swap", "flip")) if dim > 1 else "flip"
        if op == "add":
            # U <- U (I + k e_j e_i^T), U^-1 <- (I - k e_j e_i^T) U^-1.
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            for row in u:
                row[i] += k * row[j]
            inv[j] = [a - k * b for a, b in zip(inv[j], inv[i])]
        elif op == "swap":
            for row in u:
                row[i], row[j] = row[j], row[i]
            inv[i], inv[j] = inv[j], inv[i]
        else:
            for row in u:
                row[i] = -row[i]
            inv[i] = [-a for a in inv[i]]
    return u, inv


def apply(m, v):
    return tuple(sum((a * q for a, q in zip(row, v)), Fraction(0)) for row in m)


def transpose(m):
    return [list(col) for col in zip(*m)]


@pytest.mark.parametrize("idx", range(len(SETS)))
def test_unimodular_change_of_variables(idx):
    c = SETS[idx]
    u, inv = unimodular(c.dim, rng_for(idx, "unimodular"))
    # The columns of U U^-1 are those of the identity.
    assert [list(apply(u, col)) for col in transpose(inv)] == [
        [int(i == j) for j in range(c.dim)] for i in range(c.dim)
    ]
    ut = transpose(u)
    # C' = {y : (U^T n) . y <= offset}, the rows of A U, so that C = U C'.
    mapped = make_set(c.dim, [(apply(ut, n), o, s) for n, o, s in rows_of(c)])
    assert len(mapped.carrier.rows) == len(c.carrier.rows)
    for x in cloud_points(c, SPEC):
        assert contains(mapped, apply(inv, x)) == contains(c, x), x
    for xstar in dual_vectors(c, SPEC):
        a, b = support_value(c, xstar), support_value(mapped, apply(ut, xstar))
        assert (a.value, a.attained_in_set) == (b.value, b.attained_in_set), xstar
    assert is_portable(mapped) == is_portable(c)
    hull_rows = {(apply(ut, n), o) for n, o in portable_hull(c).rows}
    assert set(portable_hull(mapped).rows) == hull_rows


@pytest.mark.parametrize("idx", range(len(SETS)))
def test_support_levels_ignore_the_order_of_the_duals(idx):
    c = SETS[idx]
    duals = dual_vectors(c, SampleSpec(seed=idx, count=12))
    duals += [tuple(-q for q in x) for x in duals]
    shuffled = list(duals)
    rng_for(idx, "duals").shuffle(shuffled)
    in_order, out_of_order = (PartiallyOpenPolyhedron(c.carrier, c.strict_rows) for _ in range(2))
    want = [support_level(in_order, x) for x in duals]
    got = {x: support_level(out_of_order, x) for x in shuffled}
    assert [got[x] for x in duals] == want
    # Asked again in reverse, each dual re-solves from whatever tableau the
    # previous one left.
    again = [support_level(in_order, x) for x in reversed(duals)]
    assert again[::-1] == want
