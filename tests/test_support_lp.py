"""``lp.SupportLP``: warm re-solves against cold solves and elimination.

One object answers a sequence of maxima over one weak-row system.  The
first objective that ends optimal solves cold and keeps its tableau; later
ones re-solve from it by dual simplex.  A seeded walk over random feasible
systems compares each warm answer with a fresh ``max_value`` (one cold
solve) and with Fourier-Motzkin's ``fm_maximize``, which shares no code
with the simplex.  The shapes cover bounded and unbounded systems, slabs
and lineality (where an artificial stays basic in each dependent row, and
an objective outside the normals' span is +inf with no pivot),
lower-dimensional systems (an equality written as two rows), and
objective sequences with zero, negated and repeated objectives.  Maxima
without some rows, which re-solve with those rows' columns barred, are
compared with ``max_value`` over the rows left, and must leave the kept
tableau as it was.  Every warm pivot, barred or not, is checked against
Bland's rule for the dual simplex.

The zero objective is the emptiness test: its maximum is None exactly when
the system holds no point.  A hypothesis test over weak systems, empty ones
among them, checks it against the m-row primal and against elimination,
and checks that the margin program, with every row weak, returns the
primal's point.
"""
from __future__ import annotations

import json
import random
from collections import Counter
from copy import deepcopy
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phk import lp, polyhedra
from phk.errors import InputError
from phk.fme import fm_feasible, fm_maximize
from phk.linalg import dot, unit_vec, vec, vneg, zero_vec
from phk.lp import SupportLP, max_value, strict_system_feasible
from phk.normal_cones import support_level, support_value
from phk.polyhedra import PartiallyOpenPolyhedron, make_set
from phk.serialize import parse_set

from test_lp import closed_point

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SHAPES = ("general", "bounded", "slab", "lineality", "flat")


def random_system(rng: random.Random, shape: str) -> tuple[int, list]:
    """A feasible weak-row system of at most 8 rows in 1-4 D (6 in 4-D
    unless it is a box): every row holds at a planted point, some of them
    tightly."""
    n = rng.randint(1, 4)
    x0 = vec(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
    # Normals that skip the last coordinate leave a line along it.
    width = n - 1 if shape == "lineality" and n > 1 else n

    def normal() -> tuple:
        while True:
            a = [rng.randint(-3, 3) for _ in range(width)] + [0] * (n - width)
            if any(a):
                return vec(a)

    def row(a, slack) -> tuple:
        return a, dot(a, x0) + slack

    rows = []
    if shape == "bounded":
        rows += [
            row(vec(s * q for q in unit_vec(n, j)), rng.randint(0, 3)) for j in range(n) for s in (1, -1)
        ]
    elif shape == "slab":
        a = normal()
        rows += [row(a, rng.randint(0, 2)), row(vneg(a), rng.randint(0, 2))]
    elif shape == "flat":
        a = normal()
        rows += [row(a, 0), row(vneg(a), 0)]
    # Elimination's rows grow doubly exponentially with the dimension.
    while len(rows) < (8 if n < 4 else 6) and rng.random() < 0.8:
        rows.append(row(normal(), Fraction(rng.choice((0, 0, 1, 2, 5)), rng.randint(1, 2))))
    rng.shuffle(rows)
    return n, rows


def objectives(rng: random.Random, n: int, rows: list) -> list:
    """Zero, random and row-normal objectives, with negated and repeated ones."""
    out = []
    for _ in range(rng.randint(5, 10)):
        pick = rng.random()
        if pick < 0.1:
            out.append(zero_vec(n))
        elif pick < 0.3 and out:
            out.append(vneg(rng.choice(out)))
        elif pick < 0.4 and out:
            out.append(rng.choice(out))
        elif pick < 0.6 and rows:
            out.append(rng.choice(rows)[0])
        else:
            out.append(vec(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)))
    return out


class Paths:
    """Counts of cold solves and of pivots outside them; each pivot outside
    a cold solve is checked against Bland's rule for the dual simplex, with
    the columns that the running re-solve bars."""

    def __init__(self, patch) -> None:
        self.cold = 0
        self.warm_pivots = 0
        self.barred_leaves = 0
        self._in_cold = False
        self._barred = ()
        solve, pivot, warm = lp.lp_solve, lp._pivot, lp.SupportLP._warm

        def counted_solve(*args):
            self.cold += 1
            self._in_cold = True
            try:
                return solve(*args)
            finally:
                self._in_cold = False

        def barred_warm(tops, objective, without=()):
            self._barred = without
            try:
                return warm(tops, objective, without)
            finally:
                self._barred = ()

        def counted_pivot(tab, dens, basis, i, j):
            if not self._in_cold:
                self.warm_pivots += 1
                self.barred_leaves += tab[i][-1] > 0
                assert_bland_dual_pivot(tab, basis, i, j, self._barred)
            return pivot(tab, dens, basis, i, j)

        patch.setattr(lp, "lp_solve", counted_solve)
        patch.setattr(lp, "_pivot", counted_pivot)
        patch.setattr(lp.SupportLP, "_warm", barred_warm)


def assert_bland_dual_pivot(tab, basis, i, j, barred=()) -> None:
    """Row ``i`` has the lowest basic index among the rows out of bounds:
    those with a negative right-hand side, and those whose basic column is
    barred (fixed at 0) with a positive one.  Column ``j`` is not barred,
    and has the least ratio ``red_j / |a_ij|`` over the structural columns
    that are not barred with ``a_ij`` of the sign opposite to the
    right-hand side's, ties to the lowest."""
    out = [r for r in range(len(basis)) if tab[r][-1] < 0 or (tab[r][-1] > 0 and basis[r] in barred)]
    assert basis[i] == min(basis[r] for r in out)
    # Structural columns come first; the artificials, one per row, and the
    # right-hand side follow.  A row's denominator cancels in its ratios.
    nstruct = len(tab[0]) - 1 - len(basis)
    red = tab[-1]
    sign = 1 if tab[i][-1] > 0 else -1
    ratios = {
        k: Fraction(red[k], abs(tab[i][k]))
        for k in range(nstruct)
        if sign * tab[i][k] > 0 and k not in barred
    }
    assert j not in barred
    assert j == min(ratios, key=lambda k: (ratios[k], k))


@pytest.mark.parametrize("shape", SHAPES)
def test_warm_resolves_agree_with_cold_solves_and_elimination(shape, monkeypatch):
    rng = random.Random(f"support-lp:{shape}")
    seen: Counter = Counter()
    for _ in range(60):
        n, rows = random_system(rng, shape)
        asked = objectives(rng, n, rows)
        want = [max_value(x, rows) for x in asked]
        for x, top in zip(asked, want):
            status, value = fm_maximize(x, rows)
            assert status != "infeasible" and (top is None) == (status == "unbounded")
            assert top == value
        with monkeypatch.context() as patch:
            paths = Paths(patch)
            tops = SupportLP(rows, n)
            for x, top in zip(asked, want):
                kept = tops._kept
                cold, pivots = paths.cold, paths.warm_pivots
                assert tops.maximum(x) == top
                seen["queries"] += 1
                if kept is None:
                    continue
                # From a kept tableau no objective solves cold, and an
                # unbounded one leaves the tableau as it was.
                assert paths.cold == cold
                if top is None:
                    assert tops._kept is kept
                    answer = "unbounded"
                else:
                    answer = "pivoted" if paths.warm_pivots > pivots else "zero-pivot"
                seen[answer] += 1
                # An artificial still basic marks a dependent row: the
                # normals do not span the space.
                if any(b >= len(rows) for b in kept[2]):
                    seen[f"dependent {answer}"] += 1
            # Objectives solve cold only up to the first that ends optimal:
            # its tableau is kept, whether or not the normals span.
            first = next((k + 1 for k, top in enumerate(want) if top is not None), len(asked))
            assert paths.cold == (first if rows else 0)
    assert seen["queries"] > 300 and seen["zero-pivot"] and seen["pivoted"]
    assert shape == "bounded" or seen["unbounded"]
    if shape in ("slab", "lineality", "flat"):
        assert seen["dependent zero-pivot"] and seen["dependent unbounded"], seen


def test_a_bounded_full_rank_set_solves_cold_once(monkeypatch):
    c = make_set(
        3,
        [((1, 0, 0), 2, False), ((-1, 0, 0), 1, True), ((0, 1, 0), 1, False),
         ((0, -1, 0), 3, False), ((0, 0, 1), 1, False), ((0, 0, -1), 1, False),
         ((1, 1, 1), 2, False)],
    )
    rng = random.Random("support-lp:count")
    duals = {vec(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)) for _ in range(40)}
    paths = Paths(monkeypatch)
    levels = {x: support_level(c, x) for x in sorted(duals)}
    assert len(levels) > 30 and paths.cold == 1
    fresh = PartiallyOpenPolyhedron(c.carrier, c.strict_rows)
    assert all(support_value(fresh, x).value == v for x, v in levels.items())


@pytest.mark.parametrize("name", ["left_half_plane", "slab_with_line"])
def test_a_set_whose_normals_do_not_span_solves_cold_once(name, monkeypatch):
    c = parse_set(json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8")))
    rng = random.Random(f"support-lp:{name}")
    duals = {
        vec([Fraction(rng.randint(-5, 5), rng.randint(1, 3)), rng.choice((0, 0, rng.randint(-3, 3)))])
        for _ in range(60)
    }
    # The zero dual ends optimal, so its tableau is kept for all the others.
    paths = Paths(monkeypatch)
    levels = {x: support_level(c, x) for x in [zero_vec(2), *sorted(duals)]}
    assert len(levels) > 25 and paths.cold == 1
    assert {v.is_finite for v in levels.values()} == {True, False}
    fresh = PartiallyOpenPolyhedron(c.carrier, c.strict_rows)
    assert all(support_value(fresh, x).value == v for x, v in levels.items())


def test_a_maximum_without_rows_leaves_the_kept_tableau_as_it_was(monkeypatch):
    rng = random.Random("support-lp:without")
    paths = Paths(monkeypatch)
    seen: Counter = Counter()
    for _ in range(150):
        n, rows = random_system(rng, rng.choice(SHAPES))
        if not rows:
            continue
        tops = SupportLP(rows, n)
        assert tops.maximum(zero_vec(n)) == 0
        for x in objectives(rng, n, rows):
            without = set(rng.sample(range(len(rows)), rng.randint(1, len(rows))))
            rest = [row for i, row in enumerate(rows) if i not in without]
            kept = tops._kept
            snapshot = deepcopy(kept)
            cold, leaves = paths.cold, paths.barred_leaves
            top = tops.maximum(x, without=without)
            assert paths.cold == cold and top == max_value(x, rest)
            assert tops._kept is kept and kept == snapshot
            seen["barred leave"] += paths.barred_leaves > leaves
            seen["unbounded" if top is None else "bounded"] += 1
            # A plain maximum after it re-solves from the kept tableau.
            assert tops.maximum(x) == max_value(x, rows)
    assert seen["barred leave"] > 50 and seen["unbounded"] > 50 and seen["bounded"] > 50, seen


def test_a_maximum_without_rows_needs_a_kept_tableau():
    tops = SupportLP([(vec([1]), Fraction(1)), (vec([-1]), Fraction(0))], 1)
    with pytest.raises(InputError):
        tops.maximum(vec([1]), without={0})
    assert tops.maximum(vec([1])) == 1
    assert tops.maximum(vec([1]), without={0}) is None
    assert tops.maximum(vec([-1]), without={0}) == 0
    with pytest.raises(InputError):
        SupportLP([], 1).maximum(vec([1]), without={0})


def test_the_objective_and_the_rows_must_share_a_dimension():
    with pytest.raises(InputError):
        SupportLP([(vec([1, 0]), Fraction(1))], 1)
    with pytest.raises(InputError):
        SupportLP([(vec([1, 0]), Fraction(1))], 2).maximum(vec([1]))
    empty = SupportLP([], 2)
    assert empty.maximum(zero_vec(2)) == 0 and empty.maximum(vec([0, 1])) is None
    with pytest.raises(InputError):
        SupportLP([], 0)


rational = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3)
)


@st.composite
def weak_systems(draw):
    """At most 7 weak rows in 1-3 D over denominators 1-3, with planted zero
    normals, duplicated rows, and negated rows at a drawn offset (a slab, a
    hyperplane or an empty pair), and 1-4 objectives, some of them normals."""
    n = draw(st.integers(min_value=1, max_value=3))
    rows: list = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        plant = draw(st.sampled_from(("fresh", "fresh", "zero", "duplicate", "negated")))
        if plant == "zero":
            rows.append((zero_vec(n), draw(rational)))
        elif plant != "fresh" and rows:
            normal, offset = draw(st.sampled_from(rows))
            rows.append((normal, offset) if plant == "duplicate" else (vneg(normal), draw(rational) - offset))
        else:
            rows.append((vec(draw(rational) for _ in range(n)), draw(rational)))
    normals = [normal for normal, _ in rows]
    free = st.builds(vec, st.lists(rational, min_size=n, max_size=n))
    objective = st.one_of(free, st.sampled_from(normals)) if normals else free
    return n, rows, draw(st.lists(objective, min_size=1, max_size=4))


@settings(max_examples=200)
@given(weak_systems())
def test_the_zero_objective_decides_emptiness_and_the_margin_program_gives_the_point(system):
    n, rows, asked = system
    point = closed_point(rows, n)
    tops = polyhedra._nonempty_support(rows, n)
    empty = tops is None
    assert empty == (point is None)
    if rows:
        assert empty == (not fm_feasible([(normal, offset, False) for normal, offset in rows]))
        assert strict_system_feasible([(normal, offset, False) for normal, offset in rows]) == point
    if empty:
        cold = SupportLP(rows, n)
        assert all(cold.maximum(x) is None for x in asked)
        return
    # Each maximum re-solves from the zero objective's tableau.
    for x in asked:
        status, value = fm_maximize(x, rows)
        assert tops.maximum(x) == (None if status == "unbounded" else value)
