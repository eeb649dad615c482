"""Convexified couplings, operator sums, and the grid probe.

Where a value is marked [DERIVED] it was worked out by hand from the
barycentric-weight definition before running the code.
"""
import random
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phk.corpus import sum_instances
from phk import polyhedra, representability
from phk.errors import InputError, ScaleLimitError
from phk.fitzpatrick import MonotoneGraph, graph
from phk.fme import fm_maximize
from phk.linalg import eliminate, rref
from phk.lp import SupportLP
from phk.polyhedra import EmptySet, cone_contains, make_set
from phk.representability import (
    GridSpec,
    rep_sum_value,
    rep_sum_value_by_enumeration,
    rep_value,
    representability_probe,
    restrict_graph,
    sum_graph_membership,
)
from phk.normal_cones import normal_cone_at, strictly_inside
from phk.portability import partial_portable_hull, point_set
from phk.sampling import grid_size, rational_grid
from phk.scalars import POS_INF, fin

F = Fraction


def enumeration_reference(t, c, x, xstar):
    """The sum value by the plain enumeration, with its number of ``rref``
    calls: every column subset of the joint program up to the number of
    equations, each reduced from scratch, and the least value over the
    consistent independent ones with nonnegative weights.  A third route,
    kept in the tests only."""
    _, _, costs, rows = representability._sum_program(t, c, x, xstar)
    total = len(costs)
    best, calls = POS_INF, 0
    for size in range(min(total, len(rows)) + 1):
        for cols in combinations(range(total), size):
            reduced, pivots = rref([[a[j] for j in cols] + [b] for a, b in rows])
            calls += 1
            if size in pivots or len(pivots) < size:
                continue  # inconsistent, or dependent columns
            w = [Fraction(0)] * total
            for r, j in enumerate(pivots):
                w[cols[j]] = reduced[r][size]
            if all(q >= 0 for q in w):
                best = min(best, fin(sum(cw * q for cw, q in zip(costs, w))))
    return best, calls


def touches(g, x, xstar):
    """Does the convexified coupling equal the raw coupling at this pair?
    Asked of ``rep_value``'s cold barycentric LP."""
    v = rep_value(g, x, xstar).value
    return v.is_finite and v.finite_value == sum(F(p) * F(q) for p, q in zip(x, xstar))


def staircase():
    return graph(1, [((0,), (0,)), ((F(1, 2),), (F(1, 2),)), ((1,), (1,))])


def closed_interval():
    return make_set(1, [((-1,), 0, False), ((1,), 1, False)])


def walked(t, c, x, xstar):
    """The walk's sum value, with its number of elimination steps."""
    steps = []

    def counted(mat, r, j):
        steps.append(j)
        return eliminate(mat, r, j)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(representability, "eliminate", counted)
        value = rep_sum_value_by_enumeration(t, c, x, xstar)
    return value, len(steps)


@st.composite
def planted_sum_queries(draw):
    """A 1-3-D box about the origin, a graph on the origin, a boundary point
    and further box points, and a query pair.  Planted dependent columns:
    one pair repeated, an all-zero pair, and a pair whose dual is the normal
    of the row through the boundary point, a hull row."""
    dim = draw(st.integers(min_value=1, max_value=3))
    half = st.builds(Fraction, st.integers(min_value=1, max_value=6), st.just(2))
    upper = [draw(half) for _ in range(dim)]
    lower = [draw(half) for _ in range(dim)]
    rows = []
    for j in range(dim):
        e = tuple(Fraction(int(i == j)) for i in range(dim))
        rows += [(e, upper[j], False), (tuple(-q for q in e), lower[j], False)]
    c = make_set(dim, rows)
    coord = st.builds(Fraction, st.integers(min_value=-3, max_value=3), st.sampled_from((1, 2)))
    dual = st.tuples(*[coord] * dim)
    face = draw(st.integers(min_value=0, max_value=dim - 1))
    boundary = tuple(upper[j] if j == face else Fraction(0) for j in range(dim))
    normal = rows[2 * face][0]
    inside = st.tuples(*[st.builds(min, coord, st.just(u)) for u in upper]).map(
        lambda p: tuple(max(q, -lo) for q, lo in zip(p, lower))
    )
    origin = (Fraction(0),) * dim
    pairs = [(origin, draw(dual)), (boundary, draw(dual))]
    pairs += [(draw(inside), draw(dual)) for _ in range(draw(st.integers(0, 2)))]
    pairs += [
        draw(st.sampled_from(pairs)),
        (origin, origin),
        (draw(st.sampled_from([a for a, _ in pairs])), normal),
    ]
    pairs = draw(st.permutations(pairs))
    a, astar = draw(st.sampled_from(pairs))
    b, _ = draw(st.sampled_from(pairs))
    if draw(st.booleans()):
        x = tuple((p + q) / 2 for p, q in zip(a, b))
        xstar = draw(dual)
    else:
        x, xstar = a, tuple(q + draw(st.integers(0, 2)) * n for q, n in zip(astar, normal))
    return MonotoneGraph(dim, tuple(pairs)), c, x, xstar


INTERIOR_REFUSAL = "the graph needs a domain point strictly inside the set's carrier"


def program_reference(t, c):
    """What the joint program is built from, composed from the public
    functions: the interior refusal's message, or the restricted pairs and
    the partial hull's rows at the graph's domain points.  Each function
    places the domain points itself."""
    if not any(strictly_inside(c, a) for a, _ in t.pairs):
        return INTERIOR_REFUSAL
    domain = point_set(t.dim, [a for a, _ in t.pairs])
    return restrict_graph(t, c).pairs, partial_portable_hull(c, domain).rows


def program_parts(t, c, x, xstar):
    """The same, read back from ``_sum_program``: a hull row's normal is its
    multiplier column on the dual rows, and its offset that column's cost."""
    try:
        _, tc, costs, rows = representability._sum_program(t, c, x, xstar)
    except InputError as exc:
        return str(exc)
    k, n = len(tc.pairs), c.dim
    normals = [tuple(rows[1 + n + i][0][j] for i in range(n)) for j in range(k, len(costs))]
    return tc.pairs, tuple(zip(normals, costs[k:]))


@cache
def corpus_sums():
    return sum_instances(8, seed=43)


@st.composite
def planted_programs(draw):
    """A corpus sum instance with some carrier rows made strict, and planted
    pairs: on a strict row, on a weak row, outside the set, and a domain
    point repeated with another dual.  Sometimes every pair strictly inside
    the carrier is dropped, which the program refuses."""
    t, box = draw(st.sampled_from(corpus_sums()))
    dim, carrier = box.dim, box.carrier.rows
    strict = draw(st.sets(st.integers(0, len(carrier) - 1), max_size=len(carrier) - 1))
    c = make_set(dim, [(nm, o, i in strict) for i, (nm, o) in enumerate(carrier)])
    coord = st.builds(Fraction, st.integers(min_value=-3, max_value=3), st.sampled_from((1, 2)))
    dual = st.tuples(*[coord] * dim)
    anchor = next(a for a, _ in t.pairs if strictly_inside(c, a))

    def shifted(i, past):
        # From the anchor along row i's normal onto its hyperplane, or past it.
        normal, offset = carrier[i]
        step = (offset - sum(q * p for q, p in zip(normal, anchor))) * (1 + past)
        return tuple(p + step * q / sum(q * q for q in normal) for p, q in zip(anchor, normal))

    weak = [i for i in range(len(carrier)) if i not in strict]
    pairs = list(t.pairs)
    if strict:
        pairs.append((shifted(draw(st.sampled_from(sorted(strict))), 0), draw(dual)))
    pairs.append((shifted(draw(st.sampled_from(weak)), 0), draw(dual)))
    past = draw(st.sampled_from((F(1, 2), 1)))
    pairs.append((shifted(draw(st.integers(0, len(carrier) - 1)), past), draw(dual)))
    pairs.append((draw(st.sampled_from(pairs))[0], draw(dual)))
    if draw(st.booleans()):
        pairs = [pair for pair in pairs if not strictly_inside(c, pair[0])]
    pairs = draw(st.permutations(pairs))
    return MonotoneGraph(dim, tuple(pairs)), c, draw(st.sampled_from(pairs))


class TestRepValue:
    def test_midpoint_of_two_pairs(self):
        # Pairs (0,0) and (1,2); the midpoint (1/2, 1) has the unique
        # representation with equal weights, value (0 + 2)/2 = 1.  [DERIVED]
        g = graph(1, [((0,), (0,)), ((1,), (2,))])
        ev = rep_value(g, (F(1, 2),), (1,))
        assert ev.value == fin(1)
        assert ev.coefficients == (F(1, 2), F(1, 2))

    def test_off_hull_is_infinite(self):
        g = graph(1, [((0,), (0,)), ((1,), (2,))])
        assert rep_value(g, (2,), (4,)).value is POS_INF
        # x = 1/2 forces equal weights, which pins the dual to 1.
        assert rep_value(g, (F(1, 2),), (0,)).value is POS_INF

    def test_empty_graph(self):
        assert rep_value(graph(1, []), (0,), (0,)).value is POS_INF

    def test_value_at_graph_pairs(self):
        g = staircase()
        for a, astar in g.pairs:
            ev = rep_value(g, a, astar)
            assert ev.value == fin(a[0] * astar[0])
            assert touches(g, a, astar)

    def test_strictly_monotone_midpoint_exceeds_coupling(self):
        g = graph(1, [((0,), (0,)), ((1,), (1,))])
        ev = rep_value(g, (F(1, 2),), (F(1, 2),))
        assert ev.value == fin(F(1, 2))  # coupling there is 1/4  [DERIVED]
        assert not touches(g, (F(1, 2),), (F(1, 2),))

    def test_flat_graph_touches_off_graph(self):
        # {(0,0), (0,1)}: the convexification is 0 all along x = 0, so it
        # meets the coupling at the non-pair (0, 1/2).
        g = graph(1, [((0,), (0,)), ((0,), (1,))])
        assert touches(g, (0,), (F(1, 2),))


class TestRestriction:
    def test_drops_outside_pairs(self):
        g = graph(1, [((-1,), (0,)), ((F(1, 2),), (0,)), ((1,), (0,))])
        got = restrict_graph(g, closed_interval())
        assert [a for a, _ in got.pairs] == [(F(1, 2),), (F(1),)]

    def test_empty_set(self):
        got = restrict_graph(staircase(), EmptySet(1))
        assert got.pairs == ()

    def test_domain(self):
        got = point_set(1, [a for a, _ in staircase().pairs])
        assert got.points == ((F(0),), (F(1, 2),), (F(1),))


class TestSumValue:
    def test_pinned_example(self):
        # Staircase + normal cones of [0, 1] at (1, 3): weight 1 on the
        # pair (1, 1) and multiplier 2 on the row x <= 1 give value
        # 1 + 2 = 3 = <1, 3>.  [DERIVED]
        ev = rep_sum_value(staircase(), closed_interval(), (1,), (3,))
        assert ev.value == fin(3)
        # x = 1 forces all the weight onto the pair (1, 1), leaving dual 2
        # for the half-space part.
        assert ev.dual_shift == (F(2),)

    def test_interior_point_with_large_dual(self):
        # At x = 1/2 no cone multiplier helps reach the dual 3 cheaply;
        # the best split uses the endpoint pairs.  [DERIVED]
        ev = rep_sum_value(staircase(), closed_interval(), (F(1, 2),), (3,))
        assert ev.value == fin(F(11, 4))

    def test_off_domain_hull(self):
        ev = rep_sum_value(staircase(), closed_interval(), (2,), (0,))
        assert ev.value is POS_INF

    def test_requires_interior_anchor(self):
        shifted = make_set(1, [((-1,), -1, False), ((1,), 2, False)])  # [1, 2]
        flat = graph(1, [((0,), (0,))])
        with pytest.raises(InputError):
            rep_sum_value(flat, shifted, (1,), (0,))

    def test_enumeration_route_agrees_on_pinned_examples(self):
        t, c = staircase(), closed_interval()
        for x, xstar in [((1,), (3,)), ((F(1, 2),), (3,)), ((0,), (-2,)), ((F(1, 4),), (F(1, 4),))]:
            assert rep_sum_value(t, c, x, xstar).value == rep_sum_value_by_enumeration(
                t, c, x, xstar
            )

    def test_enumeration_route_agrees_on_corpus(self):
        for t, c in sum_instances(4, seed=31):
            probes = [p for p in t.pairs]
            zero = tuple(F(0) for _ in range(c.dim))
            probes.append((t.pairs[0][0], zero))
            for x, xstar in probes:
                lp = rep_sum_value(t, c, x, xstar).value
                brute = rep_sum_value_by_enumeration(t, c, x, xstar)
                assert lp == brute, (x, xstar)

    def test_enumeration_route_solves_no_lp(self, forbid_lp):
        # The oracle shares the joint program's rows, not its solver.
        # The staircase's domain meets both ends of the interval, so its
        # partial hull keeps both rows.
        instances = [(staircase(), closed_interval())] + sum_instances(4, seed=31)
        want = [rep_sum_value(t, c, *t.pairs[0]).value for t, c in instances]
        forbid_lp()
        got = [rep_sum_value_by_enumeration(t, c, *t.pairs[0]) for t, c in instances]
        assert got == want

    @settings(max_examples=60)
    @given(planted_programs())
    def test_one_placement_per_point_builds_the_same_program(self, query):
        t, c, (x, xstar) = query
        assert program_parts(t, c, x, xstar) == program_reference(t, c)

    def test_refusal_without_an_interior_domain_point(self):
        # The staircase's domain is {0, 1/2, 1}: 1 lies on the boundary of [1, 2].
        one_to_two = make_set(1, [((-1,), -1, False), ((1,), 2, False)])
        assert program_reference(staircase(), one_to_two) == INTERIOR_REFUSAL
        assert program_parts(staircase(), one_to_two, (1,), (1,)) == INTERIOR_REFUSAL

    @settings(max_examples=40)
    @given(planted_sum_queries())
    def test_walk_agrees_with_the_plain_enumeration(self, query):
        want, calls = enumeration_reference(*query)
        got, steps = walked(*query)
        assert got == want
        assert steps <= calls


class TestSumMembership:
    def test_pinned_split(self):
        m = sum_graph_membership(staircase(), closed_interval(), (1,), (3,))
        assert m.lhs and m.rhs and m.agrees
        assert m.value == fin(3)
        assert m.shift == (F(1),)
        assert m.cone_part == (F(2),)
        cone = normal_cone_at(closed_interval(), (1,))
        assert cone_contains(cone, m.cone_part)

    def test_interior_large_dual_is_not_a_member(self):
        m = sum_graph_membership(staircase(), closed_interval(), (F(1, 2),), (3,))
        assert not m.lhs and not m.rhs and m.agrees

    def test_outside_the_set(self):
        m = sum_graph_membership(staircase(), closed_interval(), (2,), (0,))
        assert not m.lhs and not m.rhs and m.agrees

    def test_graph_pairs_are_members(self):
        t, c = staircase(), closed_interval()
        for a, astar in t.pairs:
            m = sum_graph_membership(t, c, a, astar)
            assert m.lhs and m.rhs and m.agrees, (a, astar)

    def test_corpus_agreement(self):
        for t, c in sum_instances(3, seed=37):
            zero = tuple(F(0) for _ in range(c.dim))
            probes = list(t.pairs) + [(a, zero) for a, _ in t.pairs[:2]]
            for x, xstar in probes:
                m = sum_graph_membership(t, c, x, xstar)
                assert m.agrees, (x, xstar)

    def test_selftest_builds_the_sum_program_once_per_route(self, monkeypatch):
        # The membership route's value is the joint LP's, so the self-test
        # compares it with the enumeration and solves no third program.
        from phk import selftest

        calls = []
        build = representability._sum_program

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(representability, "_sum_program", counted)
        checked = list(selftest._sum(0, 4))
        assert checked and all(good for good, _ in checked)
        assert len(calls) == 2 * len(checked)

    def test_a_query_places_each_point_once_per_program(self, monkeypatch):
        # Per query with x in the set: k placements in each of the two
        # joint programs, whose first also gives the membership route its
        # restricted graph, and one for x, which gives both its membership
        # and its active rows.
        real = polyhedra.row_signs
        instances = [(staircase(), closed_interval(), (F(1),), (F(3),))]
        for t, c in sum_instances(4, seed=31):
            x = next(a for a, _ in t.pairs if polyhedra.contains(c, a))
            instances.append((t, c, x, tuple(F(1) for _ in x)))
        placed = []

        def counted(c, x):
            placed.append(x)
            return real(c, x)

        for name, mod in list(sys.modules.items()):
            if name.startswith("phk") and getattr(mod, "row_signs", None) is real:
                monkeypatch.setattr(mod, "row_signs", counted)
        for t, c, x, xstar in instances:
            placed.clear()
            sum_graph_membership(t, c, x, xstar)
            rep_sum_value_by_enumeration(t, c, x, xstar)
            assert len(placed) == 2 * len(t.pairs) + 1, (t, c, x)


def strictly_monotone_graphs(dim, count, seed):
    """Graphs of 2 to 2 dim pairs, fewer than the 2 dim + 1 rows that could
    span, in the unit box, each with positive increment products: such a
    graph touches the coupling at its pairs only, so a probe sweeps its
    whole grid."""
    rng = random.Random(seed)
    half = [F(k, 2) for k in range(-2, 3)]
    out = []
    while len(out) < count:
        pairs = [
            (tuple(rng.choice(half[2:]) for _ in range(dim)), tuple(rng.choice(half) for _ in range(dim)))
            for _ in range(rng.randint(2, 2 * dim))
        ]
        if all(
            sum((p - q) * (r - w) for p, q, r, w in zip(a, b, astar, bstar)) > 0
            for (a, astar), (b, bstar) in combinations(pairs, 2)
        ):
            out.append(graph(dim, pairs))
    return out


def square():
    return make_set(
        2, [((1, 0), 1, False), ((0, 1), 1, False), ((-1, 0), 0, False), ((0, -1), 0, False)]
    )


class TestProbe:
    def test_touches_agree_with_the_barycentric_lp_and_elimination(self, monkeypatch):
        """Every maximum the probe asks of its ``SupportLP`` is ``rep_value``
        of the restricted graph, and ``fm_maximize``'s over the same rows."""
        asked = []

        class Recorded(SupportLP):
            def __init__(self, rows, dim):
                super().__init__(rows, dim)
                self.rows = rows

            def maximum(self, objective):
                top = super().maximum(objective)
                asked.append((self.rows, objective, top))
                return top

        monkeypatch.setattr(representability, "SupportLP", Recorded)
        gradient = graph(2, [((0, 0), (0, 0)), ((1, 0), (2, 1)), ((0, 1), (1, 2))])
        probes = [(staircase(), closed_interval(), GridSpec()), (gradient, square(), GridSpec())]
        # Quarter steps hold the midpoints of the pairs.
        quarters = GridSpec(step=F(1, 4), halfwidth=1)
        probes += [(t, closed_interval(), quarters) for t in strictly_monotone_graphs(1, 10, 1)]
        probes += [
            (t, square(), GridSpec(halfwidth=1)) for t in strictly_monotone_graphs(2, 6, 2)
        ]
        seen = {True: 0, False: 0, None: 0}
        for t, c, grid in probes:
            asked.clear()
            r = representability_probe(t, c, grid)
            assert r.verdict == "candidate-verified-on-grid"
            # The graph pairs are asked first, and the grid pairs they skip.
            assert len(asked) >= r.grid_points * r.dual_points
            tc = restrict_graph(t, c)
            n = tc.dim
            for rows, objective, top in asked:
                assert objective[0] == 1
                x, xstar = objective[1 : n + 1], objective[n + 1 :]
                value = rep_value(tc, x, xstar).value
                assert (top is None) == (value is POS_INF)
                assert top is None or fin(top) == value
                status, fm = fm_maximize(objective, rows)
                assert status != "infeasible" and (status == "unbounded") == (top is None)
                assert fm == top
                touch = top is not None and top == sum(p * q for p, q in zip(x, xstar))
                assert touch == touches(tc, x, xstar)
                seen[None if top is None else touch] += 1
        assert all(seen.values()), seen

    def test_staircase_survives_the_grid(self):
        r = representability_probe(staircase(), closed_interval())
        assert r.verdict == "candidate-verified-on-grid"
        assert r.witness is None
        assert r.grid_points > 0 and r.dual_points > 0
        assert r.pairs_checked > 0

    def test_flat_graph_is_falsified(self):
        wide = make_set(1, [((-1,), 1, False), ((1,), 1, False)])  # [-1, 1]
        flat = graph(1, [((0,), (0,)), ((0,), (1,))])
        r = representability_probe(flat, wide)
        assert r.verdict == "falsified"
        assert r.witness is not None
        x, xstar = r.witness
        assert x == (F(0),)
        assert touches(restrict_graph(flat, wide), x, xstar)

    def test_non_monotone_is_refused(self):
        bad = graph(1, [((0,), (1,)), ((1,), (0,))])
        r = representability_probe(bad, closed_interval())
        assert r.verdict == "refused-not-monotone"

    def test_finer_grid(self):
        r = representability_probe(
            staircase(), closed_interval(), GridSpec(step=F(1, 4), halfwidth=1)
        )
        assert r.verdict == "candidate-verified-on-grid"

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            representability_probe(staircase(), make_set(2, []))

    def test_grid_size_counts_without_building(self):
        boxes = [
            ((F(0),), (F(1),), F(1, 2)),
            ((F(-2), F(0)), (F(2), F(1, 3)), F(1, 3)),
            ((F(0), F(1)), (F(1), F(0)), F(1)),
            ((F(-1, 2),) * 3, (F(1),) * 3, F(2, 5)),
        ]
        for lo, hi, step in boxes:
            assert grid_size(lo, hi, step) == len(rational_grid(lo, hi, step))

    def test_oversized_grid_is_refused_before_it_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("grid built")

        monkeypatch.setattr(representability, "rational_grid", refuse)
        square = make_set(
            2, [((1, 0), 1, False), ((0, 1), 1, False), ((-1, 0), 0, False), ((0, -1), 0, False)]
        )
        gradient = graph(2, [((0, 0), (0, 0)), ((1, 0), (2, 1)), ((0, 1), (1, 2))])
        # 1001^2 grid points times 4001^2 duals at halfwidth 2.
        with pytest.raises(ScaleLimitError, match="16040033010001"):
            representability_probe(gradient, square, GridSpec(step=F(1, 1000)))

    @pytest.mark.parametrize("step", [F(0), F(-1, 2)])
    def test_a_step_that_is_not_positive_is_refused(self, step, monkeypatch):
        # A negative step passes the cap, and its grid would never end.
        def refuse(*args):
            raise AssertionError("grid built")

        monkeypatch.setattr(representability, "rational_grid", refuse)
        gradient = graph(2, [((0, 0), (0, 0)), ((1, 0), (2, 1)), ((0, 1), (1, 2))])
        with pytest.raises(InputError, match="grid step must be positive"):
            representability_probe(gradient, square(), GridSpec(step=step))

    def test_oversized_enumeration_is_refused_before_the_walk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumeration walked")

        monkeypatch.setattr(representability, "eliminate", refuse)
        square = make_set(
            2, [((1, 0), 1, False), ((0, 1), 1, False), ((-1, 0), 0, False), ((0, -1), 0, False)]
        )
        points = [(F(i, 9), F(j, 5)) for i in range(10) for j in range(6)]
        diagonal = graph(2, [(p, p) for p in points])
        # 60 pair columns and 4 row columns against 5 equations.
        subsets = sum(comb(64, size) for size in range(6))
        assert subsets > representability.ENUMERATION_SUBSET_CAP
        half = (F(1, 2), F(1, 2))
        with pytest.raises(ScaleLimitError, match=f"walk {subsets} column subsets"):
            rep_sum_value_by_enumeration(diagonal, square, half, half)
