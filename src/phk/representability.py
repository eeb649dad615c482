"""Convexified coupling values for finite graphs and operator sums.

The central object is the least convex lower-semicontinuous function that
agrees with the coupling on a finite graph.  On the graph's convex hull it
is a finite minimum over barycentric weights, which is a small exact LP;
off the hull it is +inf.  For a graph summed with a polyhedral normal-cone
operator the value is a joint program over weights and row multipliers.
Both routes to it share that program's one equality system and differ only
in the solver: the simplex of ``lp_solve``, or a brute-force walk over the
basic solutions that uses nothing from ``lp``.  So the two can be played
against each other in tests.  Graph membership for the sum solves the
simplex route's program and reads the restricted graph from it, so a query
builds the program once per route and places each graph pair once in each.
The grid probe reads its values off one ``lp.SupportLP`` whose dual is the
barycentric LP, so each grid pair after the first re-solves warm.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence

from .errors import InputError, ScaleLimitError
from .fitzpatrick import MonotoneGraph, is_monotone, vec_check
from .linalg import Vec, dot, eliminate, integer_rows, vadd, vec, smul, zero_vec
from .lp import EqualityLP, Row, SupportLP, lp_solve
from .normal_cones import _active_normals
from .polyhedra import (
    EmptySet,
    PartiallyOpenPolyhedron,
    contains,
    row_signs,
    signs_inside,
)
from .portability import _rows_met
from .sampling import bounding_box, grid_size, rational_grid
from .scalars import ExtValue, POS_INF, fin


class PsiEvaluation(NamedTuple):
    """Value plus the data that certifies it: barycentric weights over the
    graph pairs and, for operator sums, the dual vector handed to the
    half-space part."""

    value: ExtValue
    coefficients: tuple[Fraction, ...] | None
    dual_shift: Vec | None


@dataclass(frozen=True, slots=True)
class SumMembership:
    lhs: bool
    rhs: bool
    agrees: bool
    value: ExtValue
    shift: Vec | None
    cone_part: Vec | None


# Largest (point, dual) grid product a probe may sweep.  Each pair is one warm maximum of
# one ``SupportLP``, 0.012-0.09 ms on a 2-vCPU Xeon VM (Python 3.11): at step 1/8 on the
# unit square, 88,212 pairs take 1.1-1.6 s for the gradient graph fixture and 1.1-8.2 s for
# random strictly monotone graphs of 3-12 pairs.  So such a probe at the cap stays within 10 s.
PROBE_PAIR_CAP = 100_000

# Most column subsets the enumeration oracle may walk, counted over every
# subset up to the number of equations before the walk starts, although the
# walk skips the supersets of dependent and of consistent subsets.  Each
# subset it visits costs one integer elimination step, about 17 us in 1-D and
# 2-D on a 2-vCPU VM (Python 3.11), so a walk at the cap stays within two
# seconds.  The benchmark's sum inputs allow at most 120 subsets (3 pairs and
# 4 box rows against 5 equations).
ENUMERATION_SUBSET_CAP = 100_000


class GridSpec(NamedTuple):
    step: Fraction = Fraction(1, 2)
    halfwidth: int = 2


class ProbeReport(NamedTuple):
    verdict: str
    witness: tuple[Vec, Vec] | None
    grid_points: int
    dual_points: int
    pairs_checked: int


def _barycentric_rows(
    pairs: Sequence[tuple[Vec, Vec]], extra: Sequence[Vec], x: Vec, xstar: Vec
) -> list[Row]:
    """Equality rows of barycentric representation, over nonnegative columns.

    Columns are one weight per graph pair, then one multiplier per ``extra``
    dual vector, which enters the dual side only.  The rows are 1 + 2n
    equations: the weights sum to one, then they reproduce x coordinate by
    coordinate, then the weights and multipliers reproduce xstar.
    """
    zeros = (Fraction(0),) * len(extra)
    rows: list[Row] = [((Fraction(1),) * len(pairs) + zeros, Fraction(1))]
    for coord in range(len(x)):
        rows.append((tuple(a[coord] for a, _ in pairs) + zeros, x[coord]))
    for coord in range(len(x)):
        d_row = tuple(astar[coord] for _, astar in pairs) + tuple(v[coord] for v in extra)
        rows.append((d_row, xstar[coord]))
    return rows


def rep_value(g: MonotoneGraph, x, xstar) -> PsiEvaluation:
    """Least lsc convex function matching the coupling on the graph.

    Finite exactly when (x, xstar) is a barycenter of graph pairs; the
    value is then the matching combination of the pair couplings.
    """
    p, d = vec_check(g.dim, x, xstar)
    if not g.pairs:
        return PsiEvaluation(POS_INF, None, None)
    costs = tuple(-dot(a, astar) for a, astar in g.pairs)
    out = lp_solve(EqualityLP(costs, tuple(_barycentric_rows(g.pairs, (), p, d))))
    if out.status == "infeasible":
        return PsiEvaluation(POS_INF, None, None)
    assert out.status == "optimal", "weights live in a bounded simplex"
    return PsiEvaluation(fin(-out.value), out.primal, None)


def restrict_graph(
    g: MonotoneGraph, c: PartiallyOpenPolyhedron | EmptySet
) -> MonotoneGraph:
    """Drop pairs whose primal point lies outside the set."""
    if isinstance(c, EmptySet):
        if c.dim != g.dim:
            raise InputError("dimension mismatch")
        return MonotoneGraph(g.dim, ())
    if c.dim != g.dim:
        raise InputError("dimension mismatch")
    return MonotoneGraph(g.dim, tuple(p for p in g.pairs if contains(c, p[0])))


def _sum_program(t: MonotoneGraph, c: PartiallyOpenPolyhedron, x, xstar):
    """The joint program that both routes to the sum value solve.

    Checks the input, then returns the dual ``d``, the graph restricted to
    the set, and the program's costs and equality rows over nonnegative
    columns: graph weights first, then one multiplier per row of the
    partial hull of the set probed at the graph's domain points, which
    prices the half-space part at the shifted dual.  The rows are
    ``_barycentric_rows`` with the hull normals as extra dual vectors.  The
    routes differ only in the solver: ``lp_solve``, or a walk over basic
    solutions.

    Each domain point is placed once, by one ``row_signs`` vector, which
    answers all three questions: is some point strictly inside the carrier
    (all signs negative), which pairs lie in the set (``signs_inside``), and
    which hull rows a point of the set meets (``_rows_met``).  The interior
    pair lies in the set, so the restricted graph is never empty.
    """
    if t.dim != c.dim:
        raise InputError("dimension mismatch")
    p, d = vec_check(c.dim, x, xstar)
    signs = [row_signs(c, vec(a, c.dim)) for a, _ in t.pairs]
    if not any(all(s < 0 for s in sg) for sg in signs):
        raise InputError(
            "the graph needs a domain point strictly inside the set's carrier"
        )
    tc = MonotoneGraph(
        t.dim, tuple(pair for pair, sg in zip(t.pairs, signs) if signs_inside(c, sg))
    )
    hull = [c.carrier.rows[i] for i in _rows_met(c, signs)]
    costs = [dot(a, astar) for a, astar in tc.pairs] + [o for _, o in hull]
    rows = _barycentric_rows(tc.pairs, [n for n, _ in hull], p, d)
    return d, tc, costs, rows


def rep_sum_value(
    t: MonotoneGraph, c: PartiallyOpenPolyhedron, x, xstar
) -> PsiEvaluation:
    """Convexified coupling of the graph summed with the set's normal cones.

    Requires a graph domain point strictly inside the carrier; the value is
    a single joint LP whose half-space part runs over the partial hull of
    the set probed at the graph's domain points.
    """
    return _sum_solve(*_sum_program(t, c, x, xstar))


def _sum_solve(d: Vec, tc: MonotoneGraph, costs, rows) -> PsiEvaluation:
    """The sum value of one ``_sum_program``, by ``lp_solve``."""
    out = lp_solve(EqualityLP(tuple(-q for q in costs), tuple(rows)))
    if out.status == "infeasible":
        return PsiEvaluation(POS_INF, None, None)
    assert out.status == "optimal", "the sum value is bounded below"
    lam = out.primal[: len(tc.pairs)]
    shift = d
    for w, (_, astar) in zip(lam, tc.pairs):
        shift = tuple(s - w * q for s, q in zip(shift, astar))
    return PsiEvaluation(fin(-out.value), lam, shift)


def rep_sum_value_by_enumeration(
    t: MonotoneGraph, c: PartiallyOpenPolyhedron, x, xstar
) -> ExtValue:
    """Same value by enumerating basic solutions of the joint program.

    Any attained minimum of a bounded program over a pointed feasible
    region sits at a basic solution, whose support picks linearly
    independent columns; checking every independent column subset of the
    equality system is therefore complete, if slow.  The subsets are walked
    depth-first in increasing column order, starting from a graph weight,
    since without one the weights cannot sum to one.  The walk carries the
    integer rows ``[A | b]`` reduced on the chosen columns, and adds a
    column by one ``eliminate`` step on a row that no chosen column pivots
    on.  A column with no such row depends on the chosen ones, so that
    subset and all its supersets are skipped.  A subset is consistent when
    ``b`` is zero on every other row, and its weights are then ``b`` over
    the pivots; every independent superset has the same solution, so the
    walk goes no deeper.  Walks of more than ``ENUMERATION_SUBSET_CAP``
    subsets, counted over all of them, are refused before any work.
    """
    _, tc, costs, rows = _sum_program(t, c, x, xstar)
    total = len(costs)
    neq = len(rows)
    subsets = sum(comb(total, size) for size in range(min(total, neq) + 1))
    if subsets > ENUMERATION_SUBSET_CAP:
        raise ScaleLimitError(
            f"enumeration would walk {subsets} column subsets, "
            f"above the cap of {ENUMERATION_SUBSET_CAP}"
        )

    def values(mat: list[list[int]], basis: list[tuple[int, int]], free: list[int], cols: range):
        """Values of the nonnegative basic solutions whose columns extend
        ``basis`` (chosen columns with their pivot rows) by columns from
        ``cols``; ``free`` lists the rows no chosen column pivots on."""
        for j in cols:
            r = next((i for i in free if mat[i][j]), None)
            if r is None:
                continue  # j depends on the chosen columns
            reduced = eliminate(mat, r, j)
            chosen = basis + [(j, r)]
            rest = [i for i in free if i != r]
            if any(reduced[i][-1] for i in rest):
                yield from values(reduced, chosen, rest, range(j + 1, total))
            elif all(reduced[i][-1] * reduced[i][k] >= 0 for k, i in chosen):
                yield sum(costs[k] * Fraction(reduced[i][-1], reduced[i][k]) for k, i in chosen)

    start = integer_rows([(*a, b) for a, b in rows])
    least = min(values(start, [], list(range(neq)), range(len(tc.pairs))), default=None)
    return POS_INF if least is None else fin(least)


def sum_graph_membership(
    t: MonotoneGraph, c: PartiallyOpenPolyhedron, x, xstar
) -> SumMembership:
    """Two routes to graph membership for the sum operator.

    The left route asks whether the convexified coupling of the sum equals
    the raw coupling.  The right route looks for an explicit split of the
    dual vector into a graph part attaining the convexified coupling of
    the restricted graph and a normal-cone part at x; a found split is
    re-verified exactly before being believed.  Both read the restricted
    graph from one ``_sum_program``, which places each graph pair once.
    """
    p, d = vec_check(c.dim, x, xstar)
    _, tc, costs, joint = _sum_program(t, c, p, d)
    ev = _sum_solve(d, tc, costs, joint)
    lhs = ev.value.is_finite and ev.value.finite_value == dot(p, d)

    rhs = False
    shift: Vec | None = None
    cone_part: Vec | None = None
    # One placement of x says whether it lies in the set and gives its active rows.
    signs = row_signs(c, p)
    if signs_inside(c, signs):
        gens = _active_normals(c, signs)
        k = len(tc.pairs)  # at least the interior pair that _sum_program required
        # Costs plus prices stay within <p, d>; the last column is that
        # bound's slack, a zero extra vector absent from the other rows.
        bound = [dot(a, astar) for a, astar in tc.pairs] + [dot(p, gen) for gen in gens]
        rows = _barycentric_rows(tc.pairs, (*gens, zero_vec(c.dim)), p, d)
        rows.append((tuple(bound) + (Fraction(1),), dot(p, d)))
        got = lp_solve(EqualityLP(zero_vec(k + len(gens) + 1), tuple(rows)))
        if got.status == "optimal":
            np = zero_vec(c.dim)
            for w, gen in zip(got.primal[k:], gens):
                np = vadd(np, smul(w, gen))
            tp = tuple(q - r for q, r in zip(d, np))
            check = rep_value(tc, p, tp)
            if check.value.is_finite and check.value.finite_value == dot(p, tp):
                rhs = True
                shift = tp
                cone_part = np
    return SumMembership(
        lhs=lhs,
        rhs=rhs,
        agrees=lhs == rhs,
        value=ev.value,
        shift=shift,
        cone_part=cone_part,
    )


def representability_probe(
    t: MonotoneGraph,
    c: PartiallyOpenPolyhedron,
    grid: GridSpec | None = None,
) -> ProbeReport:
    """Grid search for points where the convexified coupling touches the
    coupling away from the restricted graph.

    Refuses non-monotone input.  Every restricted graph pair must attain
    equality; a non-pair grid point attaining it falsifies the candidate,
    and a clean sweep is reported as verified on this grid only.  A step
    that is not positive, and grids whose product exceeds
    ``PROBE_PAIR_CAP``, are refused before any work.

    ``rep_value`` of the restricted graph at (x, x*) is the dual of the sup of
    r + <x, u> + <x*, v> over the rows r + <a, u> + <a*, v> <= <a, a*>, one per
    pair, which hold (min <a, a*>, 0, 0): one ``SupportLP`` answers every pair,
    and its None is the +inf off the graph's hull.
    """
    if t.dim != c.dim:
        raise InputError("dimension mismatch")
    grid = grid or GridSpec()
    if grid.step <= 0:
        raise InputError("grid step must be positive")
    if not is_monotone(t):
        return ProbeReport("refused-not-monotone", None, 0, 0, 0)
    lo, hi = bounding_box(c)
    half = Fraction(grid.halfwidth)
    dlo = tuple(-half for _ in range(c.dim))
    dhi = tuple(half for _ in range(c.dim))
    size = grid_size(lo, hi, grid.step) * grid_size(dlo, dhi, grid.step)
    if size > PROBE_PAIR_CAP:
        raise ScaleLimitError(
            f"grid probe would check {size} pairs, above the cap of {PROBE_PAIR_CAP}"
        )
    tc = restrict_graph(t, c)
    pairs = set(tc.pairs)
    rows = tuple(((Fraction(1), *a, *astar), dot(a, astar)) for a, astar in tc.pairs)
    values = SupportLP(rows, 2 * c.dim + 1)

    def touches(x: Vec, xstar: Vec) -> bool:
        return values.maximum((Fraction(1), *x, *xstar)) == dot(x, xstar)

    checked = 0
    for a, astar in tc.pairs:
        checked += 1
        if not touches(a, astar):
            return ProbeReport("falsified", (a, astar), 0, 0, checked)

    xs = [q for q in rational_grid(lo, hi, grid.step) if contains(c, q)]
    ds = rational_grid(dlo, dhi, grid.step)
    for xg in xs:
        for dg in ds:
            checked += 1
            if (xg, dg) not in pairs and touches(xg, dg):
                return ProbeReport("falsified", (xg, dg), len(xs), len(ds), checked)
    return ProbeReport(
        "candidate-verified-on-grid", None, len(xs), len(ds), checked
    )
