"""Coupling-based convexifications of monotone graphs.

Two objects live here: finite monotone graphs in R^n x R^n with the exact
maximum that convexifies them, and the analogous function for the graph of
a polyhedral normal-cone operator.  For the latter there are two
independently computed routes: a closed form (indicator of the supporting
half-space intersection plus the support function) and a direct supremum
over the closed faces of the carrier, used to cross-check the closed form.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import InputError
from .faces import enumerate_faces
from .linalg import Vec, dot, vec
from .normal_cones import in_portable_hull, support_level
from .polyhedra import EmptySet, PartiallyOpenPolyhedron
from .scalars import ExtValue, NEG_INF, POS_INF, fin, sup_ext


class MonotoneGraph(NamedTuple):
    """A finite set of (point, dual point) pairs in matching dimension."""

    dim: int
    pairs: tuple[tuple[Vec, Vec], ...]


def graph(dim: int, pairs) -> MonotoneGraph:
    """Build a graph with deduplicated, deterministically ordered pairs."""
    if dim < 1:
        raise InputError(f"dimension must be positive, got {dim}")
    out = {(vec(a, dim), vec(astar, dim)) for a, astar in pairs}
    return MonotoneGraph(dim, tuple(sorted(out)))


def is_monotone(g: MonotoneGraph) -> bool:
    """Every pair of graph points has nonnegative increment product."""
    ps = g.pairs
    for i in range(len(ps)):
        a, astar = ps[i]
        for j in range(i + 1, len(ps)):
            b, bstar = ps[j]
            da = tuple(x - y for x, y in zip(a, b))
            dd = tuple(x - y for x, y in zip(astar, bstar))
            if dot(da, dd) < 0:
                return False
    return True


def fitzpatrick_value(g: MonotoneGraph, x, xstar) -> ExtValue:
    """max over graph pairs (a, a*) of <x - a, a*> + <a, x*>.

    This is the exact pointwise maximum; the empty graph gives -inf.
    """
    p, d = vec_check(g.dim, x, xstar)
    values = []
    for a, astar in g.pairs:
        values.append(fin(dot(p, astar) - dot(a, astar) + dot(a, d)))
    return sup_ext(values)


def normal_cone_fitzpatrick(
    c: PartiallyOpenPolyhedron | EmptySet, x, xstar
) -> ExtValue:
    """Closed form for the Fitzpatrick function of the normal-cone graph.

    Equals the indicator of the supporting half-space intersection at x
    plus the support value at xstar.
    """
    p, d = vec_check(c.dim, x, xstar)
    if isinstance(c, EmptySet):
        return NEG_INF
    if not in_portable_hull(c, p):
        return POS_INF
    return support_level(c, d)


def normal_cone_fitzpatrick_by_faces(
    c: PartiallyOpenPolyhedron | EmptySet, x, xstar
) -> ExtValue:
    """Independent route: supremum over closed faces that meet the set.

    For each such face the inner supremum splits into a cone part over the
    active-row normals at x (zero when x satisfies them, +inf otherwise)
    and a linear part over the face, evaluated on its generators.
    """
    p, d = vec_check(c.dim, x, xstar)
    if isinstance(c, EmptySet):
        return NEG_INF
    rows = c.carrier.rows
    best = NEG_INF
    for face in enumerate_faces(c):
        if not face.meets_set:
            continue
        if any(dot(rows[i][0], p) > rows[i][1] for i in face.active):
            return POS_INF
        g = face.generators
        if any(dot(l, d) != 0 for l in g.lineality) or any(
            dot(r, d) > 0 for r in g.rays
        ):
            return POS_INF
        term = sup_ext([fin(dot(v, d)) for v in g.vertices])
        if term > best:
            best = term
    return best


def monotonically_related(c: PartiallyOpenPolyhedron | EmptySet, x, xstar) -> bool:
    """Does (x, xstar) have nonnegative increment product with the whole graph?"""
    p, d = vec_check(c.dim, x, xstar)
    if isinstance(c, EmptySet):
        return True
    return normal_cone_fitzpatrick(c, p, d) <= fin(dot(p, d))


def graph_related(g: MonotoneGraph, x, xstar) -> bool:
    p = vec(x)
    d = vec(xstar)
    return fitzpatrick_value(g, p, d) <= fin(dot(p, d))


def vec_check(dim: int, x, xstar) -> tuple[Vec, Vec]:
    return vec(x, dim), vec(xstar, dim)
