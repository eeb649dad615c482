"""Support function, normal cones, and the portable hull membership test.

Everything here is exact.  The support function of a partially open
polyhedron equals the support function of its carrier, but whether the
supremum is *attained inside the set* depends on the strict rows, so the
full evaluation carries an attainment flag and, when attained, a witness
point.  Attainment costs a second LP and is computed on request:
``support_level`` returns the value alone, ``support_value`` adds the
attainment data, and neither remembers a value.  The value LP reads no
point, so ``support_level`` solves it as its n-row dual through the set's
one ``lp.SupportLP``; a valid set is nonempty, so that dual's None is
+inf, never emptiness.  The duals of one set share the dual program's matrix and costs, so
each dual after the first re-solves from the last optimal tableau by
Bland-rule dual simplex pivots, often none, a repeated dual included.
The supporting rows are the weak rows; a point on a row's hyperplane
costs one margin LP, ``_on_row``'s program, solved where it is read.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InputError
from .linalg import Vec, dot, vec
from .lp import SupportLP, strict_system_feasible
from .polyhedra import (
    EmptySet,
    GeneratedCone,
    PartiallyOpenPolyhedron,
    contains,
    row_signs,
    signs_inside,
    system_of,
)
from .scalars import ExtValue, NEG_INF, POS_INF, fin


class SupportEvaluation(NamedTuple):
    """Value of the support function at one direction, with attainment data."""

    value: ExtValue
    attained_in_set: bool
    witness: Vec | None


def support_level(c: PartiallyOpenPolyhedron | EmptySet, xstar) -> ExtValue:
    """sup of <xstar, x> over the set, without the attainment data.

    One support LP, asked of the set's ``SupportLP``; the value equals
    ``support_value(c, xstar).value``.  The ``SupportLP`` is made on first
    use; duals solve cold until one ends optimal, and each later one
    re-solves from the last optimal tableau by dual simplex.
    """
    x = vec(xstar, c.dim)
    if isinstance(c, EmptySet):
        return NEG_INF
    record = c._record
    if record.support_lp is None:
        # A valid set is nonempty, so a None below is +inf.
        record.support_lp = SupportLP(c.carrier.rows, c.dim)
    top = record.support_lp.maximum(x)
    return POS_INF if top is None else fin(top)


def support_value(c: PartiallyOpenPolyhedron | EmptySet, xstar) -> SupportEvaluation:
    """sup of <xstar, x> over the set, as an ExtValue, with attainment data.

    The empty set gives -inf.  An unbounded direction gives +inf (never
    attained).  A finite value is attained on the carrier by construction;
    the flag records whether some maximizer survives the strict rows, and
    the witness is such a point when one exists.  Each call runs
    ``support_level`` and, on a finite value, the attainment LP.
    """
    x = vec(xstar, c.dim)
    if isinstance(c, EmptySet):
        return SupportEvaluation(NEG_INF, False, None)
    value = support_level(c, x)
    if not value.is_finite:
        return SupportEvaluation(value, False, None)
    level = value.finite_value
    face = system_of(c) + (
        (x, level, False),
        (tuple(-q for q in x), -level, False),
    )
    witness = strict_system_feasible(face)
    return SupportEvaluation(value, witness is not None, witness)


def supporting_rows(c: PartiallyOpenPolyhedron) -> tuple[int, ...]:
    """Indices of carrier rows whose hyperplane meets the set itself: the
    weak rows, with no LP.  A valid set's carrier is canonical, hence
    nonempty and irredundant: some x' violates row i and no other row.  A
    point z of the set meets every strict row strictly, and the segment
    from z to x' crosses row i's hyperplane at (1 - t) z + t x', t < 1.
    That point meets every other row, every strict row strictly, so it is
    in the set when row i is weak.  A strict row's hyperplane misses the set.
    """
    return tuple(i for i in range(len(c.carrier.rows)) if i not in c.strict_rows)


def supporting_row_witnesses(c: PartiallyOpenPolyhedron) -> tuple[tuple[int, Vec], ...]:
    """(row index, point of the set on that row's hyperplane) pairs, one
    witness LP per supporting row; nothing is kept."""
    return _hyperplanes_meeting(c, system_of(c))


def _hyperplanes_meeting(c: PartiallyOpenPolyhedron, system) -> tuple[tuple[int, Vec], ...]:
    """(row index, point) for each carrier row whose hyperplane meets the
    strict ``system``, which holds the set's own rows: one ``_on_row``
    program per supporting row of ``c``, in row order.  A strict row of
    ``c`` meets nothing, since the system would hold both ``n . x < o`` and
    ``n . x >= o``."""
    found = []
    for i in supporting_rows(c):
        witness = strict_system_feasible(_on_row(system, c.carrier.rows[i]))
        if witness is not None:
            found.append((i, witness))
    return tuple(found)


def _on_row(system, row) -> tuple:
    """The witness program: ``system`` and ``n . x >= o`` for its ``row`` (n, o)."""
    normal, offset = row
    return (*system, (tuple(-q for q in normal), -offset, False))


def in_portable_hull(c: PartiallyOpenPolyhedron | EmptySet, x) -> bool:
    """Membership in the intersection of the supporting half-spaces.

    For the empty set that intersection is the whole space.
    """
    p = vec(x, c.dim)
    if isinstance(c, EmptySet):
        return True
    signs = row_signs(c, p)
    return all(signs[i] <= 0 for i in supporting_rows(c))


def normal_cone_at(c: PartiallyOpenPolyhedron, x) -> GeneratedCone:
    """Cone generated by the normals of the rows active at a point of the set."""
    signs = row_signs(c, vec(x, c.dim))
    if not signs_inside(c, signs):
        raise InputError("normal cone requested at a point outside the set")
    return GeneratedCone(c.dim, _active_normals(c, signs))


def _active_normals(c: PartiallyOpenPolyhedron, signs) -> tuple[Vec, ...]:
    """Normals of the carrier rows whose hyperplane holds the point that
    has these ``row_signs``."""
    return tuple(normal for (normal, _), s in zip(c.carrier.rows, signs) if s == 0)


def in_normal_cone(c: PartiallyOpenPolyhedron, x, xstar) -> bool:
    """Graph membership: x in the set and <xstar, x> equals the support value."""
    p = vec(x, c.dim)
    d = vec(xstar, c.dim)
    if not contains(c, p):
        return False
    return support_level(c, d) == fin(dot(p, d))


def in_range(c: PartiallyOpenPolyhedron, xstar) -> bool:
    """Is some point of the set a maximizer of <xstar, .>?  The maximizer
    itself is ``support_value(c, xstar).witness``."""
    return support_value(c, xstar).attained_in_set


def interior_point_of_carrier(c: PartiallyOpenPolyhedron) -> Vec | None:
    """A point satisfying every carrier row strictly, if one exists."""
    rows = tuple((normal, offset, True) for normal, offset in c.carrier.rows)
    if not rows:
        return tuple(Fraction(0) for _ in range(c.dim))
    return strict_system_feasible(rows)


def strictly_inside(c: PartiallyOpenPolyhedron, x) -> bool:
    return all(s < 0 for s in row_signs(c, vec(x, c.dim)))


def set_member_witness(c: PartiallyOpenPolyhedron) -> Vec:
    """Some point of a valid (hence nonempty) set: the strict-region point
    ``make_set`` kept, or else the same LP's point, solved here."""
    record = c._record
    if record.member is not None:
        return record.member
    if not c.carrier.rows:
        return tuple(Fraction(0) for _ in range(c.dim))
    witness = strict_system_feasible(system_of(c))
    assert witness is not None, "validated sets are nonempty"
    return witness
