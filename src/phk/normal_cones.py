"""Support function, normal cones, and the portable hull membership test.

Everything here is exact.  The support function of a partially open
polyhedron equals the support function of its carrier, but whether the
supremum is *attained inside the set* depends on the strict rows, so the
full evaluation carries an attainment flag and, when attained, a witness
point.  Attainment costs a second LP and is computed on request:
``support_level`` returns the value alone, ``support_value`` adds the
attainment data.  Both read and fill the set's one support memo.  The value
LP reads no point, so ``support_level`` solves it as its n-row dual through
``lp.max_value``; a valid set is nonempty, which that dual needs to be exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .linalg import Vec, dot, vec
from .lp import max_value, strict_system_feasible
from .polyhedra import (
    EmptySet,
    GeneratedCone,
    PartiallyOpenPolyhedron,
    contains,
    require_valid,
    row_signs,
    signs_inside,
    system_of,
)
from .scalars import ExtValue, NEG_INF, POS_INF, fin


@dataclass(frozen=True, slots=True)
class SupportEvaluation:
    """Value of the support function at one direction, with attainment data."""

    value: ExtValue
    attained_in_set: bool
    witness: Vec | None


def support_level(c: PartiallyOpenPolyhedron | EmptySet, xstar) -> ExtValue:
    """sup of <xstar, x> over the set, without the attainment data.

    One support LP on a memo miss, none on a hit; the value equals
    ``support_value(c, xstar).value``.
    """
    x = vec(xstar, c.dim)
    if isinstance(c, EmptySet):
        return NEG_INF
    record = require_valid(c)
    known = record.support.get(x)
    if known is None:
        # A valid set is nonempty, as ``max_value`` requires.
        top = max_value(x, c.carrier.rows)
        known = POS_INF if top is None else fin(top)
        record.remember_support(x, known)
    return known.value if isinstance(known, SupportEvaluation) else known


def support_value(c: PartiallyOpenPolyhedron | EmptySet, xstar) -> SupportEvaluation:
    """sup of <xstar, x> over the set, as an ExtValue, with attainment data.

    The empty set gives -inf.  An unbounded direction gives +inf (never
    attained).  A finite value is attained on the carrier by construction;
    the flag records whether some maximizer survives the strict rows, and
    the witness is such a point when one exists.  A value already in the
    memo is reused, so only the attainment LP runs.
    """
    x = vec(xstar, c.dim)
    if isinstance(c, EmptySet):
        return SupportEvaluation(NEG_INF, False, None)
    record = require_valid(c)
    known = record.support.get(x)
    if isinstance(known, SupportEvaluation):
        return known
    value = support_level(c, x)
    if value.is_finite:
        level = value.finite_value
        face = system_of(c) + (
            (x, level, False),
            (tuple(-q for q in x), -level, False),
        )
        witness = strict_system_feasible(face)
        ev = SupportEvaluation(value, witness is not None, witness)
    else:
        ev = SupportEvaluation(value, False, None)
    record.remember_support(x, ev)
    return ev


def supporting_rows(c: PartiallyOpenPolyhedron) -> tuple[int, ...]:
    """Indices of carrier rows whose hyperplane meets the set itself."""
    return tuple(i for i, _ in supporting_row_witnesses(c))


def supporting_row_witnesses(c: PartiallyOpenPolyhedron) -> tuple[tuple[int, Vec], ...]:
    """(row index, point of the set on that row's hyperplane) pairs."""
    record = require_valid(c)
    if record.witnesses is None:
        record.witnesses = _hyperplanes_meeting(c, system_of(c))
    return record.witnesses


def _hyperplanes_meeting(c: PartiallyOpenPolyhedron, system) -> tuple[tuple[int, Vec], ...]:
    """(row index, point) for each carrier row whose hyperplane meets the
    strict ``system``: one feasibility LP per row, in row order."""
    found = []
    for i, (normal, offset) in enumerate(c.carrier.rows):
        witness = strict_system_feasible(
            system + ((tuple(-q for q in normal), -offset, False),)
        )
        if witness is not None:
            found.append((i, witness))
    return tuple(found)


def in_portable_hull(c: PartiallyOpenPolyhedron | EmptySet, x) -> bool:
    """Membership in the intersection of the supporting half-spaces.

    For the empty set that intersection is the whole space.
    """
    p = vec(x, c.dim)
    if isinstance(c, EmptySet):
        return True
    supported = supporting_rows(c)
    signs = row_signs(c, p)
    return all(signs[i] <= 0 for i in supported)


def normal_cone_at(c: PartiallyOpenPolyhedron, x) -> GeneratedCone:
    """Cone generated by the normals of the rows active at a point of the set."""
    require_valid(c)
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
    require_valid(c)
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
    require_valid(c)
    rows = tuple((normal, offset, True) for normal, offset in c.carrier.rows)
    if not rows:
        return tuple(Fraction(0) for _ in range(c.dim))
    return strict_system_feasible(rows)


def strictly_inside(c: PartiallyOpenPolyhedron, x) -> bool:
    return all(s < 0 for s in row_signs(c, vec(x, c.dim)))


def set_member_witness(c: PartiallyOpenPolyhedron) -> Vec:
    """Some point of a valid (hence nonempty) set."""
    require_valid(c)
    if not c.carrier.rows:
        return tuple(Fraction(0) for _ in range(c.dim))
    witness = strict_system_feasible(system_of(c))
    assert witness is not None, "validated sets are nonempty"
    return witness
