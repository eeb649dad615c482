"""Face lattice of a partially open polyhedron's carrier.

Faces are recovered from the generator description: every nonempty face of
the carrier contains at least one of the representative vertices, so the
active-row sets of the faces are exactly the intersections of the tight-row
sets of the generators it contains.  That makes enumeration a small closure
computation instead of a walk over row subsets.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import ScaleLimitError
from .linalg import Vec, dot
from .lp import strict_system_feasible
from .polyhedra import (
    PartiallyOpenPolyhedron,
    VRep,
    carrier_vrep,
    system_of,
)

FACE_DIM_CAP = 3


class Face(NamedTuple):
    """One closed face of the carrier, with its trace on the set."""

    active: frozenset[int]
    generators: VRep
    meets_set: bool
    rep_point: Vec | None


def enumerate_faces(c: PartiallyOpenPolyhedron) -> tuple[Face, ...]:
    """All nonempty closed faces of the carrier, the carrier itself included.

    Capped at dimension 3: the count grows too fast beyond that for the
    exact arithmetic used here.
    """
    record = c._record
    if c.dim > FACE_DIM_CAP:
        raise ScaleLimitError(
            f"face enumeration supports dimension <= {FACE_DIM_CAP}, got {c.dim}"
        )
    if record.faces is not None:
        return record.faces
    rows = c.carrier.rows
    gen = carrier_vrep(c)
    assert gen.vertices, "a valid set has a nonempty carrier"

    def tight(point: Vec, homogeneous: bool) -> frozenset[int]:
        if homogeneous:
            return frozenset(i for i, (n, _) in enumerate(rows) if dot(n, point) == 0)
        return frozenset(i for i, (n, b) in enumerate(rows) if dot(n, point) == b)

    vertex_tight = [tight(v, False) for v in gen.vertices]
    ray_tight = [tight(r, True) for r in gen.rays]

    # Closure of the vertex tight-sets under intersection with every
    # generator tight-set; each resulting set is the active set of the
    # smallest face containing those generators.
    seen: set[frozenset[int]] = set(vertex_tight)
    work = list(seen)
    while work:
        a = work.pop()
        for t in vertex_tight + ray_tight:
            b = a & t
            if b not in seen:
                seen.add(b)
                work.append(b)

    base = system_of(c)
    faces = []
    for active in seen:
        vs = tuple(v for v, t in zip(gen.vertices, vertex_tight) if t >= active)
        rs = tuple(r for r, t in zip(gen.rays, ray_tight) if t >= active)
        eqs = tuple(
            (tuple(-q for q in rows[i][0]), -rows[i][1], False) for i in sorted(active)
        )
        witness = strict_system_feasible(base + eqs) if base + eqs else gen.vertices[0]
        faces.append(
            Face(
                active=active,
                generators=VRep(vs, rs, gen.lineality),
                meets_set=witness is not None,
                rep_point=witness,
            )
        )
    faces.sort(key=lambda f: (len(f.active), sorted(f.active)))
    record.faces = tuple(faces)
    return record.faces
