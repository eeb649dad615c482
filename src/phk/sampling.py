"""Deterministic sample generation for sets, duals, and graph pairs.

Everything is seeded: the same ``SampleSpec`` and set always produce the
same points in the same order, which keeps the command line output and the
test suite reproducible.  Samples are exact rationals built from the
vertex/ray description of the carrier where that is available.  Repeated
points are dropped by ``linalg.int_key``.  A point's graph duals are kept
with the point, which is distinct, so a pair needs no key of its own.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .errors import ScaleLimitError
from .faces import FACE_DIM_CAP, enumerate_faces
from .linalg import Vec, int_key, scaled, unit_vec, vadd, vsub, smul, zero_vec
from .normal_cones import _active_normals, set_member_witness, supporting_row_witnesses
from .polyhedra import (
    PartiallyOpenPolyhedron,
    VRep,
    carrier_vrep,
    contains,
    row_signs,
    signs_inside,
)


# Largest ``--samples``: time grows linearly, to about 42 s for ``phk selftest`` on 2 vCPUs.
SAMPLE_COUNT_CAP = 400


@dataclass(frozen=True, slots=True)
class SampleSpec:
    seed: int = 0
    count: int = 40


def _rng(spec: SampleSpec, salt: str) -> random.Random:
    return random.Random(f"{spec.seed}:{salt}")


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4)))


def _dedupe(points: list, key=int_key) -> list:
    """The points without repeats, compared by ``key`` (``int_key`` of the
    point itself by default); each first occurrence is kept, in order."""
    seen = set()
    out = []
    for p in points:
        k = key(p)
        if k not in seen:
            seen.add(k)
            out.append(p)
    return out


def _carrier_geometry(c: PartiallyOpenPolyhedron) -> VRep:
    try:
        return carrier_vrep(c)
    except ScaleLimitError:
        return VRep((), (), ())


def points_in(c: PartiallyOpenPolyhedron, spec: SampleSpec) -> list[Vec]:
    """Deterministic points of the set: a witness, surviving vertices and
    midpoints, then seeded convex combinations (plus recession pokes)."""
    return [x for x, _ in _filtered_points_in(c, spec)]


def _placed_points_in(
    c: PartiallyOpenPolyhedron, spec: SampleSpec
) -> tuple[list[Vec], list[tuple[int, ...]]]:
    """``points_in``'s points and the ``row_signs`` of each: the witness,
    the vertices and the midpoints keep the vectors their membership pass
    computed, and only the other points are placed here."""
    placed = _filtered_points_in(c, spec)
    points = [x for x, _ in placed]
    return points, [row_signs(c, x) if sg is None else sg for x, sg in placed]


def _filtered_points_in(
    c: PartiallyOpenPolyhedron, spec: SampleSpec
) -> list[tuple[Vec, tuple[int, ...] | None]]:
    """``points_in``'s points, each with the ``row_signs`` vector that
    placed it in the set: the witness, vertices and midpoints carry one,
    and the combinations and recession pokes None."""
    rng = _rng(spec, "in")
    inner = set_member_witness(c)
    geo = _carrier_geometry(c)
    mids = [smul(Fraction(1, 2), vadd(a, b)) for a, b in combinations(geo.vertices, 2)]
    features = [(inner, row_signs(c, inner))]
    # The witness leads the list and is in the set; each distinct vertex
    # and midpoint is placed once and kept if it is in the set too.
    for x in _dedupe([inner, *geo.vertices, *mids])[1:]:
        sg = row_signs(c, x)
        if signs_inside(c, sg):
            features.append((x, sg))
    out = list(features)
    base = [x for x, _ in features]
    # Each combination is sum(w * f) / (den * total) per coordinate, over
    # the features scaled to integers by one common denominator.
    flat, den = scaled([q for f in base for q in f])
    ints = [flat[i : i + c.dim] for i in range(0, len(flat), c.dim)]
    for _ in range(spec.count):
        weights = [rng.randint(0, 4) for _ in base]
        total = sum(weights)
        if total == 0:
            continue
        point = tuple(
            Fraction(sum(w * f[j] for w, f in zip(weights, ints)), den * total)
            for j in range(c.dim)
        )
        out.append((point, None))
    for r in geo.rays:
        step = Fraction(rng.randint(1, 3), rng.choice((1, 2)))
        out.append((vadd(inner, smul(step, r)), None))
    for l in geo.lineality:
        out.append((vadd(inner, l), None))
        out.append((vsub(inner, l), None))
    return _dedupe(out, key=lambda placed: int_key(placed[0]))


def cloud_points(c: PartiallyOpenPolyhedron, spec: SampleSpec) -> list[Vec]:
    """Points in and around the set, membership not guaranteed."""
    return _cloud_from(c, spec, points_in(c, spec))


def _cloud_from(c: PartiallyOpenPolyhedron, spec: SampleSpec, inside: list[Vec]) -> list[Vec]:
    """``cloud_points`` around an already sampled ``points_in`` list (not mutated)."""
    rng = _rng(spec, "cloud")
    geo = _carrier_geometry(c)
    out = list(inside)
    inner = out[0]  # the witness point ``points_in`` lists first
    for v in geo.vertices:
        out.append(tuple([2 * a - b for a, b in zip(v, inner)]))
        for j in range(c.dim):
            out.append(v[:j] + (v[j] + 1,) + v[j + 1 :])
            out.append(v[:j] + (v[j] - 1,) + v[j + 1 :])
    for _ in range(spec.count):
        out.append(tuple(_rational(rng) for _ in range(c.dim)))
    return _dedupe(out)


def dual_vectors(c: PartiallyOpenPolyhedron, spec: SampleSpec) -> list[Vec]:
    """Dual directions: zero, units, row normals, their sums, seeded extras."""
    rng = _rng(spec, "dual")
    out: list[Vec] = [zero_vec(c.dim)]
    for j in range(c.dim):
        out.append(unit_vec(c.dim, j))
        out.append(smul(Fraction(-1), unit_vec(c.dim, j)))
    normals = [normal for normal, _ in c.carrier.rows]
    out += normals
    for a, b in combinations(normals, 2):
        out.append(vadd(a, b))
    for _ in range(spec.count):
        out.append(tuple(_rational(rng) for _ in range(c.dim)))
    return _dedupe(out)


def graph_pairs(
    c: PartiallyOpenPolyhedron, spec: SampleSpec
) -> list[tuple[Vec, Vec]]:
    """Pairs (x, x*) with x in the set and x* in the cone of active normals."""
    inside, signs = _placed_points_in(c, spec)
    return [(x, d) for x, ds in zip(inside, _duals_at(c, spec, signs)) for d in ds]


def _duals_at(
    c: PartiallyOpenPolyhedron, spec: SampleSpec, signs: list[tuple[int, ...]]
) -> list[list[Vec]]:
    """The duals ``graph_pairs`` pairs with each ``points_in`` point, given
    the points' ``row_signs``: zero, each active normal, then seeded
    combinations of them, without repeats.  The points are distinct, so
    these are the pairs without repeats too."""
    rng = _rng(spec, "pairs")
    # Both knobs scale with the requested count so that asking for more
    # samples keeps producing new pairs even when the set has few distinct
    # boundary points (one-dimensional sets in particular).
    combos = max(1, spec.count // 8)
    span = max(3, spec.count // 4)
    out: list[list[Vec]] = []
    for sg in signs:
        gens = _active_normals(c, sg)
        duals = [zero_vec(c.dim), *gens]
        for _ in range(combos if gens else 0):
            weights = [Fraction(rng.randint(0, span)) for _ in gens]
            combo = zero_vec(c.dim)
            for w, g in zip(weights, gens):
                combo = vadd(combo, smul(w, g))
            duals.append(combo)
        out.append(_dedupe(duals))
    return out


def boundary_points(c: PartiallyOpenPolyhedron, spec: SampleSpec) -> list[Vec]:
    """Points of the set lying on at least one carrier hyperplane."""
    rng = _rng(spec, "boundary")
    out: list[Vec] = [w for _, w in supporting_row_witnesses(c)]
    if c.dim <= FACE_DIM_CAP:
        for face in enumerate_faces(c):
            if not face.active or not face.meets_set:
                continue
            if face.rep_point is not None:
                out.append(face.rep_point)
            members = [v for v in face.generators.vertices if contains(c, v)]
            out += members
            anchors = members + (
                [face.rep_point] if face.rep_point is not None else []
            )
            for a, b in combinations(anchors, 2):
                t = Fraction(rng.randint(1, 3), 4)
                out.append(vadd(smul(1 - t, a), smul(t, b)))
    return _dedupe(out)


def grid_size(lo: Vec, hi: Vec, step: Fraction) -> int:
    """Number of points ``rational_grid`` builds for the box, without building it."""
    size = 1
    for a, b in zip(lo, hi):
        size *= (b - a) // step + 1 if a <= b else 0
    return size


def rational_grid(lo: Vec, hi: Vec, step: Fraction) -> list[Vec]:
    """Lattice of rationals with the given spacing covering the box."""
    axes = []
    for a, b in zip(lo, hi):
        ticks = []
        t = a
        while t <= b:
            ticks.append(t)
            t += step
        axes.append(ticks)
    return [tuple(p) for p in product(*axes)]


def bounding_box(c: PartiallyOpenPolyhedron) -> tuple[Vec, Vec]:
    """The smallest box around the carrier's vertices (rays ignored)."""
    vs = _carrier_geometry(c).vertices or (zero_vec(c.dim),)
    lo = tuple(min(v[j] for v in vs) for j in range(c.dim))
    hi = tuple(max(v[j] for v in vs) for j in range(c.dim))
    return lo, hi
