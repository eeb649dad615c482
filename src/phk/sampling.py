"""Deterministic sample generation for sets, duals, and graph pairs.

Everything is seeded: the same ``SampleSpec`` and set always produce the
same points in the same order, which keeps the command line output and the
test suite reproducible.  Samples are exact rationals built from the
vertex/ray description of the carrier where that is available.

The samplers behind ``points_in``, ``cloud_points`` and ``graph_pairs`` run
on integers, fraction-free as in Bareiss 1968: they read the carrier's
generators as the set's record keeps them, on integers
(``polyhedra.IntVRep``), and put the witness and the vertices over one
denominator by one ``lcm``.  Each point and dual is built by integer
arithmetic, and each point is placed by ``polyhedra._signs`` on the
integers it already has.  They hand out one record per point, its integers
and denominator in lowest terms with its row signs, and each dual as its
tuple of integers; ``linalg.unscaled`` alone makes ``Fraction``s of either.
They drop repeated points by the integers and denominator; the other
samplers by ``linalg.int_key``.  A point's graph duals are kept with the
point, which is distinct, so a pair needs no key of its own.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from operator import mul
from typing import NamedTuple, Sequence

from .errors import ScaleLimitError
from .faces import FACE_DIM_CAP, enumerate_faces
from .linalg import Vec, int_key, lowest, scaled, smul, unit_vec, unscaled, vadd, zero_vec
from .normal_cones import set_member_witness, supporting_row_witnesses
from .polyhedra import (
    IntVRep,
    PartiallyOpenPolyhedron,
    _signs,
    carrier_generators,
    contains,
    signs_inside,
)


# Largest ``--samples``: time grows linearly, to about 42 s for ``phk selftest`` on 2 vCPUs.
SAMPLE_COUNT_CAP = 400


class SampleSpec(NamedTuple):
    seed: int = 0
    count: int = 40


def _rng(spec: SampleSpec, salt: str) -> random.Random:
    return random.Random(f"{spec.seed}:{salt}")


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4)))


def _dedupe(points: list) -> list:
    """The points without repeats, compared by ``int_key``; each first
    occurrence is kept, in order."""
    seen = set()
    out = []
    for p in points:
        k = int_key(p)
        if k not in seen:
            seen.add(k)
            out.append(p)
    return out


def _carrier_geometry(c: PartiallyOpenPolyhedron) -> IntVRep:
    """The carrier's integer generators, or none past the conversion cap."""
    try:
        return carrier_generators(c)
    except ScaleLimitError:
        return IntVRep((), 1, (), ())


def points_in(c: PartiallyOpenPolyhedron, spec: SampleSpec) -> list[Vec]:
    """Deterministic points of the set: a witness, surviving vertices and
    midpoints, then seeded convex combinations (plus recession pokes)."""
    return [unscaled(ints, den) for ints, den, _ in _filtered_points_in(c, spec)]


# A sampled point and how it was placed, ``(ints, den, signs)``: the point
# is ``ints / den`` in lowest terms, ``den`` positive, and ``signs`` its
# ``row_signs``.  Equal points have equal ``(ints, den)``, as with ``int_key``.
_Placed = tuple[tuple[int, ...], int, tuple[int, ...]]


def _add(c: PartiallyOpenPolyhedron, out: list, seen: set, ints: list[int], den: int) -> None:
    """Append the point ``ints / den``, placed, unless ``seen`` holds it."""
    key = lowest(ints, den)
    if key not in seen:
        seen.add(key)
        ints, den = key
        out.append((ints, den, _signs(c, ints, den)))


def _over(ints: Sequence[int], den: int, common: int) -> list[int]:
    """The integers of ``ints / den`` over ``common``, a multiple of ``den``."""
    return list(ints) if den == common else [a * (common // den) for a in ints]


def _filtered_points_in(c: PartiallyOpenPolyhedron, spec: SampleSpec) -> list[_Placed]:
    """``points_in``'s points, each as its ``_Placed`` record.

    The witness and the vertices are put over one denominator d, the lcm
    of the witness's and of the carrier's ``IntVRep``, whose rays and lines
    are integers already.  So a midpoint is (a + b) / 2d, a combination
    sum(w * f) / (2d * total) over the kept features f, each over 2d, and
    a ray or line poke (w + t r) / d with t r over d.  Each candidate is
    placed once by ``_signs`` on those integers.
    """
    rng = _rng(spec, "in")
    w, wd = scaled(set_member_witness(c))
    geo = _carrier_geometry(c)
    d = lcm(wd, geo.den)
    w = _over(w, wd, d)
    verts = [_over(v, geo.den, d) for v in geo.vertices]
    # The witness leads the list and is in the set; each distinct vertex
    # and midpoint is placed once and kept if it is in the set too.
    candidates = [[2 * a for a in f] for f in (w, *verts)]
    candidates += [[p + q for p, q in zip(a, b)] for a, b in combinations(verts, 2)]
    tried = set()
    base = []
    out = []
    for i, f in enumerate(candidates):
        if (t := tuple(f)) in tried:
            continue
        tried.add(t)
        sg = _signs(c, f, 2 * d)
        if i == 0 or signs_inside(c, sg):
            base.append(f)
            out.append((*lowest(f, 2 * d), sg))
    seen = {(ints, den) for ints, den, _ in out}
    for _ in range(spec.count):
        weights = [rng.randint(0, 4) for _ in base]
        total = sum(weights)
        if total == 0:
            continue
        point = [sum(k * f[j] for k, f in zip(weights, base)) for j in range(c.dim)]
        _add(c, out, seen, point, 2 * d * total)
    for r in geo.rays:
        a, b = rng.randint(1, 3), rng.choice((1, 2))
        _add(c, out, seen, [b * p + a * d * q for p, q in zip(w, r)], b * d)
    for l in geo.lineality:
        _add(c, out, seen, [p + d * q for p, q in zip(w, l)], d)
        _add(c, out, seen, [p - d * q for p, q in zip(w, l)], d)
    return out


def cloud_points(c: PartiallyOpenPolyhedron, spec: SampleSpec) -> list[Vec]:
    """Points in and around the set, membership not guaranteed."""
    cloud = _cloud_from(c, spec, _filtered_points_in(c, spec))
    return [unscaled(ints, den) for ints, den, _ in cloud]


def _cloud_from(
    c: PartiallyOpenPolyhedron, spec: SampleSpec, inside: list[_Placed]
) -> list[_Placed]:
    """``cloud_points`` around an already sampled ``_filtered_points_in``
    list (not mutated), each point placed, ``inside`` first.  Over the
    witness's and the vertices' common denominator d, a reflection is
    2v - w and a poke v +- d e_j; a seeded point is over 12."""
    rng = _rng(spec, "cloud")
    geo = _carrier_geometry(c)
    out = list(inside)
    seen = {(ints, den) for ints, den, _ in inside}
    w, wd, _ = inside[0]
    d = lcm(wd, geo.den)
    w = _over(w, wd, d)
    verts = [_over(v, geo.den, d) for v in geo.vertices]
    for v in verts:
        _add(c, out, seen, [2 * a - b for a, b in zip(v, w)], d)
        for j in range(c.dim):
            _add(c, out, seen, v[:j] + [v[j] + d] + v[j + 1 :], d)
            _add(c, out, seen, v[:j] + [v[j] - d] + v[j + 1 :], d)
    for _ in range(spec.count):
        # ``_rational``'s draws, num / den with den dividing 12.
        point = []
        for _ in range(c.dim):
            num = rng.randint(-12, 12)
            point.append(num * (12 // rng.choice((1, 2, 3, 4))))
        _add(c, out, seen, point, 12)
    return out


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
    inside = _filtered_points_in(c, spec)
    duals = _duals_at(c, spec, [sg for _, _, sg in inside])
    return [(unscaled(x, den), unscaled(d)) for (x, den, _), ds in zip(inside, duals) for d in ds]


def _duals_at(
    c: PartiallyOpenPolyhedron, spec: SampleSpec, signs: list[tuple[int, ...]]
) -> list[list[tuple[int, ...]]]:
    """The duals ``graph_pairs`` pairs with each ``points_in`` point, given
    the points' ``row_signs``: zero, each active normal, then seeded
    combinations of them, without repeats.  A valid carrier is canonical,
    so its normals are primitive integer vectors, and each dual is a tuple
    of ``int``s, equal to the dual itself.  The points are distinct, so
    these are the pairs without repeats too."""
    rng = _rng(spec, "pairs")
    # Both knobs scale with the requested count so that asking for more
    # samples keeps producing new pairs even when the set has few distinct
    # boundary points (one-dimensional sets in particular).
    combos = max(1, spec.count // 8)
    span = max(3, spec.count // 4)
    normals = [tuple(scaled(normal)[0]) for normal, _ in c.carrier.rows]
    zero = (0,) * c.dim
    out = []
    for sg in signs:
        gens = [g for g, s in zip(normals, sg) if s == 0]
        duals = [zero, *gens]
        for _ in range(combos if gens else 0):
            weights = [rng.randint(0, span) for _ in gens]
            duals.append(tuple([sum(map(mul, weights, column)) for column in zip(*gens)]))
        out.append(list(dict.fromkeys(duals)))
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
    geo = _carrier_geometry(c)
    vs = geo.vertices or ((0,) * c.dim,)
    lo = tuple(Fraction(min(v[j] for v in vs), geo.den) for j in range(c.dim))
    hi = tuple(Fraction(max(v[j] for v in vs), geo.den) for j in range(c.dim))
    return lo, hi
