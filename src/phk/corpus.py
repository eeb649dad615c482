"""Seeded instance generators for the self-test and the acceptance suite.

Coefficients are kept small on purpose: the arithmetic is exact, so the
cost of every pivot grows with the bit size of the numbers involved.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .fitzpatrick import MonotoneGraph, graph
from .lp import LPProblem, problem
from .polyhedra import PartiallyOpenPolyhedron, make_set
from .portability import FinitePointSet, point_set


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"corpus:{seed}:{salt}")


def _unit(dim: int, j: int, sign: int) -> list[int]:
    """The normal ``sign * e_j`` of a box side."""
    e = [0] * dim
    e[j] = sign
    return e


def _box_rows(rng: random.Random, dim: int) -> list[tuple[list[int], int, bool]]:
    rows = []
    for j in range(dim):
        rows.append((_unit(dim, j, 1), rng.randint(1, 3), False))
        rows.append((_unit(dim, j, -1), rng.randint(1, 3), False))
    return rows


def _extra_rows(
    rng: random.Random, dim: int, count: int
) -> list[tuple[list[int], int, bool]]:
    rows = []
    for _ in range(count):
        normal = [rng.randint(-3, 3) for _ in range(dim)]
        if all(q == 0 for q in normal):
            normal[rng.randrange(dim)] = 1
        rows.append((normal, rng.randint(1, 4), False))
    return rows


def random_polytopes(count: int, seed: int, dims=(1, 2, 3)) -> list[PartiallyOpenPolyhedron]:
    """Closed bounded sets with the origin strictly inside."""
    rng = _rng(seed, "polytopes")
    out = []
    while len(out) < count:
        dim = dims[len(out) % len(dims)]
        rows = _box_rows(rng, dim) + _extra_rows(rng, dim, rng.randint(0, dim))
        got = make_set(dim, rows)
        assert isinstance(got, PartiallyOpenPolyhedron)
        out.append(got)
    return out


def partially_open_sets(
    count: int, seed: int, dims=(1, 2, 3), force_strict: bool = False
) -> list[PartiallyOpenPolyhedron]:
    """Sets built from the polytope corpus with some rows reopened as strict.

    The base rows are already canonical and have the origin strictly
    inside, so marking any subset strict keeps the set valid and nonempty;
    with ``force_strict`` the result is guaranteed not portable.
    """
    rng = _rng(seed, "strict")
    out = []
    for base in random_polytopes(count, seed + 1, dims):
        rows = base.carrier.rows
        indices = list(range(len(rows)))
        k = rng.randint(1 if force_strict else 0, max(1, len(indices) // 2))
        chosen = set(rng.sample(indices, k)) if k else set()
        got = make_set(
            base.dim,
            [(list(n), o, i in chosen) for i, (n, o) in enumerate(rows)],
        )
        assert isinstance(got, PartiallyOpenPolyhedron)
        if force_strict:
            assert got.strict_rows, "sampled a nonempty strict subset"
        out.append(got)
    return out


def line_free_closed_sets(count: int, seed: int, dims=(1, 2, 3)) -> list[PartiallyOpenPolyhedron]:
    """Closed sets without lines: bounded boxes and pointed orthant cuts."""
    rng = _rng(seed, "linefree")
    out = []
    while len(out) < count:
        dim = dims[len(out) % len(dims)]
        if len(out) % 2 == 0:
            rows = _box_rows(rng, dim) + _extra_rows(rng, dim, rng.randint(0, dim))
        else:
            rows = [(_unit(dim, j, -1), 0, False) for j in range(dim)]
            rows += _extra_rows(rng, dim, rng.randint(0, dim))
        got = make_set(dim, rows)
        assert isinstance(got, PartiallyOpenPolyhedron)
        out.append(got)
    return out


def monotone_graph_corpus(count: int, seed: int, dims=(1, 2)) -> list[MonotoneGraph]:
    """Monotone graphs: sorted pairings in 1-D, positive-map images in 2-D."""
    rng = _rng(seed, "graphs")
    out = []
    while len(out) < count:
        dim = dims[len(out) % len(dims)]
        k = rng.randint(2, 4)
        if dim == 1:
            xs = sorted(
                {Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(k)}
            )
            ys = sorted(
                Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(len(xs))
            )
            pairs = [([x], [y]) for x, y in zip(xs, ys)]
        else:
            g11, g12, g21, g22 = (rng.randint(-2, 2) for _ in range(4))
            m11 = g11 * g11 + g21 * g21 + rng.randint(0, 1)
            m12 = g11 * g12 + g21 * g22
            m22 = g12 * g12 + g22 * g22 + rng.randint(0, 1)
            shift = [rng.randint(-2, 2), rng.randint(-2, 2)]
            points = {
                (
                    Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
                    Fraction(rng.randint(-3, 3), rng.choice((1, 2))),
                )
                for _ in range(k)
            }
            pairs = [
                (
                    [a, b],
                    [m11 * a + m12 * b + shift[0], m12 * a + m22 * b + shift[1]],
                )
                for a, b in sorted(points)
            ]
        out.append(graph(dim, pairs))
    return out


def probe_point_sets(count: int, seed: int, dims=(1, 2, 3)) -> list[FinitePointSet]:
    rng = _rng(seed, "probepts")
    out = []
    while len(out) < count:
        dim = dims[len(out) % len(dims)]
        pts = [
            [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(dim)]
            for _ in range(rng.randint(1, 4))
        ]
        out.append(point_set(dim, pts))
    return out


def probe_polyhedra(count: int, seed: int, dims=(1, 2, 3)) -> list[PartiallyOpenPolyhedron]:
    """Probe sets for the partial hull: shifted boxes and half-spaces."""
    rng = _rng(seed, "probesets")
    out = []
    while len(out) < count:
        dim = dims[len(out) % len(dims)]
        if len(out) % 2 == 0:
            rows = []
            for j in range(dim):
                shiftj = rng.randint(-2, 2)
                rows.append((_unit(dim, j, 1), shiftj + rng.randint(1, 2), False))
                rows.append((_unit(dim, j, -1), -shiftj + rng.randint(0, 2), False))
        else:
            normal = [rng.randint(-2, 2) for _ in range(dim)]
            if all(q == 0 for q in normal):
                normal[0] = 1
            rows = [(normal, rng.randint(-1, 3), False)]
        got = make_set(dim, rows)
        assert isinstance(got, PartiallyOpenPolyhedron)
        out.append(got)
    return out


def lp_corpus(count: int, seed: int) -> list[LPProblem]:
    """Random small maximization problems, solvable by elimination too."""
    rng = _rng(seed, "lp")
    out = []
    while len(out) < count:
        n = rng.randint(1, 3)
        m = rng.randint(0, 2 * n + 2)
        objective = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        rows = []
        for _ in range(m):
            normal = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            rows.append((normal, Fraction(rng.randint(-4, 4))))
        out.append(problem(objective, rows))
    return out


def sum_instances(count: int, seed: int, dims=(1, 2)) -> list[tuple[MonotoneGraph, PartiallyOpenPolyhedron]]:
    """Graph/set pairs with a graph domain point strictly inside the set."""
    rng = _rng(seed, "sums")
    graphs = monotone_graph_corpus(count, seed + 7, dims)
    out = []
    for t in graphs:
        dim = t.dim
        anchor = t.pairs[rng.randrange(len(t.pairs))][0]
        rows = []
        for j in range(dim):
            rows.append((_unit(dim, j, 1), anchor[j] + rng.randint(1, 3), False))
            rows.append((_unit(dim, j, -1), -anchor[j] + rng.randint(1, 3), False))
        c = make_set(dim, rows)
        assert isinstance(c, PartiallyOpenPolyhedron)
        out.append((t, c))
    return out
