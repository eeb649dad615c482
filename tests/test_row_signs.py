"""Integer row evaluation: ``row_signs`` against a plain-``Fraction`` reference.

``contains``, ``in_portable_hull``, ``normal_cone_at`` and ``strictly_inside``
read each carrier row through ``polyhedra.row_signs``, which scales rows and
points to integers.  The reference below evaluates ``normal . x - offset``
with ``Fraction`` arithmetic and nothing else.  The face route, the LP
certificate check and Fourier-Motzkin elimination must not depend on the
integer view at all.
"""
from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phk
from phk import fme, lp, polyhedra
from phk.corpus import line_free_closed_sets, partially_open_sets
from phk.errors import InputError, InvalidSetError
from phk.fitzpatrick import normal_cone_fitzpatrick, normal_cone_fitzpatrick_by_faces
from phk.normal_cones import (
    in_portable_hull,
    normal_cone_at,
    strictly_inside,
    supporting_rows,
)
from phk.polyhedra import ClosedPolyhedron, PartiallyOpenPolyhedron, contains
from phk.sampling import SampleSpec, cloud_points, dual_vectors, graph_pairs

F = Fraction
SETS = (
    partially_open_sets(9, seed=71)
    + partially_open_sets(9, seed=72, force_strict=True)
    + line_free_closed_sets(6, seed=73)
)


def ref_value(normal, offset, x) -> Fraction:
    return sum((F(a) * F(b) for a, b in zip(normal, x)), F(0)) - offset


def ref_contains(c, x) -> bool:
    return all(
        ref_value(n, o, x) < 0 if i in c.strict_rows else ref_value(n, o, x) <= 0
        for i, (n, o) in enumerate(c.carrier.rows)
    )


def ref_in_portable_hull(c, x) -> bool:
    rows = c.carrier.rows
    return all(ref_value(*rows[i], x) <= 0 for i in supporting_rows(c))


def ref_normal_cone(c, x):
    if not ref_contains(c, x):
        return None
    return tuple(n for n, o in c.carrier.rows if ref_value(n, o, x) == 0)


def ref_strictly_inside(c, x) -> bool:
    return all(ref_value(n, o, x) < 0 for n, o in c.carrier.rows)


def assert_agrees(c, x) -> None:
    assert contains(c, x) == ref_contains(c, x), (c, x)
    assert strictly_inside(c, x) == ref_strictly_inside(c, x), (c, x)
    assert in_portable_hull(c, x) == ref_in_portable_hull(c, x), (c, x)
    want = ref_normal_cone(c, x)
    if want is None:
        with pytest.raises(InputError, match="outside the set"):
            normal_cone_at(c, x)
    else:
        assert normal_cone_at(c, x).generators == want, (c, x)


def scaled_by_hand(c: PartiallyOpenPolyhedron, rng: random.Random) -> PartiallyOpenPolyhedron:
    """The same set with every row multiplied by a positive fraction.

    The normals become fractional and non-primitive, so validation would
    refuse the carrier as non-canonical; the set is built around the check,
    as valid in every respect but its written form.
    """
    rows = []
    for n, o in c.carrier.rows:
        t = F(rng.randint(1, 9), rng.randint(2, 11))
        rows.append((tuple(t * q for q in n), t * o))
    return polyhedra._valid_set(ClosedPolyhedron(c.dim, tuple(rows)), c.strict_rows)


def sample_points(c, idx: int):
    spec = SampleSpec(seed=idx, count=4)
    points = cloud_points(c, spec) + [x for x, _ in graph_pairs(c, spec)]
    # Points exactly on the rows, and just off them, exercise the zero sign.
    rng = random.Random(f"row-signs:{idx}")
    for n, o in c.carrier.rows[:3]:
        j = next(k for k, q in enumerate(n) if q)
        base = [F(rng.randint(-6, 6), rng.randint(1, 12)) for _ in range(c.dim)]
        base[j] = 0
        on = list(base)
        on[j] = (o - sum((n[k] * base[k] for k in range(c.dim)), F(0))) / n[j]
        points.append(tuple(on))
        points.append(tuple(q + F(1, 97) if k == j else q for k, q in enumerate(on)))
    return points


@pytest.mark.parametrize("idx", range(len(SETS)))
def test_row_evaluation_agrees_with_fractions(idx):
    c = SETS[idx]
    hand = scaled_by_hand(c, random.Random(idx))
    assert any(q.denominator > 1 for n, _ in hand.carrier.rows for q in n)
    for x in sample_points(c, idx):
        assert_agrees(c, x)
        assert_agrees(hand, x)
        # Scaling rows by positive numbers changes no answer.
        assert contains(hand, x) == contains(c, x)
        assert strictly_inside(hand, x) == strictly_inside(c, x)


mixed = st.builds(F, st.integers(-30, 30), st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(SETS) - 1), st.data())
def test_mixed_denominator_points(idx, data):
    c = SETS[idx]
    x = data.draw(st.tuples(*[mixed] * c.dim))
    assert_agrees(c, x)
    assert_agrees(scaled_by_hand(c, random.Random(idx)), x)


def test_unvalidated_fractional_rows():
    # 2/3 x + 4/3 y < 5/7 and -1/2 x <= 1/3 and -3/4 y <= 1/6: not
    # canonical, so refused when built, and built around the check instead.
    carrier = ClosedPolyhedron(
        2,
        (
            ((F(2, 3), F(4, 3)), F(5, 7)),
            ((F(-1, 2), F(0)), F(1, 3)),
            ((F(0), F(-3, 4)), F(1, 6)),
        ),
    )
    with pytest.raises(InvalidSetError):
        PartiallyOpenPolyhedron(carrier, frozenset({0}))
    c = polyhedra._valid_set(carrier, frozenset({0}))
    grid = [F(a, d) for a in range(-4, 5) for d in (1, 2, 3, 5, 7)]
    points = [(a, b) for a in grid for b in grid]
    points += [(F(15, 14), F(0)), (F(0), F(15, 28)), (F(-2, 3), F(-2, 9))]
    for x in points:
        assert contains(c, x) == ref_contains(c, x), x
        assert strictly_inside(c, x) == ref_strictly_inside(c, x), x
    assert contains(c, (F(-2, 3), F(-2, 9)))
    assert not contains(c, (F(15, 14), F(0)))  # on the strict row


def test_whole_space_has_no_rows_to_sign():
    c = phk.whole_set(2)
    assert polyhedra.row_signs(c, (F(1, 3), F(-5))) == ()
    assert contains(c, (F(1, 3), F(-5))) and strictly_inside(c, (F(0), F(0)))


def test_independent_routes_never_read_the_integer_view(monkeypatch):
    """With ``row_signs`` raising, the face route, the LP certificate check and
    Fourier-Motzkin elimination still give their answers."""
    sets = SETS[:6]
    spec = SampleSpec(seed=5, count=4)
    queries = []
    for c in sets:
        pairs = graph_pairs(c, spec)
        pairs += [(x, d) for x, _ in pairs[:2] for d in dual_vectors(c, spec)[:3]]
        queries.append([(x, d, normal_cone_fitzpatrick(c, x, d)) for x, d in pairs])
    programs = [
        lp.problem(d, c.carrier.rows) for c in sets for d in dual_vectors(c, spec)[:3]
    ]
    outcomes = [lp.lp_solve(p) for p in programs]

    def refuse(*args):
        raise AssertionError("row_signs called")

    # Every module that bound the name at import time.
    for name, mod in list(sys.modules.items()):
        if name.startswith("phk") and getattr(mod, "row_signs", None) is polyhedra.row_signs:
            monkeypatch.setattr(mod, "row_signs", refuse)
    with pytest.raises(AssertionError, match="row_signs called"):
        contains(sets[0], (F(0),) * sets[0].dim)

    for c, qs in zip(sets, queries):
        fresh = PartiallyOpenPolyhedron(c.carrier, c.strict_rows)
        for x, d, want in qs:
            assert normal_cone_fitzpatrick_by_faces(fresh, x, d) == want, (c, x, d)
        assert fresh._record.integer_rows is None
    for p, o in zip(programs, outcomes):
        assert lp.verify_outcome(p, o)
        status, value = fme.fm_maximize(p.objective, p.rows)
        assert status == o.status and value == o.value
    for c in sets:
        system = polyhedra.system_of(c)
        assert fme.fm_feasible(system) == (lp.strict_system_feasible(system) is not None)
