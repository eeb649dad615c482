"""Face lattice enumeration from the generator description."""
from fractions import Fraction

import pytest

from phk.errors import ScaleLimitError
from phk.faces import FACE_DIM_CAP, enumerate_faces
from phk.linalg import dot
from phk.polyhedra import contains, make_set

F = Fraction


def unit_square():
    return make_set(
        2,
        [
            ((1, 0), 1, False),
            ((-1, 0), 0, False),
            ((0, 1), 1, False),
            ((0, -1), 0, False),
        ],
    )


def test_square_face_count():
    # 1 improper face + 4 edges + 4 vertices.  [DERIVED]
    faces = enumerate_faces(unit_square())
    assert len(faces) == 9
    sizes = sorted(len(f.active) for f in faces)
    assert sizes == [0, 1, 1, 1, 1, 2, 2, 2, 2]
    assert all(f.meets_set for f in faces)


def test_square_vertices_are_zero_dimensional_faces():
    for f in enumerate_faces(unit_square()):
        if len(f.active) == 2:
            assert len(f.generators.vertices) == 1
            assert not f.generators.rays
            assert not f.generators.lineality
        elif len(f.active) == 1:
            assert len(f.generators.vertices) == 2


def test_active_rows_are_tight_at_rep_point():
    c = unit_square()
    rows = c.carrier.rows
    for f in enumerate_faces(c):
        assert f.rep_point is not None
        for i in f.active:
            normal, offset = rows[i]
            assert dot(normal, f.rep_point) == offset


def test_half_open_interval_face_misses_set():
    # (0, 1]: the carrier vertex at 0 is a face of the carrier that the
    # strict row removes from the set.
    c = make_set(1, [((-1,), 0, True), ((1,), 1, False)])
    faces = enumerate_faces(c)
    assert len(faces) == 3
    by_active = {tuple(sorted(f.active)): f for f in faces}
    # Canonical row order puts -x <= 0 first.
    assert not by_active[(0,)].meets_set
    assert by_active[(1,)].meets_set
    assert by_active[(1,)].rep_point == (F(1),)
    assert by_active[()].meets_set


def test_only_the_whole_set_has_no_active_row():
    faces = enumerate_faces(unit_square())
    assert len(faces) == 9
    assert [f for f in faces if not f.active] == [faces[0]]


def test_unbounded_faces_carry_rays():
    quadrant = make_set(2, [((-1, 0), 0, False), ((0, -1), 0, False)])
    faces = enumerate_faces(quadrant)
    # Whole set, two edges, one vertex.
    assert len(faces) == 4
    edges = [f for f in faces if len(f.active) == 1]
    for f in edges:
        assert len(f.generators.rays) == 1
        assert len(f.generators.vertices) == 1


def test_lineality_is_shared_by_every_face():
    slab = make_set(2, [((1, 0), 1, False), ((-1, 0), 1, False)])
    faces = enumerate_faces(slab)
    assert len(faces) == 3
    for f in faces:
        assert len(f.generators.lineality) == 1
    facets = [f for f in faces if f.active]
    assert len(facets) == 2
    for f in facets:
        assert len(f.generators.vertices) == 1


def test_whole_space_has_one_face():
    c = make_set(2, [])
    faces = enumerate_faces(c)
    assert len(faces) == 1
    assert faces[0].active == frozenset()
    assert faces[0].meets_set


def test_rep_points_of_meeting_faces_are_members():
    c = make_set(
        2,
        [
            ((1, 0), 1, True),
            ((-1, 0), 0, False),
            ((0, 1), 1, False),
            ((0, -1), 0, True),
        ],
    )
    for f in enumerate_faces(c):
        if f.meets_set:
            assert contains(c, f.rep_point)


def test_dimension_cap():
    rows = []
    for j in range(FACE_DIM_CAP + 1):
        e = [0] * (FACE_DIM_CAP + 1)
        e[j] = 1
        rows.append((tuple(e), 1, False))
        rows.append((tuple(-q for q in e), 0, False))
    big = make_set(FACE_DIM_CAP + 1, rows)
    with pytest.raises(ScaleLimitError):
        enumerate_faces(big)


def test_enumeration_is_deterministic():
    a = enumerate_faces(unit_square())
    b = enumerate_faces(unit_square())
    assert [f.active for f in a] == [f.active for f in b]
    assert [f.generators for f in a] == [f.generators for f in b]


def test_cube_face_count():
    rows = []
    for j in range(3):
        e = [0, 0, 0]
        e[j] = 1
        rows.append((tuple(e), 1, False))
        rows.append((tuple(-q for q in e), 0, False))
    cube = make_set(3, rows)
    # 1 + 6 facets + 12 edges + 8 vertices.  [DERIVED]
    assert len(enumerate_faces(cube)) == 27
