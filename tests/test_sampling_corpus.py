"""Deterministic sample generators and the seeded instance corpora.

These tests pin the contracts the heavier suites lean on: membership of
the produced points, monotonicity of the produced graphs, and bitwise
reproducibility for a fixed seed.
"""
from fractions import Fraction

from phk.corpus import (
    line_free_closed_sets,
    lp_corpus,
    monotone_graph_corpus,
    partially_open_sets,
    probe_point_sets,
    probe_polyhedra,
    random_polytopes,
    sum_instances,
)
from phk.fitzpatrick import is_monotone
from phk.linalg import dot
from phk.lp import lp_solve
from phk.normal_cones import in_normal_cone, strictly_inside
from phk.polyhedra import (
    PartiallyOpenPolyhedron,
    contains,
    is_bounded,
    lineality_space,
)
from phk.sampling import (
    SampleSpec,
    bounding_box,
    boundary_points,
    cloud_points,
    dual_vectors,
    graph_pairs,
    points_in,
    rational_grid,
)

F = Fraction


def unit_square():
    from phk.polyhedra import make_set

    return make_set(
        2,
        [
            ((1, 0), 1, False),
            ((-1, 0), 0, False),
            ((0, 1), 1, False),
            ((0, -1), 0, False),
        ],
    )


def half_open_interval():
    from phk.polyhedra import make_set

    return make_set(1, [((-1,), 0, True), ((1,), 1, False)])


SPEC = SampleSpec(seed=3, count=12)


class TestSampling:
    def test_points_in_are_members(self):
        for c in (unit_square(), half_open_interval()):
            pts = points_in(c, SPEC)
            assert pts
            assert all(contains(c, p) for p in pts)

    def test_cloud_has_both_kinds(self):
        c = half_open_interval()
        cloud = cloud_points(c, SPEC)
        assert any(contains(c, p) for p in cloud)
        assert any(not contains(c, p) for p in cloud)

    def test_dual_vectors_start_at_zero(self):
        ds = dual_vectors(unit_square(), SPEC)
        assert ds[0] == (F(0), F(0))
        assert (F(1), F(0)) in ds and (F(-1), F(0)) in ds
        assert len(set(ds)) == len(ds)

    def test_graph_pairs_really_lie_on_the_graph(self):
        for c in (unit_square(), half_open_interval()):
            pairs = graph_pairs(c, SPEC)
            assert pairs
            for x, xstar in pairs:
                assert contains(c, x)
                assert in_normal_cone(c, x, xstar)

    def test_boundary_points_touch_a_row(self):
        c = unit_square()
        pts = boundary_points(c, SPEC)
        assert pts
        for p in pts:
            assert contains(c, p)
            assert any(dot(n, p) == b for n, b in c.carrier.rows)

    def test_half_open_boundary_avoids_removed_faces(self):
        c = half_open_interval()
        for p in boundary_points(c, SPEC):
            assert contains(c, p)

    def test_determinism(self):
        c = unit_square()
        assert points_in(c, SPEC) == points_in(c, SampleSpec(seed=3, count=12))
        assert cloud_points(c, SPEC) == cloud_points(c, SampleSpec(seed=3, count=12))
        assert dual_vectors(c, SPEC) == dual_vectors(c, SampleSpec(seed=3, count=12))
        assert graph_pairs(c, SPEC) == graph_pairs(c, SampleSpec(seed=3, count=12))

    def test_rational_grid(self):
        got = rational_grid((F(0),), (F(1),), F(1, 2))
        assert got == [(F(0),), (F(1, 2),), (F(1),)]
        got2 = rational_grid((F(0), F(0)), (F(1), F(1)), F(1))
        assert len(got2) == 4

    def test_bounding_box_covers_vertices(self):
        lo, hi = bounding_box(unit_square())
        assert lo == (F(0), F(0))
        assert hi == (F(1), F(1))


class TestCorpus:
    def test_random_polytopes(self):
        sets = random_polytopes(9, seed=1)
        assert len(sets) == 9
        dims = set()
        for c in sets:
            assert isinstance(c, PartiallyOpenPolyhedron)
            assert not c.strict_rows
            assert is_bounded(c.carrier)
            dims.add(c.dim)
        assert dims == {1, 2, 3}

    def test_partially_open_sets_mix(self):
        sets = partially_open_sets(10, seed=2)
        assert len(sets) == 10
        assert any(c.strict_rows for c in sets)

    def test_force_strict(self):
        for c in partially_open_sets(6, seed=4, force_strict=True):
            assert c.strict_rows

    def test_line_free_closed(self):
        for c in line_free_closed_sets(9, seed=5):
            assert not c.strict_rows
            assert lineality_space(c.carrier) == ()
        assert any(
            not is_bounded(c.carrier) for c in line_free_closed_sets(9, seed=5)
        )

    def test_monotone_graphs(self):
        gs = monotone_graph_corpus(8, seed=6)
        assert len(gs) == 8
        for g in gs:
            assert g.pairs
            assert is_monotone(g)
        assert {g.dim for g in gs} == {1, 2}

    def test_probe_sets(self):
        for s in probe_point_sets(6, seed=7):
            assert s.points
        for c in probe_polyhedra(6, seed=8):
            assert isinstance(c, PartiallyOpenPolyhedron)

    def test_lp_corpus_solves(self):
        problems = lp_corpus(12, seed=9)
        assert len(problems) == 12
        for p in problems:
            out = lp_solve(p)
            assert out.status in ("optimal", "infeasible", "unbounded")

    def test_sum_instances_have_interior_anchor(self):
        instances = sum_instances(6, seed=10)
        assert len(instances) == 6
        for t, c in instances:
            assert t.dim == c.dim
            assert is_monotone(t)
            assert any(strictly_inside(c, a) for a, _ in t.pairs)

    def test_corpus_determinism(self):
        assert random_polytopes(5, seed=11) == random_polytopes(5, seed=11)
        a = monotone_graph_corpus(5, seed=12)
        b = monotone_graph_corpus(5, seed=12)
        assert a == b
        assert sum_instances(3, seed=13) == sum_instances(3, seed=13)
