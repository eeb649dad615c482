"""The per-set record: validation when built, derived data on the set, no state per dual."""
from __future__ import annotations

import dataclasses
import gc
import json
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from phk import normal_cones, polyhedra
from phk.corpus import (
    line_free_closed_sets,
    partially_open_sets,
    probe_polyhedra,
    random_polytopes,
    sum_instances,
)
from phk.errors import InputError, InvalidSetError
from phk.fitzpatrick import normal_cone_fitzpatrick, normal_cone_fitzpatrick_by_faces
from phk.lp import SupportLP
from phk.normal_cones import set_member_witness, support_level, support_value
from phk.polyhedra import (
    ClosedPolyhedron,
    PartiallyOpenPolyhedron,
    closed_as_set,
    make_set,
    system_of,
    validate,
    whole_set,
)
from phk.portability import portability_report, portable_hull, portable_hull_by_faces
from phk.sampling import SampleSpec, dual_vectors, graph_pairs
from phk.scalars import POS_INF, fin
from phk.serialize import parse_set

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def corpus_sets():
    out = list(random_polytopes(12, seed=301))
    out += partially_open_sets(12, seed=211)
    out += partially_open_sets(6, seed=307, force_strict=True)
    out += line_free_closed_sets(12, seed=601)
    out += probe_polyhedra(6, seed=17)
    out += [c for _, c in sum_instances(4, seed=37)]
    return out


def fixture_sets():
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        obj = json.loads(path.read_text())
        if "pairs" in obj or "points" in obj:
            continue
        got = parse_set(obj)
        if isinstance(got, PartiallyOpenPolyhedron):
            out.append(got)
    return out


def fresh(c: PartiallyOpenPolyhedron) -> PartiallyOpenPolyhedron:
    """An equal set with an empty record."""
    return PartiallyOpenPolyhedron(c.carrier, c.strict_rows)


def test_constructed_sets_pass_validation():
    sets = corpus_sets() + fixture_sets() + [whole_set(n) for n in (1, 2, 3)]
    assert len(sets) > 60
    for c in sets:
        v = validate(c)
        assert v.nonempty and v.closure_is_carrier, c


def test_constructed_sets_are_never_revalidated(monkeypatch):
    sets = random_polytopes(3, seed=5) + partially_open_sets(3, seed=5, force_strict=True)

    def refuse(c):
        raise AssertionError("validate ran on a set make_set built")

    monkeypatch.setattr(polyhedra, "validate", refuse)
    for c in sets:
        portability_report(c, SampleSpec(seed=1, count=4))


def test_hull_sets_are_not_revalidated(monkeypatch, capsys):
    """Hulls come from ``canonicalize``; wrapping one as a set skips validation."""
    from phk.cli import main

    calls = []
    real = polyhedra.validate

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(polyhedra, "validate", counting)
    half_open = str(FIXTURES / "half_open_interval.json")
    for argv in (
        ["hull", half_open],
        ["check-enc", half_open],
        ["partial-hull", half_open, half_open],
        ["check-ncs", half_open, half_open],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert calls == []


def test_hand_built_set_is_validated_when_built(monkeypatch):
    calls = []
    real = polyhedra.validate

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(polyhedra, "validate", counting)
    c = closed_as_set(ClosedPolyhedron(1, (((F(-1),), F(0)), ((F(1),), F(1)))))
    assert len(calls) == 1
    assert support_value(c, (F(1),)).value.finite_value == 1
    assert portable_hull(c) == c.carrier
    assert len(calls) == 1


def carrier(dim, rows) -> ClosedPolyhedron:
    return ClosedPolyhedron(dim, tuple((tuple(map(F, n)), F(o)) for n, o in rows))


UNIT_SQUARE = [((-1, 0), 0), ((0, -1), 0), ((0, 1), 1), ((1, 0), 1)]

# Each carrier and strict marking breaks one part of the contract.
REFUSED = {
    # x >= 0 and x <= -1: no point at all.
    "empty carrier": (carrier(1, [((-1,), 0), ((1,), -1)]), frozenset()),
    "unsorted rows": (carrier(2, UNIT_SQUARE[::-1]), frozenset()),
    "non-primitive normal": (carrier(1, [((-1,), 0), ((2,), 2)]), frozenset()),
    "redundant row": (carrier(2, sorted(UNIT_SQUARE + [((1, 1), 3)])), frozenset()),
    "parallel pair": (carrier(1, [((-1,), 0), ((1,), 1), ((1,), 2)]), frozenset()),
    # The point x = 0 with x < 0 strict.
    "empty strict region": (carrier(1, [((-1,), 0), ((1,), 0)]), frozenset({1})),
}


@pytest.mark.parametrize("name", REFUSED)
def test_invalid_hand_built_set_raises_when_built(name):
    rows, strict = REFUSED[name]
    with pytest.raises(InvalidSetError):
        PartiallyOpenPolyhedron(rows, strict)


def test_out_of_range_strict_index_raises_when_built():
    with pytest.raises(InputError, match="out of range"):
        PartiallyOpenPolyhedron(carrier(1, [((-1,), 0), ((1,), 1)]), frozenset({2}))


def test_replace_checks_the_new_value():
    c = make_set(1, [((-1,), 0, True), ((1,), 1, False)])
    support_value(c, (F(1),))
    with pytest.raises(InvalidSetError):
        dataclasses.replace(c, carrier=REFUSED["empty carrier"][0])
    closed = dataclasses.replace(c, strict_rows=frozenset())
    assert closed == make_set(1, [((-1,), 0, False), ((1,), 1, False)])
    # The copy starts its own record.
    assert closed._record is not c._record and closed._record.support_lp is None


def test_the_readme_set_is_accepted():
    rows = ClosedPolyhedron(1, (((F(-1),), F(0)), ((F(1),), F(1))))
    half_open = PartiallyOpenPolyhedron(rows, frozenset({0}))
    assert half_open == make_set(1, [((-1,), 0, True), ((1,), 1, False)])


def test_record_is_not_part_of_the_value():
    c = make_set(1, [((-1,), 0, True), ((1,), 1, False)])
    support_value(c, (F(1),))
    other = fresh(c)
    assert c._record.support_lp is not None and other._record.support_lp is None
    assert c == other and hash(c) == hash(other)
    assert repr(c) == repr(other) and "_record" not in repr(c)


def _ask_half_line(c, ks):
    """Ask duals -k/3 by ``support_value`` and k/3 by ``support_level`` of x >= 0."""
    # A negative dual has value 0, attained at 0; a positive one is +inf.
    for k in ks:
        ev = support_value(c, (F(-k, 3),))
        assert ev.value == fin(0) and ev.witness == (F(0),)
        assert support_level(c, (F(k, 3),)) == POS_INF


def test_record_keeps_no_state_per_dual():
    c = make_set(1, [((-1,), 0, False)])  # x >= 0
    record = c._record
    _ask_half_line(c, range(1, 201))
    names = [name for name in polyhedra.SetRecord.__slots__ if name != "__weakref__"]
    fields = {name: getattr(record, name) for name in names}
    assert isinstance(record.support_lp, SupportLP)
    _ask_half_line(c, range(201, 1401))
    # More duals leave every field as it was: one ``SupportLP``, nothing per dual.
    assert all(getattr(record, name) is value for name, value in fields.items())


def test_memory_stays_flat_over_many_duals():
    c = make_set(1, [((-1,), 0, False)])  # x >= 0
    _ask_half_line(c, range(1, 201))
    tracemalloc.start()
    try:
        _ask_half_line(c, range(201, 401))
        # A full collection empties the free lists, which hold freed tuples.
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        _ask_half_line(c, range(401, 1401))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # A thousand more duals keep nothing.
    assert grown < 4096


def test_dropped_set_frees_its_record():
    c = make_set(2, [((1, 0), 1, True), ((0, 1), 1, False), ((-1, -1), 0, False)])
    portability_report(c, SampleSpec(seed=2, count=4))
    portable_hull_by_faces(c)
    record = weakref.ref(c._record)
    assert record().support_lp is not None and record().faces and record().vrep
    del c
    gc.collect()
    assert record() is None


def test_routes_agree_on_fresh_sets():
    sets = partially_open_sets(8, seed=211) + random_polytopes(4, seed=301)
    spec = SampleSpec(seed=3, count=6)
    for c in sets:
        points = [x for x, _ in graph_pairs(c, spec)]
        pairs = graph_pairs(c, spec) + [
            (x, d) for x in points[:3] for d in dual_vectors(c, spec)[:6]
        ]
        closed_form, by_faces = fresh(c), fresh(c)
        for x, xstar in pairs:
            assert normal_cone_fitzpatrick(closed_form, x, xstar) == (
                normal_cone_fitzpatrick_by_faces(by_faces, x, xstar)
            ), (c, x, xstar)
        assert portable_hull(closed_form) == portable_hull_by_faces(by_faces)
        # Each route filled only its own fields of the record.  Supporting
        # rows are the weak rows, so neither route keeps them.
        assert closed_form._record.support_lp is not None
        assert closed_form._record.integer_rows is not None
        assert closed_form._record.faces is None and closed_form._record.vrep is None
        assert by_faces._record.faces and by_faces._record.vrep is not None
        assert by_faces._record.support_lp is None
        assert by_faces._record.integer_rows is None


def test_make_set_keeps_its_strict_region_point(monkeypatch):
    sets = [make_set(2, [((1, 0), 1, True), ((0, 1), 1, False), ((-1, -1), 0, False)])]
    sets += partially_open_sets(6, seed=307, force_strict=True)
    closed = make_set(2, [((1, 0), 1, False), ((-1, 0), 0, False)])
    solved = []
    real = normal_cones.strict_system_feasible

    def counted(rows):
        solved.append(rows)
        return real(rows)

    monkeypatch.setattr(normal_cones, "strict_system_feasible", counted)
    for c in sets:
        assert c.strict_rows
        portability_report(c, SampleSpec(seed=2, count=4))
        # The report's witness is the point ``make_set`` kept, not solved again.
        assert system_of(c) not in solved
        assert set_member_witness(c) == set_member_witness(fresh(c))
        assert solved.count(system_of(c)) == 1
    # A closed set keeps no point: its witness is solved when asked for.
    assert closed._record.member is None
    set_member_witness(closed)
    assert solved[-1] == system_of(closed)
