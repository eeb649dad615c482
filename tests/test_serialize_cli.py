"""JSON parsing/formatting and the command-line surface."""
import json
from fractions import Fraction
from pathlib import Path

import pytest

from phk.cli import CheckSet, main
from phk.errors import InputError
from phk.fitzpatrick import graph
from phk.polyhedra import (
    ClosedPolyhedron,
    EmptySet,
    PartiallyOpenPolyhedron,
    Validation,
    cone,
    h_to_v,
    make_set,
    whole_set,
)
from phk.portability import SeparationCertificate, point_set
from phk.representability import GridSpec, sum_graph_membership
from phk.sampling import SampleSpec
from phk.serialize import (
    dumps,
    fmt_closed,
    fmt_set,
    fmt_vector,
    jsonable,
    parse_graph,
    parse_points,
    parse_rational,
    parse_set,
    parse_vector,
)

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestParsing:
    def test_rationals(self):
        assert parse_rational("2/3") == F(2, 3)
        assert parse_rational("-5") == F(-5)
        assert parse_rational(7) == F(7)
        assert parse_rational(F(3, 4)) == F(3, 4)

    @pytest.mark.parametrize("bad", [True, False, 0.5, 3.0, None, [1], "x"])
    def test_bad_rationals(self, bad):
        with pytest.raises(InputError):
            parse_rational(bad)

    def test_vectors(self):
        assert parse_vector(["1/2", 1]) == (F(1, 2), F(1))
        with pytest.raises(InputError):
            parse_vector([])
        with pytest.raises(InputError):
            parse_vector([1, 2], dim=3)
        with pytest.raises(InputError):
            parse_vector("nope")

    def test_set_shorthands(self):
        assert parse_set({"empty": True, "dim": 2}) == EmptySet(2)
        c = parse_set({"space": 3})
        assert isinstance(c, PartiallyOpenPolyhedron)
        assert c.dim == 3 and not c.carrier.rows

    def test_full_set_form(self):
        c = parse_set(
            {
                "dim": 1,
                "rows": [
                    {"normal": [-1], "offset": 0, "strict": True},
                    {"normal": [1], "offset": "1"},
                ],
            }
        )
        assert isinstance(c, PartiallyOpenPolyhedron)
        assert c.strict_rows

    def test_bad_strict_flag(self):
        with pytest.raises(InputError):
            parse_set(
                {
                    "dim": 1,
                    "rows": [{"normal": [1], "offset": 0, "strict": "yes"}],
                }
            )

    def test_graph_and_points(self):
        g = parse_graph(
            {"dim": 1, "pairs": [{"a": [0], "astar": [0]}, {"a": [1], "astar": [1]}]}
        )
        assert len(g.pairs) == 2
        s = parse_points({"dim": 2, "points": [[0, 0], ["1/2", 0]]})
        assert len(s.points) == 2

    def test_malformed_containers(self):
        with pytest.raises(InputError):
            parse_set([1, 2, 3])
        with pytest.raises(InputError):
            parse_graph({"dim": 1})
        with pytest.raises(InputError):
            parse_points({"dim": 1, "points": "zzz"})


# Set documents that name the empty set, the whole space or a row system
# wrongly: a non-``true`` "empty", keys beside "empty" or "space", unknown
# keys on the set or on a row.
LOOSE_SETS = {
    "empty-no": {"empty": "no", "dim": 2},
    "empty-false": {"empty": False, "dim": 1, "rows": []},
    "empty-one": {"empty": 1},
    "empty-with-rows": {"empty": True, "dim": 1, "rows": []},
    "space-with-dim": {"space": 2, "dim": 2},
    "space-with-rows": {"space": 1, "rows": [{"normal": [1], "offset": 0}]},
    "extra-key": {"dim": 1, "rows": [{"normal": [1], "offset": 1}], "extra": 5},
    "row-extra-key": {"dim": 1, "rows": [{"normal": [1], "offset": 1, "strct": True}]},
}


@pytest.mark.parametrize("name", sorted(LOOSE_SETS))
def test_loose_set_documents_are_refused(name, capsys, tmp_path):
    doc = LOOSE_SETS[name]
    with pytest.raises(InputError):
        parse_set(doc)
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "hull", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


# Each refusal of the document readers and of ``jsonable``, with its message.
REFUSED_DOCUMENTS = {
    "set-not-object": (parse_set, [], "a set description must be a JSON object"),
    "set-no-rows": (parse_set, {"dim": 1}, 'a set description needs "dim" and "rows"'),
    "rows-not-list": (parse_set, {"dim": 1, "rows": {}}, '"rows" must be a list'),
    "row-not-object": (parse_set, {"dim": 1, "rows": [[1]]}, 'each row needs "normal" and "offset"'),
    "row-no-offset": (parse_set, {"dim": 1, "rows": [{"normal": [1]}]}, 'each row needs "normal" and "offset"'),
    "strict-not-bool": (
        parse_set,
        {"dim": 1, "rows": [{"normal": [1], "offset": 0, "strict": 1}]},
        '"strict" must be a boolean',
    ),
    "points-missing": (parse_points, {"dim": 1}, 'a point set needs "points"'),
    "points-empty": (parse_points, {"points": []}, '"points" must be a nonempty list'),
    "pairs-not-list": (parse_graph, {"dim": 1, "pairs": {}}, '"pairs" must be a list'),
    "pair-no-astar": (parse_graph, {"dim": 1, "pairs": [{"a": [0]}]}, 'each pair needs "a" and "astar"'),
    "vector-empty": (parse_vector, [], "vectors must have at least one coordinate"),
    "unserializable": (jsonable, {1, 2}, "cannot serialize set"),
}


@pytest.mark.parametrize("name", sorted(REFUSED_DOCUMENTS))
def test_each_document_refusal_gives_its_message(name):
    read, doc, message = REFUSED_DOCUMENTS[name]
    with pytest.raises(InputError) as got:
        read(doc)
    assert str(got.value) == message


@pytest.mark.parametrize("step", ["0", "-1/2"])
def test_a_grid_step_that_is_not_positive_is_refused(capsys, step):
    argv = (
        "sum-check", str(FIXTURES / "staircase_graph.json"), str(FIXTURES / "closed_interval.json"),
        "--point", '["1"]', "--dual", '["1"]', f"--grid={step}",
    )
    with pytest.raises(SystemExit) as got:
        main(list(argv))
    assert got.value.code == 2  # argparse owns argument errors
    assert capsys.readouterr().err.endswith("argument --grid: grid step must be positive\n")


def test_numbers_too_long_for_int_str_end_in_one_error_line(capsys, tmp_path):
    # Python refuses int <-> str conversions past 4300 digits.  A support
    # value b^2 of 6001 digits cannot be written, and a 5000-digit JSON
    # integer cannot be read, from a file or from --dual: ``rat`` refuses it
    # as it refuses the same digits in quotes.
    b = "1" * 3001
    box = {"dim": 1, "rows": [{"normal": [-1], "offset": 0}, {"normal": [1], "offset": b}]}
    long_offset = '{"dim": 1, "rows": [{"normal": [1], "offset": %s}]}' % ("7" * 5000)
    (tmp_path / "box.json").write_text(json.dumps(box))
    (tmp_path / "long.json").write_text(long_offset)
    literal = "a literal with 5000 digits exceeds the limit of 4300 digits for reading an integer"
    cases = {
        ("sigma", str(tmp_path / "box.json"), "--dual", json.dumps([b])):
            "a value with 6001 digits exceeds the limit of 4300 digits for writing an integer",
        ("hull", str(tmp_path / "long.json")): literal,
        ("sigma", str(tmp_path / "box.json"), "--dual", "[%s]" % ("1" * 5000)): literal,
        ("sigma", str(tmp_path / "box.json"), "--dual", json.dumps(["1" * 5000])): literal,
    }
    for argv, message in cases.items():
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_json_numbers_are_read_as_their_quoted_literals(capsys, tmp_path):
    # A JSON number with a fraction or an exponent is read by ``rat``, as
    # the same literal in quotes: exactly, never through a float.
    text = '{"dim": 1, "rows": [{"normal": [1.0], "offset": 12345678901234567891.0}, ' \
        '{"normal": [-2.5e0], "offset": 1e300}]}'
    (tmp_path / "set.json").write_text(text)
    quoted = json.loads(text, parse_float=str)
    assert parse_set(json.loads(text, parse_float=Fraction)) == parse_set(quoted)
    code, out, _ = run_cli(capsys, "hull", str(tmp_path / "set.json"))
    assert code == 0
    assert json.loads(out)["inputs"]["set"]["rows"] == [
        {"normal": ["-1"], "offset": "4" + "0" * 299},
        {"normal": ["1"], "offset": "12345678901234567891"},
    ]
    code, out, _ = run_cli(capsys, "sigma", str(tmp_path / "set.json"), "--dual", "[0.5]")
    assert (code, json.loads(out)["inputs"]["dual"]) == (0, ["1/2"])
    # rat's digit check refuses an exponent too long to build, and a float
    # built outside the CLI is refused by the parser.
    code, out, err = run_cli(capsys, "sigma", str(tmp_path / "set.json"), "--dual", "[1e5000]")
    assert (code, out) == (1, "")
    assert err == "error: a literal with 5001 digits exceeds the limit of 4300 digits for reading an integer\n"
    with pytest.raises(InputError, match="expected a rational"):
        parse_set(json.loads(text))


def test_a_long_unreadable_literal_is_quoted_by_its_start(capsys):
    code, out, err = run_cli(
        capsys, "sigma", str(FIXTURES / "closed_interval.json"), "--dual", json.dumps(["x" * 5000])
    )
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert err == f"error: not a rational literal: {'x' * 40!r}... (5000 characters)\n"


@pytest.mark.parametrize(
    "step, message",
    [
        ("1" * 5000, "a literal with 5000 digits exceeds the limit of"),
        ("x" * 5000, f"not a rational literal: {'x' * 40!r}... (5000 characters)"),
    ],
)
def test_a_long_grid_step_is_refused_by_its_size(capsys, step, message):
    argv = (
        "sum-check", str(FIXTURES / "staircase_graph.json"), str(FIXTURES / "closed_interval.json"),
        "--point", '["1"]', "--dual", '["1"]', "--grid", step,
    )
    with pytest.raises(SystemExit) as got:
        main(list(argv))
    err = capsys.readouterr().err
    assert got.value.code == 2  # argparse owns argument errors
    assert f"argument --grid: {message}" in err
    assert step[:50] not in err and len(err.encode()) < 400


def test_exact_set_shapes_still_parse():
    assert parse_set({"empty": True}) == EmptySet(1)
    assert parse_set({"empty": True, "dim": 3}) == EmptySet(3)
    assert parse_set({"space": 2}).carrier.rows == ()
    c = parse_set({"dim": 1, "rows": [{"normal": [1], "offset": 1, "strict": False}]})
    assert c.carrier.rows == (((F(1),), F(1)),) and not c.strict_rows


# Each JSON shape with a dimension field, as (parser, document builder, CLI
# call with the document's path in place of ``{}``).
SQUARE = str(FIXTURES / "unit_square.json")
DIM_SHAPES = {
    "set": (parse_set, lambda v: {"dim": v, "rows": [{"normal": [1], "offset": 1}]}, ["hull", "{}"]),
    "space": (parse_set, lambda v: {"space": v}, ["hull", "{}"]),
    "empty": (parse_set, lambda v: {"empty": True, "dim": v}, ["hull", "{}"]),
    "graph": (
        parse_graph,
        lambda v: {"dim": v, "pairs": [{"a": [0], "astar": [0]}]},
        ["psi", "{}", "--point", "[0]", "--dual", "[0]"],
    ),
    "points": (parse_points, lambda v: {"dim": v, "points": [[1, 2]]}, ["partial-hull", SQUARE, "{}"]),
}


@pytest.mark.parametrize("value", [True, "2", 2.0, 0], ids=repr)
@pytest.mark.parametrize("shape", sorted(DIM_SHAPES))
def test_json_dimensions_are_positive_ints(shape, value, capsys, tmp_path):
    parser, build, argv = DIM_SHAPES[shape]
    doc = build(value)
    with pytest.raises(InputError, match="dimension must be a positive integer"):
        parser(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *[str(path) if a == "{}" else a for a in argv])
    assert (code, out) == (1, "")
    assert "dimension must be a positive integer" in err


class TestFormatting:
    def test_round_trip_fixture_files(self):
        for path in sorted(FIXTURES.glob("*.json")):
            obj = json.loads(path.read_text())
            if "pairs" in obj:
                continue
            if "points" in obj:
                assert parse_points(obj).points
                continue
            c = parse_set(obj)
            again = parse_set(json.loads(json.dumps(fmt_set(c))))
            assert again == c

    def test_fmt_vector_strings(self):
        assert fmt_vector((F(1, 2), F(-3))) == ["1/2", "-3"]

    def test_fmt_closed_shorthands(self):
        assert fmt_closed(EmptySet(2)) == {"dim": 2, "empty": True}
        assert fmt_closed(ClosedPolyhedron(3, ())) == {"space": 3}

    def test_strict_flags_only_on_strict_rows(self):
        c = make_set(1, [((-1,), 0, True), ((1,), 1, False)])
        doc = fmt_set(c)
        flags = [row.get("strict", False) for row in doc["rows"]]
        assert flags == [True, False]

    def test_jsonable_writes_each_value_form(self):
        square = parse_set(json.loads((FIXTURES / "unit_square.json").read_text()))
        half_plane = make_set(2, [((-1, 0), 0, False)])
        assert jsonable(h_to_v(square.carrier)) == {
            "vertices": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],
            "rays": [],
            "lineality": [],
        }
        assert jsonable(h_to_v(half_plane.carrier)) == {
            "vertices": [["0", "0"]],
            "rays": [["1", "0"]],
            "lineality": [["0", "1"]],
        }
        assert jsonable(cone(2, [(1, 0), (0, F(1, 2))])) == {
            "dim": 2,
            "generators": [["1", "0"], ["0", "1/2"]],
        }
        assert jsonable(point_set(2, [(1, F(1, 2)), (0, 0)])) == {
            "dim": 2,
            "points": [["0", "0"], ["1", "1/2"]],
        }
        assert jsonable(make_set(1, [((-1,), 0, True), ((1,), 1, False)])) == {
            "dim": 1,
            "rows": [
                {"normal": ["-1"], "offset": "0", "strict": True},
                {"normal": ["1"], "offset": "1"},
            ],
        }
        assert jsonable(whole_set(2)) == {"space": 2}
        assert jsonable(EmptySet(3)) == {"dim": 3, "empty": True}

    def test_jsonable_camel_case(self):
        t = graph(
            1, [((0,), (0,)), ((F(1, 2),), (F(1, 2),)), ((1,), (1,))]
        )
        c = make_set(1, [((-1,), 0, False), ((1,), 1, False)])
        m = sum_graph_membership(t, c, (1,), (2,))
        doc = jsonable(m)
        assert "conePart" in doc and "lhs" in doc
        assert doc["value"] == "2"

    def test_jsonable_writes_records_as_camel_case_objects(self):
        # Records are NamedTuples, so each must be read by its fields, not as a list.
        assert jsonable(Validation(True, False)) == {"nonempty": True, "closureIsCarrier": False}
        assert jsonable(SampleSpec(3, 7)) == {"seed": 3, "count": 7}
        assert jsonable(GridSpec()) == {"step": "1/2", "halfwidth": 2}
        cert = SeparationCertificate((F(1), F(0)), (F(1), F(1, 2)), F(3, 2))
        assert jsonable(cert) == {"normal": ["1", "0"], "supportPoint": ["1", "1/2"], "margin": "3/2"}

    def test_dumps_is_stable(self):
        doc = {"b": F(1, 2), "a": [point_set(1, [(0,)])]}
        text = dumps(doc)
        assert text == dumps(doc)
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')


class TestCheckSet:
    def test_all_passing(self):
        cs = CheckSet()
        cs.add("b-check", True)
        cs.add("a-check", True)
        doc = {}
        assert cs.finish(doc) == 0
        assert doc["paperChecks"] == ["a-check", "b-check"]
        assert "witnesses" not in doc

    def test_failure_sets_exit_two(self):
        cs = CheckSet()
        cs.add("good", True)
        cs.add("bad", False)
        doc = {"witnesses": {"kept": 1}}
        assert cs.finish(doc) == 2
        assert doc["paperChecks"] == ["good"]
        assert doc["witnesses"]["falsified"] == ["bad"]
        assert doc["witnesses"]["kept"] == 1


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_hull_verb(self, capsys):
        code, out, _ = run_cli(capsys, "hull", str(FIXTURES / "half_open_interval.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["verb"] == "hull"
        assert doc["result"]["rows"] == [{"normal": ["1"], "offset": "1"}]
        assert doc["witnesses"]["supportingRows"] == [1]
        assert "hull-idempotent" in doc["paperChecks"]
        assert doc["inputs"]["set"]["rows"][0]["strict"] is True

    def test_output_is_byte_stable(self, capsys):
        _, first, _ = run_cli(capsys, "report", str(FIXTURES / "open_square.json"))
        _, second, _ = run_cli(capsys, "report", str(FIXTURES / "open_square.json"))
        assert first == second

    def test_seed_changes_samples_not_verdict(self, capsys):
        code1, out1, _ = run_cli(
            capsys, "report", str(FIXTURES / "unit_square.json"), "--seed", "1"
        )
        code2, out2, _ = run_cli(
            capsys, "report", str(FIXTURES / "unit_square.json"), "--seed", "2"
        )
        assert code1 == code2 == 0
        a, b = json.loads(out1), json.loads(out2)
        assert a["result"]["hullAddsNothing"] is b["result"]["hullAddsNothing"] is True

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "doc.json"
        code, out, _ = run_cli(
            capsys,
            "sigma",
            str(FIXTURES / "half_open_interval.json"),
            "--dual",
            "[-1]",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["result"]["value"] == "0"
        assert doc["result"]["attainedInSet"] is False

    def test_separate_inside_hull(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "separate",
            str(FIXTURES / "half_open_interval.json"),
            "--point",
            '["-1/2"]',
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["separating"] is False
        assert doc["result"]["inPortableHull"] is True

    def test_separate_beyond_hull(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "separate",
            str(FIXTURES / "half_open_interval.json"),
            "--point",
            "[2]",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["separating"] is True
        assert doc["result"]["margin"] == "1"
        assert "certificate-reverifies" in doc["paperChecks"]

    def test_phi_pinned_value(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "phi",
            str(FIXTURES / "half_open_interval.json"),
            "--point",
            '["1/2"]',
            "--dual",
            "[1]",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["value"] == "1"
        assert "two-routes-agree" in doc["paperChecks"]

    def test_sum_check_pinned(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sum-check",
            str(FIXTURES / "staircase_graph.json"),
            str(FIXTURES / "closed_interval.json"),
            "--point",
            "[1]",
            "--dual",
            "[3]",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["value"] == "3"
        assert doc["result"]["conePart"] == ["2"]
        assert "joint-lp-matches-enumeration" in doc["paperChecks"]

    def test_exit_two_on_falsified_probe(self, capsys, tmp_path):
        wide = tmp_path / "wide.json"
        wide.write_text(
            json.dumps(
                {
                    "dim": 1,
                    "rows": [
                        {"normal": [-1], "offset": 1},
                        {"normal": [1], "offset": 1},
                    ],
                }
            )
        )
        flat = tmp_path / "flat.json"
        flat.write_text(
            json.dumps(
                {
                    "dim": 1,
                    "pairs": [{"a": [0], "astar": [0]}, {"a": [0], "astar": [1]}],
                }
            )
        )
        code, out, _ = run_cli(
            capsys,
            "sum-check",
            str(flat),
            str(wide),
            "--point",
            "[0]",
            "--dual",
            "[0]",
            "--grid",
            "1/2",
        )
        assert code == 2
        doc = json.loads(out)
        assert "probe-did-not-falsify" in doc["witnesses"]["falsified"]
        assert doc["witnesses"]["probe"]["verdict"] == "falsified"

    def test_malformed_input_names_the_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 1,\n  rows: []}')
        code, out, err = run_cli(capsys, "hull", str(bad))
        assert code == 1
        assert out == ""
        assert "line 2" in err and "column" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "hull", str(tmp_path / "absent.json"))
        assert code == 1
        assert "cannot read" in err

    def test_a_file_that_is_not_utf8_cannot_be_read(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"space": 1, "note": "\xe9"}')
        code, out, err = run_cli(capsys, "hull", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode")

    def test_dimension_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sigma",
            str(FIXTURES / "unit_square.json"),
            "--dual",
            "[1]",
        )
        assert code == 1
        assert "dimension" in err

    def test_oversized_grid_exits_one(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sum-check",
            str(FIXTURES / "gradient_graph_2d.json"),
            str(FIXTURES / "plane.json"),
            "--point",
            '["0","0"]',
            "--dual",
            '["0","0"]',
            "--grid",
            "1/1000",
        )
        assert code == 1
        assert out == ""
        assert "grid probe would check 16008001 pairs" in err

    def test_empty_set_behaviors(self, capsys):
        code, out, _ = run_cli(capsys, "hull", str(FIXTURES / "empty.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == {"space": 2}
        assert "empty-set-hull-is-space" in doc["paperChecks"]

    def test_probe_bp_verb(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe-bp", str(FIXTURES / "unit_square.json"), "--samples", "6"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["allSupport"] is True

    def test_check_verbs(self, capsys):
        for verb, fixture in [
            ("check-thm7", "quadrant.json"),
            ("check-enc", "half_open_interval.json"),
        ]:
            code, out, _ = run_cli(
                capsys, verb, str(FIXTURES / fixture), "--samples", "6"
            )
            assert code == 0, verb
            doc = json.loads(out)
            assert doc["verb"] == verb
            assert doc["paperChecks"]

    def test_check_ncs_verb(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check-ncs",
            str(FIXTURES / "half_open_interval.json"),
            str(FIXTURES / "closed_interval.json"),
            "--samples",
            "6",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["restrictionBiconditional"] is True

    def test_normal_cone_and_psi(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "normal-cone",
            str(FIXTURES / "unit_square.json"),
            "--point",
            "[1, 1]",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["result"]["generators"]) == 2

        code, out, _ = run_cli(
            capsys,
            "psi",
            str(FIXTURES / "staircase_graph.json"),
            "--point",
            '["1/2"]',
            "--dual",
            '["1/2"]',
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["value"] == "1/4"

    def test_psi_reads_a_graph_that_is_not_monotone(self, capsys, tmp_path):
        path = tmp_path / "crossing.json"
        path.write_text(
            json.dumps({"dim": 1, "pairs": [{"a": [0], "astar": [1]}, {"a": [1], "astar": [0]}]})
        )
        code, out, _ = run_cli(capsys, "psi", str(path), "--point", '["1/2"]', "--dual", '["1/2"]')
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["value"] == "0"
        assert doc["paperChecks"] == ["weights-reproduce-pair"]

    def test_portable_verb(self, capsys):
        code, out, _ = run_cli(
            capsys, "portable", str(FIXTURES / "open_square.json"), "--samples", "6"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] is False
        assert "four-conditions-agree" in doc["paperChecks"]

    def test_partial_hull_verb(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "partial-hull",
            str(FIXTURES / "unit_square.json"),
            str(FIXTURES / "lower_left_points.json"),
            "--samples",
            "6",
        )
        assert code == 0
        doc = json.loads(out)
        assert "partial-hull-collapse" in doc["paperChecks"]


def test_partial_hull_finds_its_kept_rows_once(capsys, monkeypatch):
    # The kept rows are read off the report's partial hull, so the verb
    # meets the probe's hyperplanes as often as check-ncs does: for the
    # partial hull and for the partial hull of the partial hull.
    from phk import portability

    calls = []
    real = portability._hyperplanes_meeting

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(portability, "_hyperplanes_meeting", counted)
    square, probe = str(FIXTURES / "unit_square.json"), str(FIXTURES / "open_square.json")
    for verb in ("partial-hull", "check-ncs"):
        calls.clear()
        assert run_cli(capsys, verb, square, probe)[0] == 0
        assert len(calls) == 2, verb


def test_selftest_runs_green():
    from phk.selftest import run_selftest

    ok, sections = run_selftest(seed=1, samples=3)
    assert ok
    assert len(sections) == 10
    for name, data in sections.items():
        assert data["ok"], name
        assert data["checked"] > 0


def test_selftest_reports_the_first_failing_instance(monkeypatch):
    from phk import selftest

    def section(seed, samples):
        yield True, {"x": Fraction(1)}
        yield False, {"x": Fraction(2)}
        yield False, {"x": Fraction(3)}

    monkeypatch.setattr(selftest, "SECTIONS", (("fake", section),))
    ok, sections = selftest.run_selftest(seed=0, samples=1)
    assert not ok
    assert sections == {"fake": {"ok": False, "checked": 3, "witness": {"x": "2"}}}


# Each verb-backed section and the verb it replays; ``hullCollapse`` replays two.
REPLAYED = [
    ("supportAttainment", "sigma"),
    ("fitzpatrickTwoRoutes", "phi"),
    ("portabilityConditions", "report"),
    ("separationBiconditional", "separate"),
    ("hullCollapse", "check-enc"),
    ("hullCollapse", "check-ncs"),
    ("sumRule", "sum-check"),
    ("boundarySupport", "probe-bp"),
]


def plant_failing_check(monkeypatch, verb: str) -> list[dict]:
    """Make ``verb``'s compute function also add a failing check; returns
    the list of the inputs it is called with."""
    from phk.cli import VERBS

    seen = []
    real = VERBS[verb].compute

    def planted(inputs, args, checks):
        seen.append(dict(inputs))
        checks.add("planted", False)
        return real(inputs, args, checks)

    monkeypatch.setitem(VERBS, verb, VERBS[verb]._replace(compute=planted))
    return seen


@pytest.mark.parametrize("section, verb", REPLAYED)
def test_selftest_fails_with_the_verb_whose_check_fails(monkeypatch, section, verb):
    # A check planted in one verb's compute function fails the section that
    # replays it, with the head of the verb's document as the witness.
    from phk import selftest
    from phk.serialize import jsonable

    seen = plant_failing_check(monkeypatch, verb)
    monkeypatch.setattr(selftest, "SECTIONS", [s for s in selftest.SECTIONS if s[0] == section])
    ok, sections = selftest.run_selftest(seed=0, samples=2)
    assert not ok and seen
    assert sections[section]["witness"] == {"verb": verb, "inputs": jsonable(seen[0])}


def test_a_selftest_witness_reruns_as_its_verb(capsys, monkeypatch, tmp_path):
    # Every other section stays green, and the witness's inputs, given to
    # ``phk sigma``, falsify the planted check again.
    from phk import selftest

    plant_failing_check(monkeypatch, "sigma")
    ok, sections = selftest.run_selftest(seed=0, samples=2)
    assert [name for name, body in sections.items() if not body["ok"]] == ["supportAttainment"]
    witness = sections["supportAttainment"]["witness"]
    (tmp_path / "set.json").write_text(json.dumps(witness["inputs"]["set"]))
    code, out, _ = run_cli(
        capsys, witness["verb"], str(tmp_path / "set.json"), "--dual", json.dumps(witness["inputs"]["dual"])
    )
    doc = json.loads(out)
    assert (code, doc["witnesses"]["falsified"]) == (2, ["planted"])
    assert {k: doc[k] for k in witness} == witness


def test_sample_count_is_capped_before_any_work(capsys, monkeypatch):
    from phk import selftest
    from phk.sampling import SAMPLE_COUNT_CAP

    seen = []

    def section(seed, samples):
        seen.append(samples)
        yield True, {}

    monkeypatch.setattr(selftest, "SECTIONS", (("fake", section),))
    code, _, err = run_cli(capsys, "selftest", "--samples", str(SAMPLE_COUNT_CAP))
    assert (code, err, seen) == (0, "", [SAMPLE_COUNT_CAP])
    over = str(SAMPLE_COUNT_CAP + 1)
    code, out, err = run_cli(capsys, "selftest", "--samples", over)
    assert (code, out, seen) == (1, "", [SAMPLE_COUNT_CAP])
    assert err == f"error: --samples {over} is above the cap of {SAMPLE_COUNT_CAP}\n"
    code, _, _ = run_cli(capsys, "report", str(FIXTURES / "unit_square.json"), "--samples", over)
    assert code == 1


@pytest.mark.parametrize("value", [" 2", "2 ", "1_0", "\u0663", "\uff12"], ids=repr)
@pytest.mark.parametrize("option", ["--seed", "--samples"])
def test_integer_options_follow_the_literal_rule(capsys, option, value):
    # Whitespace, underscores and non-ASCII digits, which int() reads, are
    # refused as rat refuses them, with argparse's message and exit code.
    with pytest.raises(SystemExit) as got:
        main(["selftest", option, value])
    assert got.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {option}: invalid int value: {value!r}\n"
    )


def test_long_integer_options_are_quoted_by_their_start(capsys):
    # argparse echoes an unreadable int option in full; past 40 characters
    # only its start and its length are shown, with argparse's exit code 2.
    for option, value in (("--samples", "9" * 5000), ("--seed", "x" * 41)):
        with pytest.raises(SystemExit) as got:
            main(["selftest", option, value])
        err = capsys.readouterr().err
        assert got.value.code == 2
        assert err.endswith(
            f"error: argument {option}: invalid int value: {value[:40]!r}... ({len(value)} characters)\n"
        )
    # A count that int() reads but the cap refuses is shortened the same way.
    for value, message in (
        ("9" * 4300, f"--samples {'9' * 40}... (4300 characters) is above the cap of 400"),
        ("-" + "9" * 4300, f"--samples must be at least 1, got -{'9' * 39}... (4301 characters)"),
    ):
        assert run_cli(capsys, "selftest", "--samples", value) == (1, "", f"error: {message}\n")
