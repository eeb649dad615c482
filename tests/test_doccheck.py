"""``doccheck`` re-checks the ``hull`` documents of the golden cases."""
from __future__ import annotations

import ast
import copy
import json
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from doccheck import check_hull, rational
from test_golden_cli import cases, extra_cases, run

TESTS = Path(__file__).resolve().parent


@cache
def hull_documents() -> dict[str, dict]:
    """Every ``hull`` case of the two golden files that exits 0, run now."""
    recorded = {}
    for name in ("golden_cli.json", "golden_cli_extra.json"):
        recorded |= json.loads((TESTS / name).read_text(encoding="utf-8"))
    out = {}
    for argv in cases() + extra_cases():
        key = " ".join(argv)
        if argv[0] == "hull" and recorded[key]["code"] == 0:
            got = run(argv)
            assert got["code"] == 0, key
            out[key] = json.loads(got["stdout"])
    return out


def test_every_hull_golden_checks_out():
    docs = hull_documents()
    assert len(docs) == 10
    for key, doc in docs.items():
        assert check_hull(doc) == [], key


def test_doccheck_imports_nothing_from_phk():
    tree = ast.parse((TESTS / "doccheck.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported <= {"__future__", "fractions", "re"}


def _open_square() -> dict:
    return copy.deepcopy(hull_documents()["hull fixtures/open_square.json"])


def test_a_missing_support_point_is_caught():
    doc = _open_square()
    del doc["witnesses"]["supportPoints"][0]
    assert check_hull(doc) == ["supportPoints do not give one point per supporting row"]


def test_a_point_outside_the_set_or_off_its_row_is_caught():
    doc = _open_square()
    # (1, 0) meets the strict row x < 1 with equality.
    doc["witnesses"]["supportPoints"][1]["point"] = ["1", "0"]
    assert check_hull(doc) == ["the point of row 1 violates row 3"]
    doc["witnesses"]["supportPoints"][1]["point"] = ["1/2", "1/2"]
    assert check_hull(doc) == ["the point of row 1 is off its hyperplane"]


def test_a_strict_row_in_the_hull_is_caught():
    doc = _open_square()
    doc["witnesses"]["supportingRows"] = [0, 1, 2]
    doc["witnesses"]["supportPoints"].append({"row": 2, "point": ["0", "1"]})
    doc["result"]["rows"].append({"normal": ["0", "1"], "offset": "1"})
    assert check_hull(doc) == ["the point of row 2 violates row 2"]


def test_the_result_must_be_the_supporting_rows():
    doc = _open_square()
    del doc["result"]["rows"][0]
    assert check_hull(doc) == ["the result's rows are not the input rows at supportingRows"]


@pytest.mark.parametrize("text", ["1/1", "2/4", "-0", "+1", "1.5", "1e3", " 1", "0/3", 3])
def test_only_the_written_form_is_a_rational(text):
    with pytest.raises(ValueError):
        rational(text)


def test_the_written_form_reads_back():
    got = [rational(t) for t in ("0", "-7", "3/4", "-1/2")]
    assert got == [Fraction(0), Fraction(-7), Fraction(3, 4), Fraction(-1, 2)]
