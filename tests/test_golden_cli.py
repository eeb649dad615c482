"""Golden CLI output: every verb but ``selftest`` on every fixture it accepts.

``golden_cli.json`` maps each argv (joined by spaces, run from the repository
root) to the exit code and stdout that the CLI printed when the goldens were
recorded.  ``golden_cli_extra.json`` does the same, stderr included, for two
``selftest`` runs, one ``sum-check`` run on a set outside ``fixtures/``, one
``hull`` of a set written with JSON numbers, and every way the CLI refuses
its input.
``cli_surface.json`` pins each verb's positionals and options.  A refactor
must reproduce all of them exactly.  To record them again after a deliberate
change, run from the repository root:

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
GOLDEN_EXTRA = Path(__file__).resolve().parent / "golden_cli_extra.json"
SURFACE = Path(__file__).resolve().parent / "cli_surface.json"

SETS_1D = ("closed_interval", "half_open_interval")
SETS_2D = (
    "left_half_plane",
    "open_square",
    "plane",
    "quadrant",
    "slab_with_line",
    "unit_square",
)
CLOSED = ("closed_interval", "left_half_plane", "plane", "quadrant", "slab_with_line", "unit_square")
# A point of each nonempty set and a point outside it (None: there is none).
INSIDE = {
    "closed_interval": '["1/2"]',
    "half_open_interval": '["1"]',
    "left_half_plane": '["0","3"]',
    "open_square": '["0","1/2"]',
    "plane": '["1","-2"]',
    "quadrant": '["0","0"]',
    "slab_with_line": '["1","5"]',
    "unit_square": '["1","1"]',
}
OUTSIDE = {
    "closed_interval": '["2"]',
    "half_open_interval": '["-1"]',
    "left_half_plane": '["1","0"]',
    "open_square": '["1","1/2"]',
    "plane": None,
    "quadrant": '["-1","2"]',
    "slab_with_line": '["3","0"]',
    "unit_square": '["2","2"]',
}
DUAL = {1: '["3/2"]', 2: '["1","-1/2"]'}


def _f(name: str) -> str:
    return f"fixtures/{name}.json"


def cases() -> list[list[str]]:
    sets = SETS_1D + SETS_2D
    dim = {name: 1 if name in SETS_1D else 2 for name in sets}
    probes = {
        1: SETS_1D,
        2: ("lower_left_points", "empty") + SETS_2D,
    }
    out: list[list[str]] = []
    for name in sets + ("empty",):
        out.append(["hull", _f(name)])
        out.append(["portable", _f(name)])
        d = dim.get(name, 2)
        out.append(["sigma", _f(name), "--dual", DUAL[d]])
        point = INSIDE.get(name, '["0","0"]')
        out.append(["phi", _f(name), "--point", point, "--dual", DUAL[d]])
    for name in sets:
        out.append(["report", _f(name)])
        out.append(["probe-bp", _f(name)])
        out.append(["check-enc", _f(name)])
        out.append(["normal-cone", _f(name), "--point", INSIDE[name]])
        if OUTSIDE[name] is not None:
            out.append(["separate", _f(name), "--point", OUTSIDE[name]])
        if name in CLOSED:
            out.append(["check-thm7", _f(name)])
        for probe in probes[dim[name]]:
            out.append(["partial-hull", _f(name), _f(probe)])
            out.append(["check-ncs", _f(name), _f(probe)])
    out.append(["psi", _f("staircase_graph"), "--point", '["1/4"]', "--dual", '["1/4"]'])
    out.append(["psi", _f("gradient_graph_2d"), "--point", '["1/2","0"]', "--dual", '["1","1/2"]'])
    for graph, name, point, dual in (
        ("staircase_graph", "closed_interval", '["1"]', '["3"]'),
        ("staircase_graph", "half_open_interval", '["1/2"]', '["1/2"]'),
        ("gradient_graph_2d", "plane", '["1/2","0"]', '["1","1/2"]'),
        ("gradient_graph_2d", "slab_with_line", '["0","0"]', '["0","0"]'),
    ):
        out.append(["sum-check", _f(graph), _f(name), "--point", point, "--dual", dual])
    out.append(
        ["sum-check", _f("staircase_graph"), _f("closed_interval"),
         "--point", '["1"]', "--dual", '["1"]', "--grid", "1/2"]
    )
    return out


def extra_cases() -> list[list[str]]:
    """Two ``selftest`` runs, one ``sum-check`` run, one ``hull`` run, and
    one call per input-rejection path."""
    e = _f("empty")
    square, interval, half_open = _f("unit_square"), _f("closed_interval"), _f("half_open_interval")
    stair, gradient, points = _f("staircase_graph"), _f("gradient_graph_2d"), _f("lower_left_points")
    missing, truncated = _f("missing"), "tests/data/truncated_set.json"
    huge = "tests/data/huge_offset_set.json"
    # {0 <= x <= b} with b of 3001 digits, and a set with a 5000-digit JSON number
    bound, number = "tests/data/huge_bound_interval.json", "tests/data/huge_number_set.json"
    p1, p2 = ["--point", '["1"]'], ["--point", '["1","1"]']
    d1, d2 = ["--dual", '["1"]'], ["--dual", '["1","1"]']
    return [
        ["selftest", "--seed", "0", "--samples", "2"],
        ["selftest", "--seed", "1", "--samples", "3"],
        # a 2-D sum whose value needs a multiplier column: without one the
        # enumeration finds no basic solution and reads +inf
        ["sum-check", gradient, "tests/data/square_about_origin.json", "--point", '["0","0"]', *d2],
        # an empty set where the verb needs a nonempty one
        ["report", e],
        ["probe-bp", e],
        ["check-thm7", e],
        ["check-enc", e],
        ["separate", e, *p2],
        ["normal-cone", e, *p2],
        ["sum-check", gradient, e, *p2, *d2],
        ["partial-hull", e, points],
        ["check-ncs", e, points],
        # the empty set is refused before the next input is read
        ["partial-hull", e, missing],
        ["separate", e, *p1],
        # --point / --dual of the wrong dimension, in load order
        ["phi", square, *p1, *d2],
        ["phi", square, *p2, *d1],
        ["phi", square, *p1, *d1],
        ["phi", e, *p1, *d2],
        ["separate", interval, *p2],
        ["normal-cone", square, *p1],
        ["sigma", interval, *d2],
        ["psi", stair, *p2, *d1],
        ["psi", stair, *p1, *d2],
        ["sum-check", stair, interval, *p2, *d1],
        ["sum-check", stair, interval, *p1, *d2],
        ["phi", interval, "--point", "[]", *d1],
        # --point / --dual that are not JSON vectors
        ["phi", square, "--point", "abc", *d2],
        ["sigma", interval, "--dual", "[1/2]"],
        ["psi", stair, *p1, "--dual", "nope"],
        ["separate", half_open, "--point", '{"x": 1}'],
        # graph/set and probe/set dimension mismatches
        ["sum-check", gradient, interval, *p1, *d1],
        ["sum-check", stair, square, *p2, *d2],
        ["partial-hull", interval, points],
        ["partial-hull", square, interval],
        ["check-ncs", square, half_open],
        # missing files, malformed JSON, a file of the wrong kind
        ["hull", missing],
        ["partial-hull", square, missing],
        ["psi", missing, *p1, *d1],
        ["sum-check", missing, e, *p2, *d2],
        ["hull", truncated],
        ["check-ncs", square, truncated],
        ["psi", truncated, *p1, *d1],
        ["hull", stair],
        ["psi", square, *p2, *d2],
        ["partial-hull", square, stair],
        # a row offset past the int-from-str digit limit
        ["hull", huge],
        # a support value past the int-to-str digit limit, and a JSON
        # number past the int-from-str one
        ["sigma", bound, "--dual", json.dumps(["1" * 3001])],
        ["hull", number],
        # an output file that cannot be written
        ["hull", square, "--out", "tests/data/no_such_dir/out.json"],
        # a sample count below 1, refused before any input is read
        ["selftest", "--samples", "0"],
        ["report", square, "--samples", "-1"],
        # a sample count above the cap, refused before any input is read
        ["selftest", "--samples", "401"],
        # an exponent literal whose integer passes the digit limit, refused
        # before it is built
        ["hull", "tests/data/huge_exponent_set.json"],
        # an exponent of 4000 digits, refused by the exponent's length
        ["hull", "tests/data/long_exponent_set.json"],
        # JSON nested past every supported Python's recursion limit (10000
        # levels at most), in a file and in --dual, and an object that
        # repeats a key
        ["hull", "tests/data/deep_nesting.json"],
        ["sigma", interval, "--dual", "[" * 12000],
        ["hull", "tests/data/duplicate_key_set.json"],
        # a graph with no domain point strictly inside the set [1, 2]
        ["sum-check", stair, "tests/data/one_to_two.json", *p1, *d1],
        # a 5000-digit --samples, which argparse refuses (exit 2), quoted
        # by its start and length
        ["selftest", "--samples", "9" * 5000],
        # a literal that Fraction reads as 1000
        ["sigma", interval, "--dual", '["1_000"]'],
        # JSON numbers with a fraction or an exponent, read exactly as the
        # same literals in quotes
        ["hull", "tests/data/float_numbers_set.json"],
        # a --samples with a leading space and an Arabic-Indic --seed, which
        # int() reads and argparse now refuses (exit 2)
        ["selftest", "--samples", " 2", "--seed", "\u0663"],
        # an unknown key on a graph, on one of its pairs, and on a point set
        ["psi", "tests/data/graph_extra_key.json", *p1, *d1],
        ["psi", "tests/data/pair_extra_key.json", *p1, *d1],
        ["check-ncs", square, "tests/data/points_extra_key.json"],
    ]


def run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process CLI call from the repo
    root; an argument refused by argparse gives its exit code."""
    from phk.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def surface() -> dict:
    """Per verb, in order: positional names, and each option's strings,
    ``required``, ``default`` and type name."""
    from phk.cli import build_parser

    verbs = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    out = {}
    for verb, parser in verbs.choices.items():
        actions = parser._actions
        out[verb] = {
            "positionals": [a.dest for a in actions if not a.option_strings],
            "options": [
                [a.option_strings, a.required, a.default, getattr(a.type, "__name__", a.type)]
                for a in actions
                if a.option_strings
            ],
        }
    return out


@cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@cache
def _golden_extra() -> dict:
    return json.loads(GOLDEN_EXTRA.read_text(encoding="utf-8"))


def test_goldens_cover_every_case():
    assert sorted(_golden()) == sorted(" ".join(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_stdout_matches_golden(argv):
    expected = _golden()[" ".join(argv)]
    got = run(argv)
    assert {"code": got["code"], "stdout": got["stdout"]} == expected


def test_extra_goldens_cover_every_case():
    assert sorted(_golden_extra()) == sorted(" ".join(argv) for argv in extra_cases())


@pytest.mark.parametrize("argv", extra_cases(), ids=" ".join)
def test_selftest_and_rejections_match_golden(argv):
    assert run(argv) == _golden_extra()[" ".join(argv)]


def test_cli_surface_is_unchanged():
    assert json.loads(json.dumps(surface())) == json.loads(SURFACE.read_text(encoding="utf-8"))


# A few verbs run in fresh interpreters under two hash seeds.
HASH_SEED_CASES = (
    ["report", _f("open_square")],
    ["check-ncs", _f("unit_square"), _f("lower_left_points")],
    ["sum-check", _f("gradient_graph_2d"), _f("plane"), "--point", '["1/2","0"]', "--dual", '["1","1/2"]'],
    ["hull", _f("half_open_interval")],
)


@pytest.mark.parametrize("argv", HASH_SEED_CASES, ids=" ".join)
def test_stdout_does_not_depend_on_hash_seed(argv):
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        got = subprocess.run(
            [sys.executable, "-m", "phk.cli", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        )
        outs.append(got.stdout)
    assert outs[0] == outs[1] == _golden()[" ".join(argv)]["stdout"]


def test_goldens_replay_under_optimize_flag():
    """``replay_goldens.py`` under ``python -O``: no answer rests on an assert."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    got = subprocess.run(
        [sys.executable, "-O", str(ROOT / "tests" / "replay_goldens.py")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    total = len(cases()) + len(extra_cases())
    assert (got.returncode, got.stderr) == (0, "")
    assert got.stdout == f"{total} of {total} goldens match (assertions off)\n"


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} entries to {path}", file=sys.stderr)


if __name__ == "__main__":
    stdout_only = ({"code": d["code"], "stdout": d["stdout"]} for d in map(run, cases()))
    _write(GOLDEN, dict(zip((" ".join(argv) for argv in cases()), stdout_only)))
    _write(GOLDEN_EXTRA, {" ".join(argv): run(argv) for argv in extra_cases()})
    _write(SURFACE, surface())
