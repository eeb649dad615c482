"""Golden CLI output: every verb but ``selftest`` on every fixture it accepts.

``golden_cli.json`` maps each argv (joined by spaces, run from the repository
root) to the exit code and stdout that the CLI printed when the goldens were
recorded.  A refactor must reproduce those bytes exactly.  To record them
again after a deliberate output change, run from the repository root:

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""
from __future__ import annotations

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


def run(argv: list[str]) -> dict:
    """Exit code and stdout of one in-process CLI call from the repo root."""
    from phk.cli import main

    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return {"code": code, "stdout": stdout.getvalue()}


@cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_goldens_cover_every_case():
    assert sorted(_golden()) == sorted(" ".join(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_stdout_matches_golden(argv):
    expected = _golden()[" ".join(argv)]
    assert run(argv) == expected


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


if __name__ == "__main__":
    docs = {" ".join(argv): run(argv) for argv in cases()}
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(docs)} cases to {GOLDEN}", file=sys.stderr)
