"""The README's examples run and print what their comments say."""
from __future__ import annotations

import importlib
import json
import re
import shlex
from fractions import Fraction as F
from pathlib import Path

import phk
from phk.cli import VERBS
from phk.polyhedra import ClosedPolyhedron
from phk.scalars import fin
from test_golden_cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# expression -> (its comment in the README, a check of its value)
EXPECTED = {
    "portable_hull(half_open)": (
        "ClosedPolyhedron: x <= 1",
        lambda v: v == ClosedPolyhedron(1, (((F(1),), F(1)),)),
    ),
    "is_portable(half_open)": ("False", lambda v: v is False),
    "separation_certificate(half_open, (F(2),))": (
        "normal (1,), support point (1,), margin 1",
        lambda v: (v.normal, v.support_point, v.margin) == ((1,), (1,), 1),
    ),
    "support_value(half_open, (F(-1),))": (
        "value 0, attained_in_set=False",
        lambda v: v.value == fin(F(0)) and v.attained_in_set is False,
    ),
    "support_level(half_open, (F(-1),))": (
        "the value 0 alone, one LP fewer",
        lambda v: v == fin(F(0)),
    ),
    "normal_cone_at(half_open, (F(1),)).generators": ("((1,),)", lambda v: v == ((1,),)),
}


def _library_block() -> str:
    section = README.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_matches_its_comments():
    script = []
    for line in _library_block().splitlines():
        code, _, comment = line.partition("  # ")
        code, comment = code.strip(), comment.strip()
        if comment and " = " not in code:
            assert code in EXPECTED, f"README result without a check: {code}"
            assert comment == EXPECTED[code][0], code
            script.append(f"results[{code!r}] = {code}")
        else:
            script.append(line)
    namespace: dict = {"results": {}}
    exec("\n".join(script), namespace)
    results = namespace["results"]
    assert sorted(results) == sorted(EXPECTED)
    for code, (_, check) in EXPECTED.items():
        assert check(results[code]), code


def test_named_library_functions_exist():
    section = README.split("The heavier machinery lives one import away:", 1)[1]
    paragraph = section.split("\n\n", 1)[0]
    names = re.findall(r"`(\w+)`", paragraph)
    assert len(names) >= 10
    missing = [n for n in names if not hasattr(phk, n)]
    assert not missing


def _command_line_section() -> str:
    return README.split("## Command line", 1)[1].split("\n### ", 1)[0]


def test_verb_table_matches_the_cli():
    words = {"set": "SET", "probe": "PROBE", "graph": "GRAPH", "point": "--point P", "dual": "--dual D"}
    expected = [
        " ".join([name] + [words[i] for i in verb.inputs if i in words])
        for name, verb in VERBS.items()
    ]
    table = re.findall(r"^\| `([^`]+)` \|", _command_line_section(), re.M)
    assert table == expected


def _shell_examples() -> list[tuple[list[str], str]]:
    """(argv, comment and output excerpt) of each ``$ phk`` example."""
    block = re.search(r"```sh\n(.*?)```", _command_line_section(), re.S).group(1)
    examples: list[tuple[list[str], str]] = []
    lines = iter(block.splitlines())
    for line in lines:
        if line.startswith("$ phk "):
            while line.endswith("\\"):
                line = line[:-1] + next(lines)
            command, _, comment = line[2:].partition("#")
            examples.append((shlex.split(command)[1:], comment))
        elif line and examples:
            argv, text = examples[-1]
            examples[-1] = (argv, text + "\n" + line.lstrip("# "))
    return examples


# A value named in a comment: ``key "1"``, ``key ["1"]`` or ``"key": true``.
NAMED_VALUE = re.compile(r'(\w+)"?:? ("[^"]*"|\[[^\]]*\]|true|false)')


def test_command_line_examples_run_as_shown():
    examples = _shell_examples()
    assert len(examples) == 8
    named = 0
    for argv, text in examples:
        got = run(argv)
        assert got["code"] == 0, argv
        doc = json.loads(got["stdout"])
        if text.lstrip().startswith("{"):
            # an output excerpt: every key it shows matches the document
            excerpt = json.loads(text.replace("\n...", ""))
            assert excerpt == {k: doc[k] for k in excerpt}, argv
            named += len(excerpt)
            continue
        for key, value in NAMED_VALUE.findall(text):
            shown = doc["result"] if key == "result" else doc["result"][key]
            assert shown == json.loads(value), (argv, key)
            named += 1
    assert named == 13


def test_quoted_constants_have_their_values():
    quoted = re.findall(r"`phk\.(\w+)\.([A-Z_]+)` = (\d+)", README)
    assert len(quoted) >= 4
    for module, name, value in quoted:
        got = getattr(importlib.import_module(f"phk.{module}"), name)
        assert got == int(value), (module, name)
