"""The README's library example runs and prints what its comments say."""
from __future__ import annotations

import re
from fractions import Fraction as F
from pathlib import Path

import phk
from phk.polyhedra import ClosedPolyhedron
from phk.scalars import fin

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
