"""Documents drawn from a small grammar, run through the CLI in process.

A drawn case is a set, a probe (a set or a point set), a graph, and a
``--point`` and a ``--dual`` vector, in dimensions 0-3 with at most 4 rows
and 3 pairs.  In place of a rational a value may be a nested list, a bool,
a null, a float, an odd literal (``"1e5"``, ``"1_0"``, ``" 1"``, an
Arabic-Indic digit, ``"1/0"``, ``"1e999999999"``) or a bare JSON number
written as such, or a list nested too deep to parse; a document may carry
an extra key.  ``hull``, ``sigma``,
``psi`` and ``partial-hull`` run on each case with ``--samples 2``.  Each
call must end with exit 0 (answered) or 1 (input refused): exit 2 would be
a falsified paper check, and any exception escaping ``main`` is a defect.
"""
from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, strategies as st

from phk import cli

ODD_LITERALS = ("1e5", "1_0", " 1", "\u0663", "1/0", "1e999999999")
# Written into the JSON text unquoted: numbers, and a list nested past
# the parser's recursion limit.
BARE = ("1e999999999", "1e5", "-0", "2.5", "1E-3", "[" * 5000 + "]" * 5000)

good = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 3), st.integers(1, 3)),
)
odd = st.one_of(
    st.sampled_from(ODD_LITERALS),
    st.sampled_from(range(len(BARE))).map(lambda i: f"#bare:{i}"),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.recursive(good, lambda inner: st.lists(inner, max_size=2), max_leaves=4),
)
no_key = st.just({})


class Grammar:
    """The strategies of one drawn case: a clean case draws well-formed
    values only, so that most of its documents reach the computation; a
    dirty one mixes in odd values, odd dimensions, odd vector lengths and
    extra keys."""

    def __init__(self, dirty: bool) -> None:
        self.dirty = dirty
        self.rational = st.one_of(good, good, good, odd) if dirty else good
        self.flag = st.one_of(st.booleans(), odd) if dirty else st.booleans()
        self.dim = (
            st.one_of(st.integers(0, 3), st.sampled_from((True, "2", -1, None)))
            if dirty
            else st.integers(1, 3)
        )
        self.extra = (
            st.one_of(no_key, no_key, st.sampled_from(({"extra": 1}, {"Dim": 2})))
            if dirty
            else no_key
        )

    def vector(self, dim) -> st.SearchStrategy:
        """``dim`` entries when ``dim`` is a small int, else 2; in a dirty
        case now and then another length, or not a list at all."""
        size = dim if type(dim) is int and 0 <= dim <= 3 else 2
        exact = st.lists(self.rational, min_size=size, max_size=size)
        if not self.dirty:
            return exact
        return st.one_of(exact, exact, exact, st.lists(self.rational, max_size=4), odd)

    @st.composite
    def set_doc(draw, self, dim):
        kind = draw(st.sampled_from(("rows", "rows", "rows", "rows", "empty", "space")))
        if kind == "empty":
            doc = {"empty": draw(self.flag), "dim": dim}
        elif kind == "space":
            doc = {"space": dim}
        else:
            rows = []
            for _ in range(draw(st.integers(0, 4))):
                row = {"normal": draw(self.vector(dim)), "offset": draw(self.rational)}
                if draw(st.booleans()):
                    row["strict"] = draw(self.flag)
                rows.append(row | draw(self.extra))
            doc = {"dim": dim, "rows": rows}
        return doc | draw(self.extra)

    @st.composite
    def point_doc(draw, self, dim):
        doc = {"points": draw(st.lists(self.vector(dim), min_size=not self.dirty, max_size=3))}
        if draw(st.booleans()):
            doc["dim"] = dim
        return doc | draw(self.extra)

    @st.composite
    def graph_doc(draw, self, dim):
        pairs = [
            {"a": draw(self.vector(dim)), "astar": draw(self.vector(dim))} | draw(self.extra)
            for _ in range(draw(st.integers(0 if self.dirty else 1, 3)))
        ]
        return {"dim": dim, "pairs": pairs} | draw(self.extra)


@st.composite
def cases(draw):
    grammar = Grammar(draw(st.booleans()))
    dim = draw(grammar.dim)
    return {
        "set": draw(grammar.set_doc(dim)),
        "probe": draw(st.one_of(grammar.set_doc(dim), grammar.point_doc(dim))),
        "graph": draw(grammar.graph_doc(dim)),
        "point": draw(grammar.vector(dim)),
        "dual": draw(grammar.vector(dim)),
    }


def text(value) -> str:
    """The JSON text of a drawn value, each bare text unquoted."""
    out = json.dumps(value)
    for i, bare in enumerate(BARE):
        out = out.replace(json.dumps(f"#bare:{i}"), bare)
    return out


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


def run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@given(cases())
def test_drawn_documents_are_answered_or_refused(folder, case):
    files = {}
    for name in ("set", "probe", "graph"):
        files[name] = folder / f"{name}.json"
        files[name].write_text(text(case[name]), encoding="utf-8")
    point, dual = f"--point={text(case['point'])}", f"--dual={text(case['dual'])}"
    common = ["--samples", "2"]
    for argv in (
        ["hull", str(files["set"]), *common],
        ["sigma", str(files["set"]), dual, *common],
        ["psi", str(files["graph"]), point, dual, *common],
        ["partial-hull", str(files["set"]), str(files["probe"]), *common],
    ):
        assert run(argv) in (0, 1), argv
