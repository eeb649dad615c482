"""What importing phk costs, and what nothing needs.

Every name a module under ``src/phk`` imports is used in that module.  The
check is a plain ``ast`` scan: a name bound by ``import`` or ``from ...
import`` must be loaded somewhere in the module or listed in its ``__all__``.
``__init__.py`` is exempt, since its imports are the package's re-exports.
The same kind of scan finds definitions that nothing loads, names that only
the tests and the package's re-exports read, reads of the process
environment, which would let a setting outside the input change an answer,
and reads of a rational's numerator or denominator outside
``linalg`` and ``scalars``: clearing denominators is ``linalg.scaled``'s job.
Outside ``lp`` and ``corpus`` no module builds a primal program
(``LPProblem`` or ``problem``): a maximum whose point nobody reads is asked
of an ``lp.SupportLP``, which solves the n-row dual instead of the m-row
primal tableau, and a system is empty exactly when the zero objective's
maximum is None.  Canonicalization's redundancy tests ask the emptiness
test's ``SupportLP`` with rows left out; ``lp.max_value``, its one-shot
form, is public, and only the tests call it.  Inside ``lp`` only ``problem``, which
the corpus calls, and ``strict_system_feasible``, the margin program that
gives a point of a system, build one.

Sets are valid when built: ``PartiallyOpenPolyhedron`` checks itself, no
module guards a set at its use (``require_valid``), no record stores a
validation outcome, and only ``polyhedra`` builds a set field by field.

A cold CLI call does not import the seeded corpora or the
Fourier-Motzkin oracle, which only the ``selftest`` verb needs.  Records
are ``NamedTuple``s, whose classes cost no generated code at import; the
few dataclasses left are listed with their reasons.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "phk"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(set(imported) - used)


def test_the_scan_sees_unused_names():
    src = "from __future__ import annotations\nimport os, sys\nfrom math import gcd as g, lcm\n" \
          "__all__ = ['lcm']\nprint(sys.argv)\n"
    assert unused_imports(src) == ["g", "os"]


def test_modules_are_found():
    assert len(MODULES) >= 15


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(source: str) -> list[str]:
    """Top-level functions and classes, and the methods of those classes;
    dunder methods are called by the language and are left out."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            out += [n.name for n in node.body if isinstance(n, ast.FunctionDef)]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
    return [n for n in out if not (n.startswith("__") and n.endswith("__"))]


def loaded_names(source: str) -> set[str]:
    """Every name read as a variable or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_the_scan_sees_unloaded_definitions():
    src = "class A:\n    def m(self): pass\n    def __len__(self): return 0\n" \
          "def f(): pass\ndef g(): return A().m()\n"
    assert defined_names(src) == ["m", "A", "f", "g"]
    assert {"A", "m"} <= loaded_names(src) and "f" not in loaded_names(src)


def test_every_definition_is_loaded_somewhere():
    import phk

    used = set(phk.__all__)
    for path in sorted(SRC.glob("*.py")) + TESTS:
        used |= loaded_names(path.read_text(encoding="utf-8"))
    unused = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in defined_names(path.read_text(encoding="utf-8"))
        if name not in used
    ]
    assert unused == []


def module_level_names(source: str) -> list[str]:
    """Top-level functions, classes and assigned names."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, ast.Assign):
            out += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append(node.target.id)
    return out


def test_the_scan_sees_module_level_names():
    src = "X = 1\nY: int = 2\nclass A:\n    Z = 3\ndef f():\n    w = 4\n"
    assert module_level_names(src) == ["X", "Y", "A", "f"]


# The names in ``src/phk`` that no module but ``__init__`` reads, each with
# why it stays.  Code only the tests call belongs in the tests: a new name
# here needs a reason of the same kind.
UNREAD_IN_SRC = {
    "closed_as_set": "public wrap of a closed polyhedron as a set; ``closed_subset_of`` takes the polyhedron itself",
    "cone": "public constructor of a generated cone from raw generators",
    "cones_equal": "public cone comparison, documented in README",
    "graph_pairs": "the sampled normal-cone graph the acceptance and reference tests rebuild reports from",
    "graph_related": "the paper's relation of a pair to a finite graph, read by the tests as its definition",
    "interior_point_of_carrier": "the paper's interior condition, read by the acceptance tests as its definition",
    "is_bounded": "the paper's boundedness, read by the acceptance tests as its definition",
    "lineality_space": "the paper's lines of a closed set, read by the acceptance tests as its definition",
    "max_value": "the one-shot maximum, read by the tests' reference redundancy pass",
    "monotonically_related": "the paper's monotone relation, from which the reference report is rebuilt",
    "points_in": "the sampled points of the set, which the sampling and reference tests check the samplers by",
    "rep_sum_value": "public sum value with its certificate, documented in README",
    "strictly_inside": "public interior test, documented in README",
    "vsub": "the counterpart of ``vadd``, read by the reference tests",
}


def test_names_no_module_reads_are_the_kept_ones():
    read = set()
    for path in MODULES:
        read |= loaded_names(path.read_text(encoding="utf-8"))
    unread = {
        name
        for path in MODULES
        for name in module_level_names(path.read_text(encoding="utf-8"))
        if name not in read
    }
    assert unread == set(UNREAD_IN_SRC)


def test_no_module_reads_the_environment():
    readers = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if {"environ", "getenv"} & loaded_names(path.read_text(encoding="utf-8"))
    ]
    assert readers == []


def fraction_part_reads(source: str) -> list[int]:
    """Lines that read ``.numerator`` or ``.denominator``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")
    ]


def test_the_scan_sees_fraction_part_reads():
    assert fraction_part_reads("a = q.numerator\nb = 1\nc = f(q).denominator * 2\n") == [1, 3]


def test_only_linalg_and_scalars_take_rationals_apart():
    readers = [
        f"{path.name}:{line}"
        for path in MODULES
        if path.name not in ("linalg.py", "scalars.py")
        for line in fraction_part_reads(path.read_text(encoding="utf-8"))
    ]
    assert readers == []


def called_names(source: str) -> set[str]:
    """Names called as ``f(...)`` or as ``module.f(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def test_the_scan_sees_calls():
    src = "from .lp import LPProblem\ng = LPProblem\nlp.problem(c, rows)\nh(LPProblem)\n"
    assert called_names(src) == {"problem", "h"}
    assert "LPProblem" not in called_names("from .lp import LPProblem\n__all__ = ['LPProblem']\n")


def functions(source: str) -> list[ast.FunctionDef]:
    """Top-level functions and the methods of top-level classes."""
    out = []
    for node in ast.parse(source).body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        out += [n for n in body if isinstance(n, ast.FunctionDef)]
    return out


def test_the_scan_sees_functions_and_methods():
    src = "def f():\n    def g(): pass\nclass A:\n    def m(self): pass\nx = 1\n"
    assert [f.name for f in functions(src)] == ["f", "m"]


def test_only_lp_solves_the_primal_for_a_value():
    callers = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("lp.py", "corpus.py")
        and {"LPProblem", "problem"} & called_names(path.read_text(encoding="utf-8"))
    ]
    assert callers == []
    builders = [
        f.name
        for f in functions((SRC / "lp.py").read_text(encoding="utf-8"))
        if "LPProblem" in called_names(ast.unparse(f))
    ]
    assert builders == ["problem", "strict_system_feasible"]


def test_sets_are_checked_when_built_not_when_used():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    guards = [
        name
        for name, source in sources.items()
        if "require_valid" in {*defined_names(source), *loaded_names(source)}
    ]
    assert guards == []
    record = next(
        node
        for node in ast.parse(sources["polyhedra.py"]).body
        if isinstance(node, ast.ClassDef) and node.name == "SetRecord"
    )
    slots = next(
        ast.literal_eval(node.value)
        for node in record.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__slots__"
    )
    assert "member" in slots and "validation" not in slots
    builders = [
        name
        for name, source in sources.items()
        if name != "polyhedra.py" and "PartiallyOpenPolyhedron" in called_names(source)
    ]
    assert builders == []


def test_cli_import_leaves_selftest_and_corpus_unloaded():
    code = (
        "import sys, phk.cli; "
        "print([m for m in ('phk.selftest', 'phk.corpus', 'phk.fme') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert got.stdout.strip() == "[]"


def test_run_selftest_is_served_on_first_use():
    import phk
    from phk.selftest import run_selftest

    assert phk.run_selftest is run_selftest
    assert phk.selftest.run_selftest is run_selftest
    assert phk.corpus.random_polytopes
    assert "run_selftest" in phk.__all__
    from phk.fme import fm_feasible, fm_maximize

    assert phk.fm_feasible is fm_feasible and phk.fm_maximize is fm_maximize
    assert {"fm_feasible", "fm_maximize"} <= set(phk.__all__)
    with pytest.raises(AttributeError):
        phk.no_such_name


# The classes in ``src/phk`` still built by ``@dataclass``, each with why it is
# not a ``NamedTuple``.  Each dataclass ``exec``s its generated methods at
# import, several times a NamedTuple's cost.
KEPT_DATACLASSES = {
    "PartiallyOpenPolyhedron": "its ``_record`` takes no part in ==, hash or repr, which a tuple field cannot do",
    "PortabilityReport": "the benchmark's tests build wrong answers from it with ``dataclasses.replace``",
    "SumMembership": "the benchmark's tests build wrong answers from it with ``dataclasses.replace``",
}


def dataclass_names(source: str) -> list[str]:
    """Classes decorated with ``dataclass`` or ``dataclass(...)``."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(d).split("(")[0].endswith("dataclass") for d in node.decorator_list)
    ]


def test_the_scan_sees_dataclasses():
    src = "@dataclass\nclass A: pass\n@dataclasses.dataclass(frozen=True)\nclass B: pass\n" \
          "class C(NamedTuple): pass\n@other\nclass D: pass\n"
    assert dataclass_names(src) == ["A", "B"]


def test_only_the_kept_classes_are_dataclasses():
    found = {name for path in MODULES for name in dataclass_names(path.read_text(encoding="utf-8"))}
    assert found == set(KEPT_DATACLASSES)
