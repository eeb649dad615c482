"""Correctness checks for the benchmark's operations.

Each check returns a list of problems (empty when the answer is right).  The
expected answers come from the construction of the inputs, from properties
the method must have, or from an LP solved apart from phk (sympy's exact
simplex); never from a saved copy of phk's output.
"""
from __future__ import annotations

import json
from fractions import Fraction

from gen import dot


def check_report(report, rows) -> list[str]:
    """A portability report on a polytope built from ``rows``.

    A polytope's closed rows each meet it in a facet's relative interior and
    a strict row never meets it, so the hull is exactly the closed rows, and
    the set is portable exactly when no row is strict.
    """
    problems = []
    conditions = (
        report.maximal_on_samples,
        report.coupling_identity_on_samples,
        report.hull_adds_nothing,
        report.hull_equals_carrier,
    )
    if len(set(conditions)) != 1:
        problems.append(f"the four conditions disagree: {conditions}")
    portable = not any(strict for _, _, strict in rows)
    if report.hull_adds_nothing != portable:
        problems.append(f"verdict {report.hull_adds_nothing}, construction says {portable}")
    closed = tuple((n, o) for n, o, strict in sorted(rows) if not strict)
    if tuple(report.hull.rows) != closed:
        problems.append(f"hull rows {report.hull.rows} are not the closed rows {closed}")
    return problems


def lp_max(objective, rows) -> Fraction:
    """max objective . x over rows normal . x <= offset, by sympy's simplex.

    Variables are split into nonnegative parts; the rows describe a nonempty
    bounded set, so the maximum exists.
    """
    from sympy.solvers.simplex import linprog

    c = [-Fraction(q) for q in objective]
    a = [[Fraction(q) for q in n] + [-Fraction(q) for q in n] for n, _ in rows]
    b = [Fraction(o) for _, o in rows]
    value, _ = linprog(c + [-q for q in c], a, b)
    return -Fraction(int(value.p), int(value.q))


def check_support(value, objective, carrier_rows) -> list[str]:
    """A support value against the LP over the carrier (the set's closure)."""
    if not value.is_finite:
        return [f"support value {value} at {objective} on a polytope is not finite"]
    expected = lp_max(objective, carrier_rows)
    if value.finite_value != expected:
        return [f"support value {value.finite_value} at {objective}, independent LP gives {expected}"]
    return []


def check_sum(query: dict, membership, enumerated) -> list[str]:
    """One sum-check: joint LP value, membership routes and enumeration."""
    problems = []
    coupling = dot(query["x"], query["xstar"])
    value = membership.value
    if value != enumerated:
        problems.append(f"joint LP value {value} differs from enumeration {enumerated}")
    if value.is_finite and value.finite_value < coupling:
        problems.append(f"value {value} below the coupling {coupling}")
    if membership.lhs != membership.rhs:
        problems.append(f"membership routes disagree: {membership.lhs} vs {membership.rhs}")
    if query["in_graph"]:
        if not (membership.lhs and membership.rhs):
            problems.append("a pair of the sum's graph was not recognised as a member")
        if not (value.is_finite and value.finite_value == coupling):
            problems.append(f"value {value} at a graph pair, expected the coupling {coupling}")
    return problems


def check_cli(returncode: int, stdout: str, verb: str, expectations) -> list[str]:
    """A CLI call: exit 0, one JSON document, checks run and none falsified,
    and the hand-worked answers at their paths."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not one JSON document: {exc}"]
    problems = []
    if doc.get("verb") != verb:
        problems.append(f"verb {doc.get('verb')!r}, expected {verb!r}")
    if not doc.get("paperChecks"):
        problems.append("no paperChecks")
    if "falsified" in doc.get("witnesses", {}):
        problems.append(f"falsified: {doc['witnesses']['falsified']}")
    for path, expected in expectations:
        got = doc
        for key in path:
            got = got.get(key) if isinstance(got, dict) else None
        if got != expected:
            problems.append(f"{'.'.join(path)} is {got!r}, expected {expected!r}")
    return problems
