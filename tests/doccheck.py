"""Re-check a phk CLI document from its own bytes.

The checker uses only the standard library and ``fractions``, and imports
nothing from ``phk``, so a fault in phk cannot vouch for itself here.  It
reads rationals in the one form phk writes them: ``"p"`` or ``"p/q"`` in
lowest terms with q > 1, and no sign on zero.

``check_hull(doc)`` covers the ``hull`` verb.  Each printed support point
must satisfy every input row, strict rows strictly, and lie on its own
row's hyperplane, which shows that the row supports.  The rows with a
point must be exactly ``supportingRows``, and the result's rows must be
the input rows at those indices.
"""
from __future__ import annotations

import re
from fractions import Fraction

_LITERAL = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")


def rational(text) -> Fraction:
    """A rational literal as phk writes it; ``ValueError`` for any other."""
    if not isinstance(text, str) or not _LITERAL.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    q = Fraction(text)
    if str(q) != text:
        raise ValueError(f"not in lowest terms: {text!r}")
    return q


def _rows(closed: dict) -> list[tuple[list[Fraction], Fraction, bool]]:
    """(normal, offset, strict) per row of a set or closed polyhedron."""
    if "space" in closed:
        return []
    return [
        ([rational(q) for q in row["normal"]], rational(row["offset"]), row.get("strict") is True)
        for row in closed["rows"]
    ]


def _dot(a, b) -> Fraction:
    return sum((p * q for p, q in zip(a, b, strict=True)), Fraction(0))


def check_hull(doc: dict) -> list[str]:
    """The problems found in one ``hull`` document, empty when it checks out."""
    given, result, witnesses = doc["inputs"]["set"], doc["result"], doc["witnesses"]
    if given.get("empty"):
        ok = result == {"space": given["dim"]} and witnesses == {}
        return [] if ok else ["the empty set's hull is not the whole space"]
    rows = _rows(given)
    kept = witnesses["supportingRows"]
    problems = []
    if kept != sorted(set(kept)) or not all(0 <= i < len(rows) for i in kept):
        return [f"supportingRows {kept} are not input rows in order"]
    points = witnesses["supportPoints"]
    if [entry["row"] for entry in points] != kept:
        problems.append("supportPoints do not give one point per supporting row")
    for entry in points:
        i, x = entry["row"], [rational(q) for q in entry["point"]]
        for j, (normal, offset, strict) in enumerate(rows):
            value = _dot(normal, x)
            if value > offset or (strict and value == offset):
                problems.append(f"the point of row {i} violates row {j}")
        if i in kept and _dot(rows[i][0], x) != rows[i][1]:
            problems.append(f"the point of row {i} is off its hyperplane")
    if [row[:2] for row in _rows(result)] != [rows[i][:2] for i in kept]:
        problems.append("the result's rows are not the input rows at supportingRows")
    return problems
