"""Fourier-Motzkin elimination, strict-inequality aware.

This is the slow, transparent route used to cross-check the simplex kernel:
eliminating a variable replaces the system by all sign-cancelling pairings,
a combined row being strict when either parent is.  After all variables are
gone only constant rows remain, and feasibility reads off directly.

A one-variable objective trick turns the same machinery into an optimizer:
to maximize ``c . x`` adjoin a fresh variable ``z`` with ``z - c . x <= 0``
and eliminate all of ``x``; the surviving rows bound ``z`` from above only,
so the maximum is the least upper bound (or the problem is unbounded or
infeasible, visible from the constant rows).

Each elimination can square the number of rows, so a step that would build
more than ``ELIMINATION_ROW_CAP`` rows is refused before it starts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InputError, ScaleLimitError
from .linalg import Vec
from .lp import StrictRow

_FmRow = tuple[tuple[Fraction, ...], Fraction, bool]

# Most rows one elimination step may build.  A row costs about 20 us in 3-D
# on a 2-vCPU VM, so a step stays within a few seconds.  The largest step the
# test suite and ``selftest --seed 0 --samples 5`` take builds 1,518 rows; a
# dense 3-column equality LP in inequality form reaches about 12,000 on its
# third step, and a 4-column one over 17 million on its fourth.
ELIMINATION_ROW_CAP = 100_000


def eliminate_variable(rows: Sequence[_FmRow], k: int) -> list[_FmRow]:
    """Project the system onto the coordinates other than ``k``."""
    pos: list[_FmRow] = []
    neg: list[_FmRow] = []
    out: list[_FmRow] = []
    for normal, offset, strict in rows:
        c = normal[k]
        if c > 0:
            pos.append((normal, offset, strict))
        elif c < 0:
            neg.append((normal, offset, strict))
        else:
            out.append((_drop(normal, k), offset, strict))
    size = len(pos) * len(neg) + len(out)
    if size > ELIMINATION_ROW_CAP:
        raise ScaleLimitError(
            f"eliminating a variable would build {size} rows, "
            f"above the cap of {ELIMINATION_ROW_CAP}"
        )
    for pn, po, ps in pos:
        for nn, no, ns in neg:
            a, b = pn[k], -nn[k]
            normal = tuple(b * x + a * y for x, y in zip(_drop(pn, k), _drop(nn, k)))
            out.append((normal, b * po + a * no, ps or ns))
    return out


def _drop(v: Sequence[Fraction], k: int) -> tuple[Fraction, ...]:
    return tuple(x for i, x in enumerate(v) if i != k)


def fm_feasible(rows: Sequence[StrictRow]) -> bool:
    """Feasibility of a mixed strict/weak system by full elimination."""
    if not rows:
        raise InputError("empty system: dimension is undetermined")
    n = len(rows[0][0])
    system: list[_FmRow] = [(tuple(normal), offset, strict) for normal, offset, strict in rows]
    for _ in range(n):
        system = eliminate_variable(system, 0)
    for _, offset, strict in system:
        if offset < 0 or (strict and offset == 0):
            return False
    return True


def fm_maximize(objective: Vec, rows: Sequence[tuple[Vec, Fraction]]) -> tuple[str, Fraction | None]:
    """Maximize over weak rows.  Returns (status, value) with exact value.

    Status is one of "optimal", "unbounded", "infeasible"; the value is only
    present for "optimal".
    """
    n = len(objective)
    if n < 1:
        raise InputError("dimension must be at least 1")
    # Variables ordered (x_1 .. x_n, z); eliminate the x block.
    system: list[_FmRow] = [
        (tuple(normal) + (Fraction(0),), offset, False) for normal, offset in rows
    ]
    system.append((tuple(-c for c in objective) + (Fraction(1),), Fraction(0), False))
    for _ in range(n):
        system = eliminate_variable(system, 0)
    upper: list[Fraction] = []
    feasible = True
    for (zc,), offset, _ in system:
        if zc > 0:
            upper.append(offset / zc)
        elif zc < 0:
            # z was adjoined with a single upper-bound row, so eliminations
            # can never manufacture a lower bound on it.
            raise AssertionError("unexpected lower bound on the objective variable")
        elif offset < 0:
            feasible = False
    if not feasible:
        return ("infeasible", None)
    if not upper:
        return ("unbounded", None)
    return ("optimal", min(upper))
