"""Dense exact linear algebra on rational vectors.

Vectors are tuples of Fraction; matrices are sequences of such tuples.  The
routines here are deliberately small and deterministic: reduced row echelon
form with leftmost-pivot selection, nullspace and rowspace bases, and
primitive integer scaling used to canonicalize rays.  Every
denominator in the package is cleared by ``scaled`` (integers over one common
denominator), except in ``dot``, whose own loop is about twice as fast.

The echelon form and the two bases run on integer rows from start to end,
fraction-free as in Bareiss 1968: ``echelon`` eliminates by ``eliminate``,
and ``spaces`` returns primitive integer tuples.  ``nullspace_basis`` is
the nullspace in ``Fraction``s, made by ``unscaled``.
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


def exact_entries(xs: Iterable[RationalLike], dim: int) -> list[int | Fraction]:
    """``vec(xs, dim)``'s entries with each ``int`` kept as it is: the same
    checks and messages, but no ``Fraction`` per integer entry, for a caller
    that scales the vector to integers at once (``scaled`` reads both).  A
    non-iterable raises ``TypeError`` for the caller to name."""
    out = [x if type(x) is int else rat(x) for x in _entries(xs)]
    if len(out) != dim:
        raise InputError(f"vector has dimension {len(out)}, expected {dim}")
    return out


def items(xs: Iterable, name: str) -> Iterable:
    """The items of the argument ``name``, a sequence of vectors or rows:
    ``InputError`` naming it for a non-iterable, text or a mapping."""
    try:
        return _entries(xs)
    except TypeError:
        raise InputError(f"{name} must be a sequence, not {type(xs).__name__}") from None


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


def unscaled(ints: Sequence[int], den: int = 1) -> Vec:
    """The vector ``ints / den`` as ``Fraction``s: ``scaled`` undone."""
    return tuple([Fraction(a, den) for a in ints])


def lowest(ints: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """The vector ``ints / den``, ``den`` positive, in lowest terms: its
    integers and denominator divided by their gcd."""
    g = gcd(den, *ints)
    return (tuple(ints), den) if g == 1 else (tuple([a // g for a in ints]), den // g)


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


def echelon(mat: Sequence[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of integer rows, fraction-free as in Bareiss
    1968: Gauss-Jordan by ``eliminate``, leftmost pivot first.  Returns the
    nonzero rows and their pivot columns.  Each row is zero in every other
    row's pivot column, and its own pivot entry is nonzero, of either sign;
    divided by it, the rows are the ``Fraction`` reduced form."""
    mat = list(mat)
    if not mat:
        return [], []
    pivots: list[int] = []
    r = 0
    for c in range(len(mat[0])):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        mat = eliminate(mat, r, c)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def spaces(mat: Sequence[list[int]], n: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Bases of the nullspace {x in Q^n : mat @ x = 0} and of the row space
    of integer rows, both read off one ``echelon``: deterministic, each
    vector ``primitive_signed``.  The nullspace vector of a free column
    ``f`` is 1 there, 0 in the other free columns, and ``-row[f] /
    row[pivot]`` in each pivot column, scaled to integers by the least
    common multiple of the pivot entries it divides by."""
    reduced, pivots = echelon(mat)
    pivot_set = set(pivots)
    null = []
    for f in range(n):
        if f in pivot_set:
            continue
        used = [(row, c) for row, c in zip(reduced, pivots) if row[f]]
        t = lcm(*[row[c] for row, c in used])
        v = [0] * n
        v[f] = t
        for row, c in used:
            v[c] = -row[f] * (t // row[c])
        null.append(primitive_signed(v))
    return null, [primitive_signed(row) for row in reduced]


def nullspace_basis(rows: Sequence[Sequence[Fraction]], n: int) -> list[Vec]:
    """Basis of {x in Q^n : rows @ x = 0} in ``Fraction``s: ``spaces``' first part."""
    return [unscaled(v) for v in spaces(integer_rows(rows), n)[0]]


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


def primitive_signed(ints: Sequence[int]) -> tuple[int, ...]:
    """Integers divided by their gcd, and negated unless the first nonzero
    entry is positive: one vector per line through 0.  Used for lineality
    directions and nullspace bases, where a vector and its negation describe
    the same line.  A zero vector stays zeros."""
    ints = _divided(list(ints))
    first = next((x for x in ints if x), 0)
    return tuple(ints) if first >= 0 else tuple([-x for x in ints])
