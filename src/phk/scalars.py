"""Exact scalar substrate: rationals and extended values.

The rational scalar is the stdlib ``fractions.Fraction``: always stored in
lowest terms with a positive denominator, so structural equality is value
equality and hashing is safe.  ``ExtValue`` adjoins the two infinities and
fixes the arithmetic conventions used throughout this package:

    (+inf) + (-inf) = +inf
    sup over an empty collection = -inf

The first convention makes indicator-plus-support sums absorb correctly, the
second makes suprema over empty graphs come out right without special cases
at the call sites.  An ``ExtValue`` is a ``NamedTuple``, ordered as the
tuple ``(kind, num)``; compare it with ``ExtValue``s only, and coerce a bare
rational with :func:`fin` first.  It refuses ``*``, so no product of an
extended value is ever a tuple repetition.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import log10
from typing import Iterable, NamedTuple, Union

from .errors import InputError, ScaleLimitError

RationalLike = Union[int, str, Fraction]

_NEG = -1
_FIN = 0
_POS = 1


# A decimal literal with an exponent, as ``Fraction`` reads it: its mantissa,
# then its exponent.  ``Fraction`` multiplies by 10**|exponent| without a digit
# check of its own.
_SCIENTIFIC = re.compile(r"[-+]?([\d_.]*)[eE][-+]?(\d[\d_]*)")


def rat(x: RationalLike) -> Fraction:
    """Coerce an int, ``"p/q"`` string, or Fraction to an exact Fraction.
    A literal with an integer past Python's int-from-str digit limit:
    ``ScaleLimitError`` with its digit count, the literal not echoed.  With
    an exponent, the count is the mantissa's digits plus the exponent's
    size, checked before ``Fraction`` builds anything, and a count too long
    to print is named by the exponent's length.  Any other unreadable
    literal is echoed, past 40 characters only its start and its length.
    Underscores, surrounding whitespace and non-ASCII characters are
    unreadable here, although ``Fraction`` reads ``"1_000"``, ``" 1 "`` and
    ``"\u0661"`` (an Arabic-Indic one) as 1000, 1 and 1."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        scientific = _SCIENTIFIC.fullmatch(x.strip())
        if scientific:
            mantissa, exponent = (g.replace("_", "") for g in scientific.groups())
            # An exponent too long to read is caught by its own digit run below.
            if len(exponent) <= sys.get_int_max_str_digits():
                _check_digits(len(mantissa.replace(".", "")) + int(exponent), exponent)
        if _plain(x):
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError):
                pass
        _check_digits(
            max((len(run) for run in re.findall(r"\d+", x.replace("_", ""))), default=0)
        )
        raise InputError(f"not a rational literal: {_excerpt(x)}") from None
    raise InputError(f"cannot interpret {type(x).__name__} as a rational")


def _plain(text: str) -> bool:
    """ASCII, with no underscore and no surrounding whitespace: the only
    forms of a literal that ``Fraction`` and ``int`` may read here."""
    return text.isascii() and "_" not in text and text == text.strip()


def _excerpt(text: str, show=repr) -> str:
    """``show(text)``, or past 40 characters only its start and its length."""
    return show(text) if len(text) <= 40 else f"{show(text[:40])}... ({len(text)} characters)"


def _check_digits(digits: int, exponent: str = "") -> None:
    """Refuse a literal whose integers would pass the int-from-str digit limit.
    A count past 40 digits comes from an exponent, and would all but
    echo it: the message names the exponent's length instead."""
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        count = (
            f"{digits} digits" if digits < 10**40 else f"a {len(exponent.lstrip('0'))}-digit exponent"
        )
        raise ScaleLimitError(
            f"a literal with {count} exceeds the limit of {limit} digits for reading an integer"
        ) from None


def rat_str(q: Fraction) -> str:
    """Canonical string form: ``"p/q"``, or ``"p"`` when the denominator is 1.
    Past Python's int-to-str digit limit: ``ScaleLimitError`` with the count."""
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        digits = max(_digits(q.numerator), _digits(q.denominator))
        raise ScaleLimitError(
            f"a value with {digits} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits for writing an integer"
        ) from None


def _digits(n: int) -> int:
    """Decimal digits of ``abs(n)``: a float estimate, corrected at powers of ten."""
    n = abs(n) or 1
    d = int(log10(n)) + 1
    return d - (10 ** (d - 1) > n) + (10**d <= n)


class ExtValue(NamedTuple):
    """A rational extended with -inf and +inf.

    Instances are immutable; build them through :func:`fin`, or use the module
    constants ``NEG_INF`` / ``POS_INF``.  The order is the tuple order of
    ``(kind, num)``: the infinities keep ``num=None``, and their ``kind``
    differs from every finite value's, so the comparison never reaches
    ``None``.  Compare ``ExtValue``s only.  Addition, which also takes a
    bare rational, keeps (+inf) + (-inf) = +inf.  ``*`` is refused: the
    only product is :meth:`scale` by a positive rational, and a tuple's
    repetition would be no product at all.
    """

    kind: int
    num: Fraction | None = None

    # -- predicates --------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind == _FIN

    @property
    def finite_value(self) -> Fraction:
        if self.kind != _FIN or self.num is None:
            raise InputError(f"extended value {self} is not finite")
        return self.num

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ExtValue | RationalLike") -> "ExtValue":
        o = _coerce(other)
        # +inf dominates: this is the (+inf) + (-inf) = +inf convention.
        if self.kind == _POS or o.kind == _POS:
            return POS_INF
        if self.kind == _NEG or o.kind == _NEG:
            return NEG_INF
        assert self.num is not None and o.num is not None
        return ExtValue(_FIN, self.num + o.num)

    __radd__ = __add__

    def __mul__(self, other: object):
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, t: RationalLike) -> "ExtValue":
        """Multiply by a strictly positive rational (positive homogeneity)."""
        f = rat(t)
        if f <= 0:
            raise InputError("scale factor must be strictly positive")
        if self.kind != _FIN:
            return self
        assert self.num is not None
        return ExtValue(_FIN, self.num * f)

    def __str__(self) -> str:
        if self.kind == _POS:
            return "+inf"
        if self.kind == _NEG:
            return "-inf"
        assert self.num is not None
        return rat_str(self.num)


NEG_INF = ExtValue(_NEG)
POS_INF = ExtValue(_POS)


def fin(q: RationalLike) -> ExtValue:
    return ExtValue(_FIN, rat(q))


def _coerce(x: "ExtValue | RationalLike") -> ExtValue:
    return x if isinstance(x, ExtValue) else fin(x)


def sup_ext(values: Iterable[ExtValue | RationalLike]) -> ExtValue:
    """Supremum with sup(emptyset) = -inf."""
    best = NEG_INF
    for v in values:
        c = _coerce(v)
        if c > best:
            best = c
    return best
