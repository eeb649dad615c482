from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from phk.errors import InputError, ScaleLimitError
from phk.scalars import NEG_INF, POS_INF, ExtValue, fin, rat, rat_str, sup_ext


rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


def test_rat_parses_canonical_strings():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7/2") == Fraction(-7, 2)
    assert rat("5") == Fraction(5)
    assert rat(Fraction(2, 6)) == Fraction(1, 3)


def test_rat_rejects_garbage():
    with pytest.raises(InputError):
        rat("three halves")
    with pytest.raises(InputError):
        rat("1/0")
    with pytest.raises(InputError):
        rat(1.5)  # type: ignore[arg-type]


def test_rat_refuses_a_literal_past_the_digit_limit_by_its_size():
    limit = sys.get_int_max_str_digits()
    for literal in ("1" * 5000, "-3/" + "7" * 5000, "1" * 5000 + ".5"):
        with pytest.raises(ScaleLimitError) as got:
            rat(literal)
        message = str(got.value)
        assert message == (
            f"a literal with 5000 digits exceeds the limit of {limit} digits for reading an integer"
        )
        assert "1" * 50 not in message and "7" * 50 not in message
    # At the limit the literal still reads, and garbage keeps its message.
    assert rat("9" * limit) == 10**limit - 1
    with pytest.raises(InputError, match="not a rational literal: '1/2/3'"):
        rat("1/2/3")


def test_rat_counts_an_exponent_before_building_the_literal():
    # Fraction reads "1e1000000" as a 1000001-digit integer, with no digit
    # check of its own.
    limit = sys.get_int_max_str_digits()
    cases = (("1e1000000", 1000001), (" -2.5E-9999", 10001), ("1_0e1_0000", 10002))
    for literal, digits in cases:
        with pytest.raises(ScaleLimitError) as got:
            rat(literal)
        assert str(got.value) == (
            f"a literal with {digits} digits exceeds the limit of {limit} digits for reading an integer"
        )
    # At the limit the literal still reads.
    assert rat(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert rat(f"1.5E-{limit - 2}") == Fraction(15, 10 ** (limit - 1))
    with pytest.raises(InputError, match="not a rational literal: '1e_'"):
        rat("1e_")


def test_rat_names_a_long_exponent_by_its_length():
    # A count past 40 digits would all but repeat the exponent.  At
    # the limit's length the count itself passes the limit for writing.
    limit = sys.get_int_max_str_digits()
    tail = f" exceeds the limit of {limit} digits for reading an integer"
    cases = (
        ("1e" + "9" * 38, f"a literal with {10**38} digits"),
        ("1e" + "9" * 39, f"a literal with {10**39} digits"),
        ("1e" + "9" * 40, "a literal with a 40-digit exponent"),
        ("-3.25e-" + "0" * 9 + "8" * 100, "a literal with a 100-digit exponent"),
        ("1e" + "9" * limit, f"a literal with a {limit}-digit exponent"),
    )
    for literal, head in cases:
        with pytest.raises(ScaleLimitError) as got:
            rat(literal)
        assert str(got.value) == head + tail
    assert rat("1e" + "0" * (limit - 1) + "1") == 10


def test_rat_quotes_only_the_start_of_a_long_unreadable_literal():
    assert str(pytest.raises(InputError, rat, "x" * 40).value) == f"not a rational literal: {'x' * 40!r}"
    message = str(pytest.raises(InputError, rat, "y" * 41).value)
    assert message == f"not a rational literal: {'y' * 40!r}... (41 characters)"


def test_rat_refuses_literals_that_only_fraction_reads():
    # Fraction reads these as 1000, 1, 1 and 1/2.
    for literal in ("1_000", " 1 ", "\u0661", "1/\u0662", "\t1/2"):
        with pytest.raises(InputError) as got:
            rat(literal)
        assert str(got.value) == f"not a rational literal: {literal!r}"
    # A long one is still refused by its digit count first.
    with pytest.raises(ScaleLimitError):
        rat(" " + "1" * 5000)


@given(rationals)
def test_rat_str_round_trips(x):
    assert rat(rat_str(x)) == x


@given(rationals)
def test_fraction_canonical_form(x):
    # The rational scalar keeps a positive denominator and lowest terms,
    # so equal values are structurally equal.
    assert x.denominator > 0
    from math import gcd

    assert gcd(abs(x.numerator), x.denominator) == 1
    assert Fraction(2 * x.numerator, 2 * x.denominator) == x


def test_rat_str_omits_unit_denominator():
    assert rat_str(Fraction(4, 2)) == "2"
    assert rat_str(Fraction(-3, 9)) == "-1/3"


def test_infinity_sum_convention():
    # Opposite infinities resolve to +inf by convention.
    assert POS_INF + NEG_INF == POS_INF
    assert NEG_INF + POS_INF == POS_INF
    assert NEG_INF + NEG_INF == NEG_INF
    assert POS_INF + fin(5) == POS_INF
    assert NEG_INF + fin(5) == NEG_INF
    assert fin(2) + fin("1/2") == fin("5/2")


def test_empty_sup_convention():
    assert sup_ext([]) == NEG_INF
    assert sup_ext([fin(1), fin(3), fin(2)]) == fin(3)
    assert sup_ext([NEG_INF, fin(-2)]) == fin(-2)


def test_total_order():
    assert NEG_INF < fin(-(10**9)) < fin(0) < fin(10**9) < POS_INF
    assert fin(1) <= fin(1)
    assert not POS_INF < POS_INF
    # The tuple order compares ExtValues only.
    with pytest.raises(TypeError):
        _ = fin(1) < 2


@given(rationals)
def test_every_finite_value_lies_between_the_infinities(q):
    assert NEG_INF < fin(q) < POS_INF
    assert POS_INF + NEG_INF == POS_INF


def test_extvalues_refuse_multiplication():
    # An ExtValue is a tuple, and a tuple times an int would be its repetition.
    for product in (lambda: 2 * fin(3), lambda: fin(3) * 2, lambda: POS_INF * POS_INF):
        with pytest.raises(TypeError):
            product()


extvalues = st.one_of(st.just(NEG_INF), st.just(POS_INF), rationals.map(fin))


def _reference_key(v: ExtValue) -> tuple[int, Fraction]:
    return (v.kind, v.num if v.is_finite else Fraction(0))


@given(extvalues, extvalues)
def test_generated_order_matches_the_reference_key(a, b):
    ka, kb = _reference_key(a), _reference_key(b)
    assert (a < b) == (ka < kb)
    assert (a <= b) == (ka <= kb)
    assert (a > b) == (ka > kb)
    assert (a >= b) == (ka >= kb)
    assert (a == b) == (ka == kb)
    assert sup_ext([a, b]) == max(a, b) == sup_ext([b, a])


def test_scale_is_positively_homogeneous():
    assert POS_INF.scale("7/3") == POS_INF
    assert NEG_INF.scale(2) == NEG_INF
    assert fin("3/2").scale("2/3") == fin(1)
    with pytest.raises(InputError):
        fin(1).scale(0)
    with pytest.raises(InputError):
        POS_INF.scale(-1)


def test_finite_value_guard():
    assert fin("2/4").finite_value == Fraction(1, 2)
    with pytest.raises(InputError):
        _ = POS_INF.finite_value


def test_str_forms():
    assert str(fin("4/6")) == "2/3"
    assert str(POS_INF) == "+inf"
    assert str(NEG_INF) == "-inf"


@given(rationals, rationals)
def test_addition_matches_fraction_addition_when_finite(a, b):
    assert (fin(a) + fin(b)).finite_value == a + b


def test_structural_equality_of_extvalues():
    assert fin("1/2") == ExtValue(0, Fraction(2, 4))
    assert len({POS_INF, POS_INF, fin(3), fin(3)}) == 2
