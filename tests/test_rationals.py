from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadmps.errors import ParseError, RangeError
from quadmps.polynomials import Poly, poly_to_strings
from quadmps.rationals import format_ratio, format_rational, parse_rational


def test_parse_plain_integers():
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("0") == Fraction(0)


def test_parse_fractions():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("6/4") == Fraction(3, 2)


def test_parse_accepts_ints_directly():
    assert parse_rational(5) == Fraction(5)


@pytest.mark.parametrize(
    "text",
    [
        "3/0", "3/-2", "a", "1.5", "", "1/2/3", "1 / 2", "+3", None, True,
        "\u0663/\u0664",  # Arabic-Indic digits three and four
        "1/\u0664",
        "\uff17",  # fullwidth seven
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_rational(text)


def test_format_omits_unit_denominator():
    assert format_rational(Fraction(7)) == "7"
    assert format_rational(Fraction(-7)) == "-7"
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-3, 4)) == "-3/4"


@given(st.fractions(min_value=-1000, max_value=1000, max_denominator=999))
def test_format_parse_round_trip(value):
    assert parse_rational(format_rational(value)) == value


def test_parse_rejects_numbers_past_the_digit_limit():
    # int() raises ValueError past sys.get_int_max_str_digits (4300 by default)
    with pytest.raises(ParseError):
        parse_rational("7" * 5000)
    with pytest.raises(ParseError):
        parse_rational("1/" + "3" * 5000)


@pytest.mark.parametrize(
    "num, den, text",
    [(0, 7, "0"), (6, 4, "3/2"), (-6, 4, "-3/2"), (5, 1, "5"), (-10, 5, "-2"), (3, 9, "1/3")],
)
def test_format_ratio_reduces(num, den, text):
    assert format_ratio(num, den) == text


def test_output_past_the_digit_limit_is_a_range_error():
    with pytest.raises(RangeError):
        poly_to_strings(Poly([10**5000]))
    with pytest.raises(RangeError):
        format_rational(Fraction(1, 10**5000))
    assert format_ratio(10**5000, 10**4999) == "10"
