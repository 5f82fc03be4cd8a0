from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmps.errors import MathDomainError, ParseError, RangeError
from quadmps.polynomials import (
    ONE,
    X,
    ZERO,
    Poly,
    format_poly,
    poly_from_strings,
    poly_to_strings,
)
from quadmps.sequences import derivative_sequence

F = Fraction

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6)
polys = st.lists(coefficients, max_size=6).map(Poly)


def test_trailing_zeros_are_stripped():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert Poly((0, 0)) == ZERO


def test_degree_conventions():
    assert ZERO.degree == -1
    assert ZERO.is_zero
    assert ONE.degree == 0
    assert X.degree == 1
    assert Poly((0, 0, F(1, 2))).degree == 2


def test_leading_and_monic():
    assert Poly((3, 0, 2)).leading == F(2)
    assert X.is_monic
    assert not Poly((0, 2)).is_monic
    with pytest.raises(MathDomainError):
        _ = ZERO.leading


def test_coefficient_out_of_range_is_zero():
    f = Poly((1, 2))
    assert f.coefficient(0) == 1
    assert f.coefficient(5) == 0


def test_arithmetic_examples():
    f = Poly((-3, 0, 1))
    assert f + Poly.constant(3) == Poly((0, 0, 1))
    assert f - X == Poly((-3, -1, 1))
    assert 2 * X == X * 2 == Poly((0, 2))
    assert F(1, 2) * f == f * F(1, 2) == Poly((F(-3, 2), 0, F(1, 2)))
    assert -f == Poly((3, 0, -1))


def test_product_of_two_polynomials_is_a_type_error():
    # multiplication is by a scalar only; the package forms no product
    # of polynomials, and the tests build one with conftest.times
    with pytest.raises(TypeError):
        X * X
    with pytest.raises(TypeError):
        ONE * Poly((1, 2))


def test_derivative_examples():
    # the normalized derivatives of 1, x, x^2, x^3 are 1, x, x^2
    powers = [Poly([0] * k + [1]) for k in range(4)]
    assert derivative_sequence(powers) == powers[:3]
    shifted = [ONE, Poly((-1, 1)), Poly((F(1, 2), 2, 1))]
    assert derivative_sequence(shifted) == [ONE, Poly((1, 1))]


def test_format_poly_conventions():
    assert format_poly(ZERO) == "0"
    assert format_poly(ONE) == "1"
    assert format_poly(Poly((F(-1, 2), 0, 1))) == "x^2 - 1/2"
    assert format_poly(X - Poly.constant(3)) == "x - 3"


def reference_format(f: Poly) -> str:
    """format_poly as it read each coefficient: one Fraction per power."""
    parts = []
    for k in range(f.degree, -1, -1):
        c = f.coefficient(k)
        if c == 0:
            continue
        mag = abs(c)
        text = str(mag.numerator) if mag.denominator == 1 else str(mag)
        xk = "x" if k == 1 else f"x^{k}"
        body = text if k == 0 else (xk if mag == 1 else f"{text} {xk}")
        if parts:
            parts.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return " ".join(parts) or "0"


@pytest.mark.parametrize(
    "coeffs",
    [
        (),
        (1,),
        (-1,),
        (0, 1),
        (0, -1),
        (1, -1, 1),
        (-1, 1, -1, 0, -1),
        (3, 0, -7, 12),
        (-5, -4, 0, 0, 9),
        (F(-1, 2), 0, 1),
        (F(1, 3), F(-2, 3), F(4, 3)),
        (F(7, 2), -1, F(5, 6), 1),
        (0, 0, F(-9, 4)),
        (10**40, -(10**40) + 1, F(1, 10**30)),
    ],
)
def test_format_poly_matches_a_fraction_reference(coeffs):
    f = Poly(coeffs)
    assert format_poly(f) == reference_format(f)


@given(st.lists(st.fractions(max_denominator=12) | st.integers(-3, 3), max_size=7))
@settings(max_examples=80)
def test_format_poly_matches_the_reference_on_any_poly(coeffs):
    f = Poly(coeffs)
    assert format_poly(f) == reference_format(f)


def test_format_poly_past_the_digit_limit_is_a_range_error():
    f = Poly((1, 10**5000, 1))
    with pytest.raises(RangeError):
        format_poly(f)


def test_poly_strings_reject_malformed():
    with pytest.raises(ParseError):
        poly_from_strings(["1", "3/0"])
    with pytest.raises(ParseError):
        poly_from_strings("1")


@pytest.mark.parametrize(
    "items",
    [["2/2"], [1], ["-0"], ["1", "0"], ["01"], [" 1"]],
    ids=["unreduced", "number", "negative-zero", "trailing-zero", "leading-zero", "space"],
)
def test_poly_strings_load_only_what_they_write(items):
    with pytest.raises(ParseError):
        poly_from_strings(items)


@given(polys)
@settings(max_examples=60)
def test_poly_strings_round_trip(f):
    assert poly_from_strings(poly_to_strings(f)) == f
