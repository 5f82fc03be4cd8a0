from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmps.errors import MathDomainError, ParseError
from quadmps.polynomials import (
    ONE,
    X,
    ZERO,
    Poly,
    format_poly,
    poly_from_strings,
    poly_to_strings,
)

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
    f = X * X - Poly.constant(3)
    assert f + Poly.constant(3) == X * X
    assert (X - ONE) * (X + ONE) == X * X - ONE
    assert 2 * X == X * 2 == Poly((0, 2))
    assert -f == Poly((3, 0, -1))


def test_evaluation():
    f = X * X - Poly.constant(3)
    assert f(F(2)) == 1
    assert f(F(1, 2)) == F(-11, 4)
    assert ZERO(F(5)) == 0


def test_compose_example():
    outer = X * X + ONE
    inner = X - ONE
    assert outer.compose(inner) == X * X - 2 * X + 2 * ONE


def test_derivative_examples():
    assert (X * X * X).derivative() == Poly((0, 0, 3))
    assert ONE.derivative() == ZERO
    assert ZERO.derivative() == ZERO


def test_format_poly_conventions():
    assert format_poly(ZERO) == "0"
    assert format_poly(ONE) == "1"
    assert format_poly(X * X - Poly.constant(F(1, 2))) == "x^2 - 1/2"
    assert format_poly(X - Poly.constant(3)) == "x - 3"


def test_poly_strings_reject_malformed():
    with pytest.raises(ParseError):
        poly_from_strings(["1", "3/0"])
    with pytest.raises(ParseError):
        poly_from_strings("1")


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f + ZERO == f
    assert f * ONE == f


@given(polys, polys)
@settings(max_examples=40)
def test_compose_degrees_multiply(f, g):
    if f.degree >= 1 and g.degree >= 1:
        assert f.compose(g).degree == f.degree * g.degree


@given(polys, polys, st.fractions(min_value=-5, max_value=5, max_denominator=4))
@settings(max_examples=40)
def test_evaluation_is_a_homomorphism(f, g, point):
    assert (f + g)(point) == f(point) + g(point)
    assert (f * g)(point) == f(point) * g(point)


@given(polys, polys)
@settings(max_examples=40)
def test_derivative_product_rule(f, g):
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


@given(polys)
@settings(max_examples=60)
def test_poly_strings_round_trip(f):
    assert poly_from_strings(poly_to_strings(f)) == f
