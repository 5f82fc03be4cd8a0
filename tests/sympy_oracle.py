"""Conversions between Poly and sympy's dense polynomials over QQ.

Shared by the test-only sympy oracles. sympy is needed by the tests
alone: importing this module skips the importing test module when it is
missing.
"""

from fractions import Fraction

import pytest

from quadmps.polynomials import Poly

sympy = pytest.importorskip("sympy")

x = sympy.Symbol("x")
QQ = sympy.QQ


def to_sympy_scalar(c: Fraction | int) -> "sympy.Rational":
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def from_sympy_scalar(c) -> Fraction:
    c = sympy.Rational(c)
    return Fraction(int(c.p), int(c.q))


def to_sympy(f: Poly) -> "sympy.Poly":
    coeffs = [to_sympy_scalar(c) for c in reversed(f.coeffs)]
    return sympy.Poly(coeffs or [0], x, domain=QQ)


def from_sympy(p: "sympy.Poly") -> Poly:
    return Poly(from_sympy_scalar(c) for c in reversed(p.all_coeffs()))


def triangular_coordinates(f: Poly, basis: list[Poly]) -> list[Fraction]:
    """Coordinates of f in a monic triangular basis, by sympy's QQ
    triangular solve: column k of the matrix holds basis[k]."""
    size = len(basis)
    matrix = sympy.Matrix(
        size, size, lambda i, k: to_sympy_scalar(basis[k].coefficient(i))
    )
    rhs = sympy.Matrix([to_sympy_scalar(f.coefficient(i)) for i in range(size)])
    return [from_sympy_scalar(c) for c in matrix.upper_triangular_solve(rhs)]
