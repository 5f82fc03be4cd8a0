"""Whole decompositions against a third oracle built on sympy.

Each W_m is split by sympy's own long division by omega, digit by digit,
and each remainder digit r is split at the anchor: r(x) = r(a) + r'(x - a).
The components built that way must equal both `decompose` (the
recurrence engine) and `decompose_oracle` (integer omega-adic division)
on the W_m of `reference_mps`, which shares no code with the engine.
Needs sympy, which only the tests use.
"""

import random
from fractions import Fraction

import pytest

from conftest import components_of_pairs, random_spec, rational, reference_mps
from quadmps.decomposition import (
    QdComponents,
    QuadMap,
    anchor_split,
    decompose,
    decompose_oracle,
)
from quadmps.polynomials import ONE, X, ZERO, Poly
from sympy_oracle import QQ, from_sympy_scalar, sympy, to_sympy, to_sympy_scalar, x

F = Fraction
KMAX = 6


def sympy_split(f: Poly, qmap: QuadMap) -> tuple[Poly, Poly]:
    """(u, v) with f = u(omega) + (x - a) v(omega), by sympy.div alone."""
    p, q = to_sympy_scalar(qmap.p), to_sympy_scalar(qmap.q)
    omega = sympy.Poly(x**2 + p * x + q, x, domain=QQ)
    anchor = to_sympy_scalar(qmap.a)
    rest = to_sympy(f)
    u: list[Fraction] = []
    v: list[Fraction] = []
    while not rest.is_zero:
        rest, digit = sympy.div(rest, omega, domain=QQ)
        u.append(from_sympy_scalar(digit.eval(anchor)))
        v.append(from_sympy_scalar(digit.coeff_monomial(x)))
    return Poly(u), Poly(v)


def sympy_components(polys: list[Poly], qmap: QuadMap) -> QdComponents:
    kmax = (len(polys) - 2) // 2
    splits = [sympy_split(polys[m], qmap) for m in range(2 * kmax + 2)]
    return components_of_pairs(qmap, splits)


def maps(rng: random.Random) -> list[QuadMap]:
    return [
        # omega integral, with an integral anchor and with a = an/7
        QuadMap(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)),
        QuadMap(rng.randint(-4, 4), rng.randint(-4, 4), F(rng.randint(-9, 9), 7)),
        QuadMap(rational(rng), rational(rng), rational(rng)),
        QuadMap(F(rng.randint(-9, 9), 10), F(rng.randint(1, 9), 6), F(-5, 3)),
    ]


@pytest.mark.parametrize("seed", range(8))
def test_decompositions_match_sympy(seed):
    # kinds 0-2 are banded rules of order 1-3, kind 3 a tabulated dense table
    rng = random.Random(4000 + seed)
    table = random_spec(rng, seed % 4, depth=2 * KMAX + 2).table(2 * KMAX)
    polys = reference_mps(table, 2 * KMAX + 1)
    for qmap in maps(rng):
        want = sympy_components(polys, qmap)
        assert decompose(table, qmap, KMAX) == want
        assert decompose_oracle(polys, qmap) == want


@pytest.mark.parametrize(
    "f",
    [
        ZERO,
        Poly.constant(F(-7, 4)),
        ONE,
        Poly([F(-2, 5), 3]),
        X,
        Poly([F(1, 6), 0, F(-5, 2)]),
        Poly([0, 0, 0, 0, 0, F(9, 8)]),
    ],
    ids=["zero", "constant", "one", "linear", "x", "quadratic", "x^5"],
)
@pytest.mark.parametrize("seed", range(3))
def test_anchor_split_of_short_polynomials_matches_sympy(f, seed):
    for qmap in maps(random.Random(5000 + seed)):
        assert anchor_split(f, qmap) == sympy_split(f, qmap)
