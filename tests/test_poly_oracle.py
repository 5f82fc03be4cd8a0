"""Poly against an independent oracle: sympy's dense polynomials over QQ.

Every arithmetic operation of the integer-numerator core is compared,
on seeded random rational polynomials, with the same operation done by
sympy; every result must also be in canonical form. The product and
composition the test references build with (`conftest.times` and
`conftest.compose`) are checked against sympy here too. Needs sympy,
which only the tests use.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compose, times
from quadmps.errors import InvalidSequenceError, MathDomainError
from quadmps.polynomials import ONE, X, ZERO, Poly, basis_coordinates, lincomb
from quadmps.sequences import _derivatives
from sympy_oracle import (
    QQ,
    from_sympy,
    sympy,
    to_sympy,
    to_sympy_scalar,
    triangular_coordinates,
    x,
)

F = Fraction
CASES = 60


def assert_canonical(f: Poly) -> None:
    num, den = f._num, f._den
    assert isinstance(den, int) and den > 0
    assert all(isinstance(c, int) for c in num)
    assert not num or num[-1] != 0
    assert gcd(den, *num) == 1
    if not num:
        assert den == 1 and f.degree == -1


def random_rational(rng: random.Random, big: bool) -> Fraction:
    span = 10**30 if big else 40
    return Fraction(rng.randint(-span, span), rng.randint(1, 10**12 if big else 12))


def random_poly(rng: random.Random, max_degree: int = 7) -> Poly:
    big = rng.random() < 0.25
    coeffs = [
        Fraction(0) if rng.random() < 0.2 else random_rational(rng, big)
        for _ in range(rng.randint(0, max_degree + 1))
    ]
    return Poly(coeffs)


def random_scalar(rng: random.Random) -> Fraction | int:
    roll = rng.random()
    if roll < 0.15:
        return 0
    if roll < 0.4:
        return rng.randint(-9, 9)
    return random_rational(rng, big=rng.random() < 0.3)


def cases(seed: int, arity: int):
    rng = random.Random(seed)
    return [tuple(random_poly(rng) for _ in range(arity)) for _ in range(CASES)]


@pytest.mark.parametrize("f, g", cases(1, 2))
def test_ring_operations(f, g):
    sf, sg = to_sympy(f), to_sympy(g)
    for ours, theirs in (
        (f + g, sf + sg), (f - g, sf - sg), (times(f, g), sf * sg), (-f, -sf)
    ):
        assert_canonical(ours)
        assert ours == from_sympy(theirs)


@pytest.mark.parametrize("f, g", cases(2, 2))
def test_scalar_multiplication(f, g):
    rng = random.Random(hash((f, g)))
    # the last four are made of factors of f's own denominator and
    # content, so that the product cancels against both
    content = gcd(*f._num) or 1
    scalars = (
        random_rational(rng, big=False),
        random_rational(rng, big=True),
        rng.randint(-9, 9),
        -1,
        rng.randint(-9, 9) * f._den,
        F(rng.randint(1, 9) * f._den, rng.randint(1, 9)),
        F(rng.randint(-9, 9), rng.randint(1, 9) * content),
        F(-rng.randint(1, 9) * f._den, rng.randint(1, 9) * content),
    )
    for c in scalars:
        product = to_sympy(f) * to_sympy_scalar(c)
        for ours in (f * c, c * f):
            assert_canonical(ours)
            assert ours == from_sympy(product)


@pytest.mark.parametrize(
    "c, f, want",
    [
        (0, X, ZERO),
        (F(2, 3), ZERO, ZERO),
        (4, Poly([F(1, 4), F(1, 2)]), Poly([1, 2])),  # scalar num vs poly den
        (F(1, 3), Poly([3, 6]), Poly([1, 2])),  # scalar den vs content
        (F(-6, 35), Poly([F(7, 2), F(5, 4)]), Poly([F(-3, 5), F(-3, 14)])),  # both
        (F(1, 2), Poly([1, 3]), Poly([F(1, 2), F(3, 2)])),  # nothing cancels
    ],
)
def test_scalar_multiplication_edge_cases(c, f, want):
    for ours in (f * c, c * f):
        assert_canonical(ours)
        assert ours == want


@pytest.mark.parametrize("f, g", cases(3, 2))
def test_compose(f, g):
    ours = compose(f, g)
    assert_canonical(ours)
    assert ours == from_sympy(to_sympy(f).compose(to_sympy(g)))


@pytest.mark.parametrize("f, g", cases(5, 2))
def test_divmod_linear_and_evaluation(f, g):
    rng = random.Random(hash((g, f)))
    root = random_rational(rng, big=rng.random() < 0.3)
    sroot = sympy.Rational(root.numerator, root.denominator)
    value = compose(f, Poly.constant(root)).coefficient(0)
    assert value == Fraction(str(to_sympy(f).eval(sroot)))
    # Remainder theorem: f(root) is the remainder of sympy's division by
    # x - root, and the reference product rebuilds f from sympy's quotient.
    want_q, want_r = sympy.div(to_sympy(f), sympy.Poly(x - sroot, x, domain=QQ), domain=QQ)
    assert value == Fraction(str(want_r.as_expr()))
    quotient = from_sympy(want_q)
    assert times(quotient, X - Poly.constant(root)) + Poly.constant(value) == f


@pytest.mark.parametrize("f, g", cases(6, 2))
def test_derivative(f, g):
    # the one differentiation kernel: D h / deg h, read off h alone
    for h in (f, g):
        if h.degree >= 1:
            (ours,) = _derivatives([h])
            assert_canonical(ours)
            want = to_sympy(h).diff(x) * to_sympy_scalar(F(1, h.degree))
            assert ours == from_sympy(want)


coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=30)
polys = st.lists(coefficients, max_size=7).map(Poly)


@given(polys, polys, polys)
@settings(max_examples=40, deadline=None)
def test_canonical_form_is_path_independent(f, g, h):
    assert_canonical(f)
    assert all(type(c) is Fraction for c in f.coeffs)
    assert Poly(f.coeffs) == f and list(f) == list(f.coeffs)
    for built, direct in (
        ((f + g) + h, f + (g + h)),
        (f + g + ZERO, g + f),
        (f - g + g, f),
        (3 * (f + h), 3 * f + 3 * h),
        (-(f - g), g - f),
        (g - h - (g - h), ZERO),
    ):
        assert_canonical(built)
        assert built == direct
        assert hash(built) == hash(direct)
        assert (built._num, built._den) == (direct._num, direct._den)


@pytest.mark.parametrize("seed", range(CASES))
def test_lincomb_matches_sympy_and_a_fold(seed):
    rng = random.Random(1000 + seed)
    terms = [(random_scalar(rng), random_poly(rng)) for _ in range(rng.randint(0, 7))]
    ours = lincomb(terms)
    assert_canonical(ours)
    want = sympy.Poly(0, x, domain=QQ)
    for c, f in terms:
        want += to_sympy(f) * to_sympy_scalar(c)
    assert ours == from_sympy(want)
    folded = ZERO
    for c, f in terms:
        folded = folded + c * f
    assert ours == folded


@pytest.mark.parametrize(
    "terms, want",
    [
        ([], ZERO),
        ([(0, X), (F(0), ONE)], ZERO),  # zero scalars
        ([(3, ZERO), (F(1, 2), ZERO)], ZERO),  # zero polynomials
        ([(F(2, 3), Poly([1, F(1, 2)])), (F(-2, 3), Poly([1, F(1, 2)]))], ZERO),
        ([(1, Poly((0, 1, 1))), (-1, Poly((0, 0, 1)))], X),  # the top degrees cancel
        ([(2, X), (-3, ONE)], Poly([-3, 2])),  # int scalars
        ([(F(2), X), (F(-3), ONE)], Poly([-3, 2])),  # the same as Fractions
        ([(F(1, 2), X), (F(1, 3), ONE)], Poly([F(1, 3), F(1, 2)])),  # coprime
        ([(F(1, 6), X), (F(1, 10), X)], Poly([0, F(4, 15)])),  # shared factor 2
        ([(F(1, 2), Poly([1, 1])), (F(1, 2), Poly([1, -1]))], ONE),  # den cancels
        ([(4, Poly([F(1, 4), F(1, 2)]))], Poly([1, 2])),  # scalar num vs poly den
        ([(F(1, 3), Poly([3, 6]))], Poly([1, 2])),  # scalar den vs content
        ([(F(1, 6), Poly([F(1, 4), 1])), (F(5, 9), Poly([F(2, 3)]))],
         Poly([F(1, 24) + F(10, 27), F(1, 6)])),
    ],
)
def test_lincomb_edge_cases(terms, want):
    for given_terms in (terms, iter(terms)):
        ours = lincomb(given_terms)
        assert_canonical(ours)
        assert ours == want


def random_monic_basis(rng: random.Random, size: int) -> list[Poly]:
    """basis[k] monic of degree k, with zero and big lower coefficients."""

    def low() -> Fraction:
        return F(0) if rng.random() < 0.3 else random_rational(rng, rng.random() < 0.25)

    return [Poly([low() for _ in range(k)] + [1]) for k in range(size)]


@pytest.mark.parametrize("seed", range(CASES))
def test_basis_coordinates_match_a_sympy_triangular_solve(seed):
    rng = random.Random(3000 + seed)
    basis = random_monic_basis(rng, rng.randint(1, 9))
    # every third coordinate or so is zero, so some digits are skipped
    coords = [F(0) if rng.random() < 0.3 else random_scalar(rng) for _ in basis]
    for f in (lincomb(zip(coords, basis)), random_poly(rng, max_degree=len(basis) - 1)):
        ours = basis_coordinates(f, basis)
        assert all(type(c) is Fraction for c in ours)
        assert ours == triangular_coordinates(f, basis)
        assert lincomb(zip(ours, basis)) == f
    assert basis_coordinates(lincomb(zip(coords, basis)), basis) == coords


@pytest.mark.parametrize(
    "f, basis, want",
    [
        (ZERO, [ONE], [0]),  # f = 0
        (ZERO, [ONE, Poly([-3, 1]), Poly([F(1, 2), 0, 1])], [0, 0, 0]),
        (Poly([F(3, 4)]), [ONE], [F(3, 4)]),  # a one-element basis
        # zero digits: only the top and the bottom coordinate are nonzero
        (
            Poly([F(36, 7), 0, 0, 1]),
            [ONE, Poly([F(1, 2), 1]), Poly([0, F(1, 3), 1]), Poly([F(1, 7), 0, 0, 1])],
            [5, 0, 0, 1],
        ),
        # basis denominators 2, 15, 7 that divide none of each other: the
        # running denominator grows at each of the top three digits
        (
            Poly([F(1, 10), F(-1, 4), 0, F(2, 9)]),
            [ONE, Poly([F(1, 2), 1]), Poly([F(1, 5), F(1, 3), 1]),
             Poly([0, 0, F(1, 7), 1])],
            [F(1709, 7560), F(-181, 756), F(-2, 63), F(2, 9)],
        ),
    ],
)
def test_basis_coordinates_edge_cases(f, basis, want):
    assert basis_coordinates(f, basis) == want
    assert lincomb(zip(want, basis)) == f


def test_basis_coordinates_rejects_what_is_outside_the_span():
    with pytest.raises(MathDomainError):
        basis_coordinates(Poly((0, 0, 1)), [ONE, X])  # degree above the basis
    with pytest.raises(MathDomainError):
        basis_coordinates(ONE, [])
    with pytest.raises(InvalidSequenceError):
        basis_coordinates(X, [ONE, 2 * X])  # not monic
    with pytest.raises(InvalidSequenceError):
        basis_coordinates(X, [ONE, Poly((0, 0, 1))])  # degree gap
