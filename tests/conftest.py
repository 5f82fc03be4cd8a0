"""Seeded factories for randomized specs shared across the test modules."""

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import quadmps.verification as verification
from quadmps.decomposition import QdComponents, _row
from quadmps.errors import DispatchError
from quadmps.families import CASE_IDS, CaseParams, case_claims, require_case
from quadmps.polynomials import ONE, X, Poly, lincomb
from quadmps.sequences import BandedRule, StructureCoefficients


# arbitrary JSON values, for the loaders and the CLI's file inputs
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def rational(rng: random.Random, span: int = 6, den: int = 4, nonzero: bool = False):
    while True:
        value = Fraction(rng.randint(-span, span), rng.randint(1, den))
        if value != 0 or not nonzero:
            return value


def assert_case_partition(case_id: str, pr: CaseParams) -> None:
    """The tuple passes require_case for its own case and fails it for
    every other case of the same family."""
    require_case(case_id, pr)
    family = case_claims(case_id).family
    for other in CASE_IDS:
        if other != case_id and case_claims(other).family == family:
            with pytest.raises(DispatchError):
                require_case(other, pr)


def three_term(beta, gamma) -> BandedRule:
    """d = 1 rule: W_{n+2} = (x - beta(n+1)) W_{n+1} - gamma(n+1) W_n."""
    return BandedRule(d=1, beta=beta, bands=(lambda n: gamma(n + 1),))


def tabulated_rule(d: int, betas, band_tables) -> BandedRule:
    """Banded rule backed by finite lists; indexing past the end fails loudly."""
    return BandedRule(
        d=d,
        beta=lambda n: betas[n],
        bands=tuple((lambda t: (lambda n: t[n]))(table) for table in band_tables),
    )


def random_banded_rule(rng: random.Random, d: int, depth: int = 40) -> BandedRule:
    betas = [rational(rng) for _ in range(depth)]
    bands = []
    for k in range(d):
        regular = k == d - 1
        bands.append([rational(rng, nonzero=regular) for _ in range(depth)])
    return tabulated_rule(d, betas, bands)


def random_two_orthogonal(rng: random.Random, depth: int = 40) -> BandedRule:
    return random_banded_rule(rng, 2, depth)


def components_of_pairs(qmap, pairs) -> QdComponents:
    """The decomposition whose row m has the parts (u_m, v_m) of pairs[m]."""
    return QdComponents(qmap, [_row(u, v) for u, v in pairs])


def random_dense_sc(rng: random.Random, nmax: int) -> StructureCoefficients:
    beta = [rational(rng) for _ in range(nmax + 1)]
    chi = [[rational(rng) for _ in range(n + 1)] for n in range(nmax)]
    return StructureCoefficients(beta, chi)


def with_random_zeros(
    rng: random.Random, sc: StructureCoefficients
) -> StructureCoefficients:
    """sc with about a third of its chi entries and one whole row set to 0."""
    dead = rng.randrange(len(sc.chi))
    chi = [
        [0 if n == dead or rng.random() < 0.3 else c for c in row]
        for n, row in enumerate(sc.chi)
    ]
    return StructureCoefficients(sc.beta, chi)


def random_spec(rng: random.Random, kind: int, depth: int = 40):
    """One of the four randomized spec shapes: banded d = 1, 2, 3 or dense."""
    if kind % 4 == 3:
        return random_dense_sc(rng, depth - 1)
    return random_banded_rule(rng, kind % 4 + 1, depth)


def _convolve(a, b) -> list:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def times(f: Poly, g: Poly) -> Poly:
    """f * g by schoolbook convolution of the coefficient Fractions, a
    reference that shares no code with Poly's integer kernels."""
    return Poly(_convolve(f.coeffs, g.coeffs))


def compose(f: Poly, g: Poly) -> Poly:
    """f(g(x)) by Horner's scheme on the coefficient Fractions."""
    acc: list = []
    for c in reversed(f.coeffs):
        acc = _convolve(acc, g.coeffs) or [Fraction(0)]
        acc[0] += c
    return Poly(acc)


def reference_mps(sc: StructureCoefficients, nmax: int) -> list[Poly]:
    """W_0..W_nmax as a per-index loop that shares no code with the walk
    of generate_mps and decompose: every chi entry is read by index and
    negated on its own, and (x - beta) W is a product by the reference
    `times`."""
    polys = [ONE, X - Poly.constant(sc.beta[0])]
    for n in range(nmax - 1):
        terms = [(1, times(X - Poly.constant(sc.beta[n + 1]), polys[n + 1]))]
        terms += [(-sc.chi[n][nu], polys[nu]) for nu in range(n + 1)]
        polys.append(lincomb(terms))
    return polys[: nmax + 1]


def reference_derivatives(polys, sc: StructureCoefficients) -> list[Poly]:
    """The normalized derivatives W^[1]_0..W^[1]_{m-1} of W_0..W_m through
    the recurrence the structure coefficients induce, a loop over every
    chi entry that never differentiates:

        (n+1) W^[1]_n = W_n + n (x - beta_n) W^[1]_{n-1}
                        - sum_{nu=1}^{n-1} nu chi_{n-1,nu} W^[1]_{nu-1}.
    """
    out = [ONE]
    for n in range(1, len(polys) - 1):
        terms = [
            (Fraction(1, n + 1), polys[n]),
            (Fraction(n, n + 1), times(X - Poly.constant(sc.beta[n]), out[n - 1])),
        ]
        for nu in range(1, n):
            terms.append((sc.chi[n - 1][nu] * Fraction(-nu, n + 1), out[nu - 1]))
        out.append(lincomb(terms))
    return out


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260818)


@pytest.fixture
def serial_pool(monkeypatch) -> list:
    """Stand in for the sweep's process pool: map in this process and
    record each pool's max_workers in the returned list."""
    workers: list = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(verification, "ProcessPoolExecutor", SerialPool)
    return workers
