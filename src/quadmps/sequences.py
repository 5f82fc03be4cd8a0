"""Monic polynomial sequences and their structure coefficients.

A monic polynomial sequence (MPS) {W_n} with deg W_n = n satisfies

    W_0 = 1,   W_1 = x - beta_0,
    x W_{n+1} = W_{n+2} + beta_{n+1} W_{n+1} + sum_{nu=0}^{n} chi_{n,nu} W_nu,

so row n of the chi table expands x*W_{n+1} and carries n+1 entries.
A StructureCoefficients with limit nmax stores beta_0..beta_nmax and chi
rows 0..nmax-1; that is exactly enough data to generate W_0..W_{nmax+1},
and extracting coefficients back from W_0..W_m yields a table with limit
m-1. Keeping both directions aligned to the same nmax convention makes
the generate/extract round trip an identity on the stored range.

A sequence is d-orthogonal when the table is d-banded (chi_{n,nu} = 0
for nu < n-d+1) with the lowest band nonzero. For d = 2 the bands carry
the lighter names chi_{n,n} = alpha_{n+1} (n >= 0) and chi_{n,n-1} =
gamma_n (n >= 1).

A spec, a closed-form BandedRule or a stored StructureCoefficients, is
read only through `table(n)`: the table with limit n, or a shorter
stored table whole. A consumer that walks W_n reads it through `_reach`;
the detector of `analysis` checks its own sweep bound.

generate_mps and extract_sc are lists over generator cores that yield
W_n and (beta_{n+1}, chi row n) as soon as their inputs exist, so a
caller builds only the rows it reads. The recurrence is one walk,
`_walk`, on the rows of W_n in the basis omega^i, (x - a) omega^i of a
quadratic map (`decomposition.decompose` walks at its map); at
omega = x^2 and a = 0 a row is W_n itself, so generate_mps walks there.
The normalized derivatives are the definition itself,
W^[1]_n = D W_{n+1} / (n+1): each is read off W_{n+1} alone, with no
structure coefficients, so a generator of W feeds them as lazily.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    InvalidSequenceError,
    MathDomainError,
    ParseError,
    RangeError,
)
from .polynomials import ONE, Poly, _back_substitute, _off_shape, _reduced, _times_x
from .rationals import ZERO, format_rational, parse_rational, to_fraction
from .wire import Record, _exact_keys, _json_list, _json_object


class StructureCoefficients(Record):
    """Triangular recurrence data for one MPS, exact and immutable."""

    beta: tuple[Fraction, ...]
    chi: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        self._set(
            tuple(map(to_fraction, self.beta)),
            tuple(tuple(map(to_fraction, row)) for row in self.chi),
        )

    @classmethod
    def _of(cls, beta, chi) -> "StructureCoefficients":
        """A table of entries that already are Fractions, in tuples: the
        public constructor's shape checks without its conversion pass."""
        sc = object.__new__(cls)
        sc._set(beta, chi)
        return sc

    def _set(self, beta: tuple[Fraction, ...], chi: tuple[tuple[Fraction, ...], ...]):
        """Set the fields, or reject a table of the wrong shape."""
        object.__setattr__(self, "__dict__", {"beta": beta, "chi": chi})
        if not self.beta:
            raise InvalidSequenceError("beta must contain at least beta_0")
        if len(self.chi) != len(self.beta) - 1:
            raise InvalidSequenceError(
                f"need {len(self.beta) - 1} chi rows for {len(self.beta)} beta entries,"
                f" got {len(self.chi)}"
            )
        for n, row in enumerate(self.chi):
            if len(row) != n + 1:
                raise InvalidSequenceError(f"chi row {n} must have {n + 1} entries")

    @property
    def nmax(self) -> int:
        """Largest beta index stored; chi rows run 0..nmax-1."""
        return len(self.beta) - 1

    def table(self, nmax: int) -> "StructureCoefficients":
        """The table cut to limit nmax; this table itself, not a copy, when
        it stores no more than that. A caller checks its own reach."""
        if nmax >= self.nmax:
            return self
        return StructureCoefficients._of(self.beta[: nmax + 1], self.chi[:nmax])

    def to_json(self) -> dict:
        return {
            "nmax": self.nmax,
            "beta": [format_rational(b) for b in self.beta],
            "chi": [[format_rational(c) for c in row] for row in self.chi],
        }

    @staticmethod
    def from_json(data: dict) -> "StructureCoefficients":
        """Load a table payload. Stored tables repeat their entries, so
        each distinct str entry is parsed once per call and shared; other
        types are not memoized (True == 1 == 1.0 would share a key), nor
        are failed parses, so each entry reads as one parse_rational."""
        _json_object(data, "structure-coefficient payload")
        _exact_keys(data, ("beta", "chi"), "structure-coefficient payload", ("nmax",))
        parsed: dict[str, Fraction] = {}

        def entry(value) -> Fraction:
            if type(value) is not str:
                return parse_rational(value)
            q = parsed.get(value)
            if q is None:
                q = parsed[value] = parse_rational(value)
            return q

        try:
            beta = tuple(map(entry, _json_list(data["beta"], "beta")))
            chi = tuple(
                tuple(map(entry, _json_list(row, "chi row")))
                for row in _json_list(data["chi"], "chi")
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed structure-coefficient payload: {exc}") from exc
        sc = StructureCoefficients._of(beta, chi)
        if "nmax" in data and type(data["nmax"]) is not int:
            raise ParseError(f"nmax must be an integer, got {data['nmax']!r}")
        if "nmax" in data and data["nmax"] != sc.nmax:
            raise ParseError(
                f"declared nmax {data['nmax']} does not match beta length {len(beta)}"
            )
        return sc


class BandedRule(Record):
    """Closed-form d-banded coefficient rule, usable at any index.

    bands[k] gives chi_{n,n-k} as a function of n (0 <= k < d), so
    bands[d-1] is the regularity band of a d-orthogonal sequence.
    """

    d: int
    beta: Callable[[int], Fraction]
    bands: tuple[Callable[[int], Fraction], ...]

    def __post_init__(self):
        if self.d < 1:
            raise MathDomainError("band order d must be >= 1")
        if len(self.bands) != self.d:
            raise MathDomainError(f"need {self.d} band rules, got {len(self.bands)}")

    @staticmethod
    def two_orthogonal(
        beta: Callable[[int], Fraction],
        alpha: Callable[[int], Fraction],
        gamma: Callable[[int], Fraction],
    ) -> "BandedRule":
        """d = 2 rule from the lighter notation: alpha(n) = chi_{n-1,n-1}
        for n >= 1 and gamma(n) = chi_{n,n-1} for n >= 1."""
        return BandedRule(
            d=2,
            beta=beta,
            bands=(lambda n: alpha(n + 1), lambda n: gamma(n)),
        )

    def table(self, nmax: int) -> StructureCoefficients:
        """Materialize beta_0..beta_nmax and chi rows 0..nmax-1; only the
        d band entries of each row are evaluated, the rest are zero. Only
        the evaluated entries are converted: a rule may return an int."""
        beta = tuple(to_fraction(self.beta(n)) for n in range(nmax + 1))
        chi = []
        for n in range(nmax):
            lo = max(0, n - self.d + 1)
            band = tuple(to_fraction(self.bands[n - nu](n)) for nu in range(lo, n + 1))
            chi.append((ZERO,) * lo + band)
        return StructureCoefficients._of(beta, tuple(chi))


def _reach(spec: BandedRule | StructureCoefficients, nmax: int) -> StructureCoefficients:
    """The table that generates W_0..W_nmax; a stored one must cover it.
    The one reach rule of every reader that walks W_n from a spec."""
    if nmax < 0:
        raise RangeError("nmax must be >= 0")
    sc = spec.table(max(nmax - 1, 0))
    if nmax > sc.nmax + 1:
        raise RangeError(f"spec covers W_0..W_{sc.nmax + 1}, cannot reach W_{nmax}")
    return sc


def generate_mps(spec: BandedRule | StructureCoefficients, nmax: int) -> list[Poly]:
    """Materialize W_0..W_nmax from a rule or a stored table: the rows of
    the walk at omega = x^2 and a = 0 are the monomial coefficients of W."""
    return list(_walk(_reach(spec, nmax), ZERO, ZERO, ZERO))[: nmax + 1]


def _walk(
    sc: StructureCoefficients, a: Fraction, wa: Fraction, s: Fraction
) -> Iterator[Poly]:
    """The rows of W_0..W_{sc.nmax + 1}, each as soon as it is built: the
    coordinates [u_0, v_0, u_1, ...] of W in the basis omega^i,
    (x - a) omega^i of omega = x^2 + p x + q, with omega(a) = wa and
    p + 2a = s, as one canonical Poly.

    As x (x - a) = omega - (p + a)(x - a) - omega(a), with c = a - beta_{m+1}
    and (u_i, v_i) the slots of row m + 1, (x - beta_{m+1}) W_{m+1} has
    c u_i - omega(a) v_i + v_{i-1} at slot 2i and u_i + (c - s) v_i at
    2i + 1. W_{m+2} is that less sum_nu chi_{m,nu} W_nu: one pass over the
    row, one scaled accumulation per nonzero chi entry, all over one
    denominator in one integer list, and only the sum is reduced.
    """
    rows = [ONE, Poly((a - sc.beta[0], 1))]
    yield from rows
    for m, chi_row in enumerate(sc.chi):
        last = rows[-1]
        c = a - sc.beta[m + 1]
        # (x - beta) J has integer slots over own = last._den * k
        k = lcm(c.denominator, wa.denominator, s.denominator)
        den = own = last._den * k
        terms = []
        for chi, w in zip(chi_row, rows):
            if chi:
                cn, cd = chi.as_integer_ratio()
                d = cd * w._den
                if den % d:
                    den = lcm(den, d)
                terms.append((cn, d, w._num))
        k *= den // own  # each scalar's multiplier over den
        cu = c.numerator * (k // c.denominator)
        cw = wa.numerator * (k // wa.denominator)
        cv = cu - s.numerator * (k // s.denominator)
        # an odd row gets a zero top v, so every slot has its pair
        j = last._num + (0,) * (len(last._num) % 2)
        u, v = j[0::2], j[1::2]
        out = [0] * (len(j) + 1)
        out[0:-1:2] = [cu * x - cw * y + k * z for x, y, z in zip(u, v, (0,) + v)]
        out[1::2] = [k * x + cv * y for x, y in zip(u, v)]
        out[-1] = k * v[-1]
        for cn, d, num in terms:
            t = cn if d == den else cn * (den // d)
            out[: len(num)] = [o - t * b for o, b in zip(out, num)]
        rows.append(_reduced(out, den))
        yield rows[-1]


def _validate_mps(polys: Sequence[Poly]) -> None:
    k = _off_shape(polys)
    if k is not None:
        raise InvalidSequenceError(f"entry {k} is not monic of degree {k}")


def extract_sc(polys: Sequence[Poly]) -> StructureCoefficients:
    """Recover the structure coefficients of a materialized MPS prefix.

    Row n is read off the coordinates of x*W_{n+1} in {W_0..W_{n+2}}:
    the top one is the 1 of W_{n+2}, the next is beta_{n+1} and the rest
    are chi_{n,0..n}. The prefix is checked once, then back-substitution
    finds each row from the top degree down; monicity makes each digit a
    single coefficient read, and the whole row runs on integer numerators
    over one running denominator, with zero digits skipped unread.
    """
    if len(polys) < 2:
        raise InvalidSequenceError("need at least W_0 and W_1")
    _validate_mps(polys)
    rows = list(_sc_rows(polys))
    beta = (-polys[1].coefficient(0), *(b for b, _ in rows))
    return StructureCoefficients._of(beta, tuple(row for _, row in rows))


def _sc_rows(polys: Iterable[Poly]) -> Iterator[tuple[Fraction, tuple[Fraction, ...]]]:
    # polys are monic of degree k at index k: checked by the caller, or built so
    seen: list[Poly] = []
    for w in polys:
        seen.append(w)
        if len(seen) > 2:
            coeffs = _back_substitute(_times_x(seen[-2]), seen)
            yield coeffs[-2], tuple(coeffs[:-2])


def derivative_sequence(polys: Sequence[Poly]) -> list[Poly]:
    """Normalized derivatives W^[1]_n = D W_{n+1} / (n+1) for n < len(polys)-1."""
    if len(polys) < 2:
        raise RangeError("need at least W_0 and W_1 to differentiate")
    _validate_mps(polys)
    return list(_derivatives(polys[1:]))


def _derivatives(polys: Iterable[Poly]) -> Iterator[Poly]:
    """W^[1]_{n-1} for each W_n, n >= 1, in order: D W_n / n, reduced once."""
    return (
        _reduced([k * c for k, c in enumerate(w._num) if k], w._den * w.degree)
        for w in polys
    )
