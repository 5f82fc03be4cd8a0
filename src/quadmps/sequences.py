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
stored table whole. Each consumer checks that its rows reach far enough.

generate_mps and extract_sc are lists over generator cores that yield
W_n and (beta_{n+1}, chi row n) as soon as their inputs exist, so a
caller builds only the rows it reads. The recurrence walks the stored
chi rows and skips their zero entries, and builds each new polynomial
as one `lincomb`, a factor (x - beta) entering as the two terms x*f and
-beta*f. The normalized derivatives are the definition itself,
W^[1]_n = D W_{n+1} / (n+1): each is read off W_{n+1} alone, with no
structure coefficients, so a generator of W feeds them as lazily.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    InvalidSequenceError,
    MathDomainError,
    ParseError,
    RangeError,
)
from .polynomials import ONE, Poly, X, _reduced, _times_x, basis_coordinates, lincomb
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
    """The table that generates W_0..W_nmax; a stored one must cover it."""
    sc = spec.table(max(nmax - 1, 0))
    if nmax > sc.nmax + 1:
        raise RangeError(f"spec covers W_0..W_{sc.nmax + 1}, cannot reach W_{nmax}")
    return sc


def generate_mps(spec: BandedRule | StructureCoefficients, nmax: int) -> list[Poly]:
    """Materialize W_0..W_nmax from a rule or a stored table."""
    if nmax < 0:
        raise RangeError("nmax must be >= 0")
    return list(_mps(_reach(spec, nmax), nmax))


def _mps(sc: StructureCoefficients, nmax: int) -> Iterator[Poly]:
    polys = [ONE]
    yield ONE
    if nmax == 0:
        return
    polys.append(X - Poly.constant(sc.beta[0]))
    yield polys[1]
    for n in range(nmax - 1):
        # -W_{n+2} = -x W_{n+1} + beta_{n+1} W_{n+1} + sum chi_{n,nu} W_nu
        w = polys[n + 1]
        terms = [(-1, _times_x(w)), (sc.beta[n + 1], w)]
        terms += ((c, f) for c, f in zip(sc.chi[n], polys) if c)
        polys.append(-lincomb(terms))
        yield polys[-1]


def _validate_mps(polys: Sequence[Poly]) -> None:
    for k, w in enumerate(polys):
        if w.degree != k or not w.is_monic:
            raise InvalidSequenceError(f"entry {k} is not monic of degree {k}")


def extract_sc(polys: Sequence[Poly]) -> StructureCoefficients:
    """Recover the structure coefficients of a materialized MPS prefix.

    Row n is the expansion of x*W_{n+1} - W_{n+2} over {W_0..W_{n+1}}:
    its top coordinate is beta_{n+1} and the rest are chi_{n,0..n}.
    `basis_coordinates` finds it by back-substitution from the top
    degree down; monicity makes each digit a single coefficient read,
    and the whole row runs on integer numerators over one running
    denominator, with zero digits skipped unread.
    """
    if len(polys) < 2:
        raise InvalidSequenceError("need at least W_0 and W_1")
    _validate_mps(polys)
    rows = list(_sc_rows(polys))
    beta = (-polys[1].coefficient(0), *(b for b, _ in rows))
    return StructureCoefficients._of(beta, tuple(row for _, row in rows))


def _sc_rows(polys: Iterable[Poly]) -> Iterator[tuple[Fraction, tuple[Fraction, ...]]]:
    seen: list[Poly] = []
    for w in polys:
        seen.append(w)
        n = len(seen) - 3
        if n >= 0:
            rest = lincomb(((1, _times_x(seen[n + 1])), (-1, w)))
            coeffs = basis_coordinates(rest, seen[: n + 2])
            yield coeffs[n + 1], tuple(coeffs[: n + 1])


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
