"""Dense univariate polynomials over exact rationals.

A Poly uses the layout of FLINT's fmpq_poly: a tuple of integer
numerators `_num`, ascending by power, over one positive integer
denominator `_den`, so f(x) = sum(_num[k] x^k) / _den. Every instance is
in canonical form:

* trailing zero numerators are stripped;
* `_den > 0` and gcd(content(_num), _den) == 1, where the content is the
  gcd of the numerators;
* the zero polynomial is `((), 1)`.

A rational polynomial has exactly one canonical form, so `==` and `hash`
compare the two fields and nothing else. Arithmetic runs on the integer
numerators; `Fraction` values are built only when a caller asks for
them (`coeffs`, `coefficient`, `leading`, iteration).
Instances are immutable and hashable, so they can sit in tuples, dicts
and test fixtures without defensive copies.

`lincomb` builds a linear combination: it forms sum(c_i f_i) over one
common denominator and reduces the result once, with a single gcd over
its numerators. `+`, `-`, scalar multiplication and the component
relations of `decomposition` are calls to it, so no intermediate sum is
reduced. The MPS recurrence (`sequences._walk`) sums over one
denominator in a loop of its own; x*f is a shift of the numerators
(`_times_x`), so no product of polynomials is formed.
`basis_coordinates` is its inverse on a monic triangular basis: it
reads the c_i back from the sum by back-substitution on integer
numerators over one running denominator, building no Poly per digit
and skipping zero digits unread; `sequences.extract_sc` checks its
prefix once (`_off_shape`) and back-substitutes each coefficient row.
Negation is the one other kernel. Multiplication is by a scalar only:
a product of two Polys is a TypeError, since the package forms none.

The zero polynomial has an empty numerator tuple; its degree is the
sentinel -1. That convention makes degree bounds such as deg(a_n) <= n
hold for null sequences without special cases, but any code that needs
"degree exactly n" must test is_zero first.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .errors import InvalidSequenceError, MathDomainError, ParseError
from .rationals import format_ratio, to_fraction
from .wire import _canonical_rational, _json_list

Scalar = Fraction | int


def _make(num: tuple[int, ...], den: int) -> "Poly":
    """Wrap numerators and a denominator already in canonical form,
    skipping the conversions of __init__."""
    f = object.__new__(Poly)
    f._num = num
    f._den = den
    return f


def _reduced(num: list[int], den: int) -> "Poly":
    """The canonical Poly num/den for den > 0."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return ZERO
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _make(tuple(num), den)


def lincomb(terms: Iterable[tuple[Scalar, "Poly"]]) -> "Poly":
    """sum(c * f for c, f in terms), for int or Fraction scalars c.

    Every term is brought over the one denominator
    D = lcm(c.denominator * f._den), its scaled numerators are summed
    into one integer list, and only that sum is reduced; until then gcds
    are taken on denominators alone, and only where a term's denominator
    does not already divide D. The sum starts as a copy of a longest
    numerator. Zero scalars and zero polynomials are skipped, and the
    empty sum is ZERO.
    """
    parts: list[tuple[int, int, tuple[int, ...]]] = []
    den, size, first = 1, 0, 0
    for c, f in terms:
        num = f._num
        if not num:
            continue
        cn, cd = c.as_integer_ratio()
        if cn:
            d = cd * f._den
            if den % d:
                den = lcm(den, d)
            if len(num) > size:
                size, first = len(num), len(parts)
            parts.append((cn, d, num))
    if not parts:
        return ZERO
    parts[0], parts[first] = parts[first], parts[0]
    rest = iter(parts)
    cn, d, num = next(rest)
    s = cn if d == den else cn * (den // d)
    out = [s * c for c in num] if s != 1 else list(num)
    for cn, d, num in rest:
        s = cn if d == den else cn * (den // d)
        out[: len(num)] = [o + s * c for o, c in zip(out, num)]
    return _reduced(out, den)


def _times_x(f: "Poly") -> "Poly":
    """x * f, by shifting the numerators up one power; x * 0 is ZERO."""
    return _make((0,) + f._num, f._den) if f._num else ZERO


def _off_shape(polys: Iterable["Poly"]) -> int | None:
    """The first k with polys[k] not monic of degree k, else None: the shape
    rule of an MPS prefix, a triangular basis and a decomposition's rows."""
    for k, w in enumerate(polys):
        if len(w._num) != k + 1 or w._num[-1] != w._den:
            return k
    return None


def basis_coordinates(f: "Poly", basis: Sequence["Poly"]) -> list[Fraction]:
    """Coordinates c of f in a monic triangular basis: f = sum(c[k] basis[k]).
    A basis[k] not monic of degree k is an InvalidSequenceError."""
    k = _off_shape(basis)
    if k is not None:
        raise InvalidSequenceError(f"basis entry {k} is not monic of degree {k}")
    return _back_substitute(f, basis)


def _back_substitute(f: "Poly", basis: Sequence["Poly"]) -> list[Fraction]:
    """`basis_coordinates` on a basis known to be monic and triangular.

    Back-substitution from the top degree down, on the integer numerators
    R of f over one running denominator D: digit k is c = R[k] / D, read
    only when R[k] != 0, and with basis[k] = N/E the step R/D -= c N/E
    leaves R[k] == 0 exactly, because N[k] == E. D grows to
    lcm(D, c.denominator E) only when that does not already divide it.
    Nothing is reduced but the Fractions returned, so a nonzero digit
    costs the gcd that builds c, one gcd with E and one pass over
    R[:k + 1]. A remainder left after the last digit means f is not in
    the span, which is a MathDomainError.
    """
    rem, den = list(f._num), f._den
    coords = [Fraction(0)] * len(basis)
    for k in range(min(len(rem), len(basis)) - 1, -1, -1):
        r = rem[k]
        if not r:
            continue
        c = coords[k] = Fraction(r, den)
        num, e = basis[k]._num, basis[k]._den
        # den = c.denominator * g, so lcm(den, c.denominator * e) is
        # den * (e // h) and the digit's multiplier is c.numerator * (g // h)
        g = den // c.denominator
        h = gcd(g, e)
        s = c.numerator * (g // h)
        if h == e:
            rem[: k + 1] = [v - s * b for v, b in zip(rem, num)]
        else:
            scale = e // h
            rem[: k + 1] = [v * scale - s * b for v, b in zip(rem, num)]
            den *= scale
    if any(rem):
        raise MathDomainError("polynomial is not in the span of the basis")
    return coords


class Poly:
    __slots__ = ("_num", "_den")

    _num: tuple[int, ...]
    _den: int

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        """Coefficients ascending by power: ints, Fractions, or anything
        Fraction() accepts."""
        cs = [to_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # each reduced coefficient keeps a numerator prime to every prime
        # power of the lcm it attains, so the result is already canonical
        den = lcm(*(c.denominator for c in cs))
        self._num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self._den = den

    @staticmethod
    def constant(c: Scalar) -> "Poly":
        return Poly((c,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def degree(self) -> int:
        """Degree, with -1 as the zero-polynomial sentinel."""
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def leading(self) -> Fraction:
        if not self._num:
            raise MathDomainError("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    @property
    def is_monic(self) -> bool:
        return bool(self._num) and self._num[-1] == self._den

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self._num):
            return Fraction(self._num[power], self._den)
        return Fraction(0)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __bool__(self) -> bool:
        return bool(self._num)

    def __add__(self, other: "Poly") -> "Poly":
        return lincomb(((1, self), (1, other)))

    def __sub__(self, other: "Poly") -> "Poly":
        return lincomb(((1, self), (-1, other)))

    def __neg__(self) -> "Poly":
        return _make(tuple([-c for c in self._num]), self._den)

    def __mul__(self, other: Scalar) -> "Poly":
        if isinstance(other, Poly):
            return NotImplemented
        return lincomb(((other, self),))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"


ZERO = _make((), 1)
ONE = _make((1,), 1)
X = _make((0, 1), 1)


def format_poly(f: Poly) -> str:
    """Human-readable form, highest power first, e.g. "x^2 - 1/2". Each
    coefficient is read as its numerator over the shared denominator,
    with no Fraction built."""
    num, den = f._num, f._den
    if not num:
        return "0"
    parts: list[str] = []
    for k in range(len(num) - 1, -1, -1):
        c = num[k]
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = format_ratio(mag, den)
        else:
            xk = "x" if k == 1 else f"x^{k}"
            body = xk if mag == den else f"{format_ratio(mag, den)} {xk}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)


def poly_to_strings(f: Poly) -> list[str]:
    """JSON form: ascending coefficient list of rational strings."""
    den = f._den
    return [format_ratio(c, den) for c in f._num]


def poly_from_strings(items: list[str]) -> Poly:
    """Load the form poly_to_strings writes, and nothing else: each entry
    as format_rational writes it, the last one nonzero."""
    cs = [_canonical_rational(c, "coefficient") for c in _json_list(items, "polynomial")]
    if cs and not cs[-1]:
        raise ParseError("a polynomial's last coefficient must be nonzero")
    return Poly(cs)
