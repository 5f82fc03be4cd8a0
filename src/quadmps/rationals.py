"""Exact rational scalars and their wire format.

Scalars are `fractions.Fraction`: always reduced, denominator positive,
arithmetic exact. Reports serialize rationals as strings, "num/den" with
the "/den" part omitted for integers, so that JSON stays exact and
byte-stable.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import ParseError, RangeError

ZERO = Fraction(0)

# ASCII digits only: "\d" would also take other scripts' digits
_RATIONAL_RE = re.compile(r"^(-?[0-9]+)(?:/(-?[0-9]+))?$")


def parse_rational(text: str | int) -> Fraction:
    """Parse "num" or "num/den" into a Fraction.

    Denominators must be positive: "3/0" and "3/-2" are rejected, signs
    belong on the numerator. Digits are ASCII only. A number longer than
    the interpreter's integer-string limit (sys.get_int_max_str_digits)
    is a ParseError, not the ValueError int() raises. A plain str, the
    type of every JSON entry, is tested for before the isinstance chain.
    """
    if type(text) is not str:
        if isinstance(text, bool):
            raise ParseError(f"rational must be a string or int, got {text!r}")
        if isinstance(text, int):
            return Fraction(text)
        if not isinstance(text, str):
            raise ParseError(f"rational must be a string or int, got {type(text).__name__}")
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ParseError(f"not a rational: {text!r}")
    num, den = m.groups("1")
    try:
        num, den = int(num), int(den)
    except ValueError as exc:
        raise ParseError(f"rational too long: {exc}") from exc
    if den <= 0:
        raise ParseError(f"denominator must be positive: {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Inverse of parse_rational, canonical form."""
    return format_ratio(value.numerator, value.denominator)


def format_ratio(num: int, den: int) -> str:
    """Canonical form of num/den for den > 0, reduced without building a
    Fraction. A value longer than the interpreter's integer-string limit
    is a RangeError, not the ValueError str() raises."""
    g = gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError as exc:
        raise RangeError(f"rational too long to print: {exc}") from exc


def to_fraction(value) -> Fraction:
    """`value` as a Fraction, returned as is when it already is one."""
    return value if isinstance(value, Fraction) else Fraction(value)
