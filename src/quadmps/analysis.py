"""Detection of d-orthogonality, d-symmetry and classical character.

An MPS is d-orthogonal exactly when its chi table is d-banded with the
lowest band everywhere nonzero. Working from finite data the detector
can only certify behaviour on the covered range, so every verdict is
range-limited evidence: a rejected band order d carries a concrete
nonzero chi entry below the band whenever one exists, and a detected
order certifies both the vanishing sub-band and the nonzero near-band
on the rows examined.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import ParseError, RangeError
from .polynomials import Poly
from .rationals import format_rational, parse_rational
from .sequences import (
    MpsSpec,
    StructureCoefficients,
    _json_list,
    _json_object,
    _json_typed,
    derivative_sequence,
    extract_sc,
    generate_mps,
)


@dataclass(frozen=True)
class BandWitness:
    """A nonzero chi entry below candidate band d: proof of rejection."""

    d: int
    n: int
    nu: int
    value: Fraction

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "nu": self.nu,
            "value": format_rational(self.value),
        }

    @staticmethod
    def from_json(data: dict) -> "BandWitness":
        _json_object(data, "witness payload")
        try:
            d, n, nu = (
                _json_typed(data, key, int, "witness payload")
                for key in ("d", "n", "nu")
            )
            return BandWitness(d, n, nu, parse_rational(data["value"]))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed witness payload: {exc}") from exc


@dataclass(frozen=True)
class OrthoReport:
    """Outcome of an orthogonality-order sweep over one chi table.

    detected_d is the smallest candidate whose sub-band vanishes and
    whose near-band stays nonzero across the covered rows, None when no
    candidate qualifies. regularity_ok is True exactly when detected_d
    is present; when detection failed because the smallest band-clean
    candidate had a zero near-band entry, regularity_fail records that
    (d, n). classical is filled by the derivative comparison and stays
    None when the base detection already failed.
    """

    detected_d: int | None
    range_nmax: int
    regularity_ok: bool
    witnesses: tuple[BandWitness, ...]
    regularity_fail: tuple[int, int] | None = None
    classical: bool | None = None

    def to_json(self) -> dict:
        return {
            "detected_d": self.detected_d,
            "range": self.range_nmax,
            "regularity_ok": self.regularity_ok,
            "witnesses": [w.to_json() for w in self.witnesses],
            "regularity_fail": None
            if self.regularity_fail is None
            else {"d": self.regularity_fail[0], "n": self.regularity_fail[1]},
            "classical": self.classical,
        }

    @staticmethod
    def from_json(data: dict) -> "OrthoReport":
        what = "orthogonality report"
        _json_object(data, what)
        try:
            fail = _json_typed(data, "regularity_fail", dict, what, optional=True)
            return OrthoReport(
                detected_d=_json_typed(data, "detected_d", int, what, optional=True),
                range_nmax=_json_typed(data, "range", int, what),
                regularity_ok=_json_typed(data, "regularity_ok", bool, what),
                witnesses=tuple(
                    BandWitness.from_json(w)
                    for w in _json_list(data["witnesses"], "witnesses")
                ),
                regularity_fail=None
                if fail is None
                else tuple(
                    _json_typed(fail, key, int, "regularity_fail") for key in ("d", "n")
                ),
                classical=_json_typed(data, "classical", bool, what, optional=True),
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed orthogonality report: {exc}") from exc

    def rejected_orders(self) -> dict[int, BandWitness]:
        return {w.d: w for w in self.witnesses}


def detect_orthogonality_order(
    sc: StructureCoefficients, dmax: int
) -> OrthoReport:
    """Sweep candidate orders 1..dmax against a stored chi table."""
    if dmax < 1:
        raise RangeError("dmax must be >= 1")
    if sc.nmax < dmax + 2:
        raise RangeError(
            f"need coefficients up to index {dmax + 2} to sweep d <= {dmax},"
            f" have {sc.nmax}"
        )
    rows = len(sc.chi)
    witnesses: list[BandWitness] = []
    regularity_fail: tuple[int, int] | None = None
    detected: int | None = None
    for d in range(1, dmax + 1):
        witness = None
        for n in range(d, rows):
            for nu in range(0, n - d + 1):
                value = sc.chi[n][nu]
                if value:
                    witness = BandWitness(d, n, nu, value)
                    break
            if witness:
                break
        if witness is not None:
            witnesses.append(witness)
            continue
        near_zero = next(
            (n for n in range(d - 1, rows) if sc.chi[n][n - d + 1] == 0), None
        )
        if near_zero is not None:
            if regularity_fail is None:
                regularity_fail = (d, near_zero)
            continue
        detected = d
        break
    return OrthoReport(
        detected_d=detected,
        range_nmax=sc.nmax,
        regularity_ok=detected is not None,
        witnesses=tuple(witnesses),
        regularity_fail=None if detected is not None else regularity_fail,
    )


def check_d_symmetric(polys: list[Poly], d: int) -> bool:
    """True iff every W_m is supported on exponents congruent to m mod d+1."""
    if d < 1:
        raise RangeError("d must be >= 1")
    step = d + 1
    for m, w in enumerate(polys):
        for k, c in enumerate(w.coeffs):
            if c and k % step != m % step:
                return False
    return True


def check_hahn_classical(
    spec: MpsSpec, nmax: int, dmax: int | None = None
) -> tuple[OrthoReport, OrthoReport]:
    """Detect the orthogonality order of a sequence and of its normalized
    derivatives, and compare.

    The sequence has classical character on the examined range when both
    detections succeed with the same order. Returns the two reports with
    their shared classical verdict filled in (None when the base sequence
    was not even d-orthogonal).
    """
    if nmax < 4:
        raise RangeError("nmax must be >= 4 for a meaningful sweep")
    dmax = nmax if dmax is None else dmax
    polys = generate_mps(spec, 2 * nmax)
    sc = extract_sc(polys)
    der = derivative_sequence(polys, sc)
    sc_der = extract_sc(der)
    base = detect_orthogonality_order(sc, dmax)
    derived = detect_orthogonality_order(sc_der, dmax)
    if base.detected_d is None:
        verdict: bool | None = None
    else:
        verdict = derived.detected_d == base.detected_d
    return replace(base, classical=verdict), replace(derived, classical=verdict)
