"""Detection of d-orthogonality and classical character.

An MPS is d-orthogonal exactly when its chi table is d-banded with the
lowest band everywhere nonzero. Working from finite data the detector
can only certify behaviour on the covered range, so every verdict is
range-limited evidence: a rejected band order d carries a concrete
nonzero chi entry below the band whenever one exists, and a detected
order certifies both the vanishing sub-band and the nonzero near-band
on the rows examined.

The detector reads the rows once, in ascending order. Row n rejects
every order d <= n - lo, lo its lowest nonzero index, so the rejected
orders are 1..k and the witness of d is the first row to reach it. It
stops once k = dmax; otherwise the orders past k get the near-band check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterable

from .errors import RangeError
from .rationals import ZERO
from .sequences import (
    BandedRule,
    StructureCoefficients,
    _derivatives,
    _reach,
    _sc_rows,
    _walk,
)
from .wire import Record, Wire


class BandWitness(Wire):
    """A nonzero chi entry below candidate band d: proof of rejection."""

    d: int
    n: int
    nu: int
    value: Fraction


class RegularityFail(Record):
    """The first zero entry of band d, at row n, of a band-clean candidate."""

    d: int
    n: int


class OrthoReport(Wire):
    """Outcome of an orthogonality-order sweep over one chi table.

    detected_d is the smallest candidate whose sub-band vanishes and
    whose near-band stays nonzero across the covered rows, None when no
    candidate qualifies. regularity_ok, a derived key of the payload, is
    True exactly when detected_d is present; when detection failed
    because the smallest band-clean candidate had a zero near-band entry,
    regularity_fail records that (d, n). classical is filled by the
    derivative comparison and stays None when the base detection already
    failed.
    """

    _wire_keys = {"range_nmax": "range"}

    detected_d: int | None
    range_nmax: int
    witnesses: tuple[BandWitness, ...]
    regularity_fail: RegularityFail | None = None
    classical: bool | None = None

    @property
    def regularity_ok(self) -> bool:
        return self.detected_d is not None

    def summary(self) -> dict:
        """The derived key a report payload carries next to its fields."""
        return {"regularity_ok": self.regularity_ok}


def detect_orthogonality_order(
    sc: StructureCoefficients, dmax: int
) -> OrthoReport:
    """Sweep candidate orders 1..dmax against a stored chi table."""
    return _detect(sc.chi, sc.nmax, dmax)


def _detect(rows: Iterable[tuple], range_nmax: int, dmax: int) -> OrthoReport:
    """One pass over chi rows 0, 1, ... of a table whose limit is range_nmax."""
    if dmax < 1:
        raise RangeError("dmax must be >= 1")
    if range_nmax < dmax + 2:
        raise RangeError(
            f"need coefficients up to index {dmax + 2} to sweep d <= {dmax},"
            f" have {range_nmax}"
        )
    chi: list[tuple[Fraction, ...]] = []
    witnesses: list[BandWitness] = []
    for n, row in enumerate(rows):
        chi.append(row)
        # only an entry left of column n - k can reject a new order
        k = len(witnesses)
        lo = next((nu for nu in range(n - k) if row[nu]), n)
        for d in range(k + 1, min(n - lo, dmax) + 1):
            witnesses.append(BandWitness(d, n, lo, row[lo]))
        if len(witnesses) == dmax:
            break
    regularity_fail: RegularityFail | None = None
    detected: int | None = None
    for d in range(len(witnesses) + 1, dmax + 1):
        near_zero = next(
            (n for n in range(d - 1, len(chi)) if chi[n][n - d + 1] == 0), None
        )
        if near_zero is None:
            detected = d
            break
        if regularity_fail is None:
            regularity_fail = RegularityFail(d, near_zero)
    return OrthoReport(
        detected_d=detected,
        range_nmax=range_nmax,
        witnesses=tuple(witnesses),
        regularity_fail=None if detected is not None else regularity_fail,
    )


def check_hahn_classical(
    spec: BandedRule | StructureCoefficients, nmax: int, dmax: int | None = None
) -> tuple[OrthoReport, OrthoReport]:
    """Detect the orthogonality order of a sequence and of its normalized
    derivatives, and compare.

    The spec is read once, as `table(2 nmax - 1)` (a stored table that
    cannot reach W_{2 nmax} is a RangeError). Its walk at omega = x^2,
    a = 0 gives W_1..W_{2 nmax}, and W^[1]_0..W^[1]_{2 nmax - 1} are
    differentiated from them, each only once their detector reads it.

    The sequence has classical character on the examined range when both
    detections succeed with the same order. Returns the two reports with
    their shared classical verdict filled in (None when the base sequence
    was not even d-orthogonal).
    """
    if nmax < 4:
        raise RangeError("nmax must be >= 4 for a meaningful sweep")
    dmax = nmax if dmax is None else dmax
    sc = _reach(spec, 2 * nmax)
    base = detect_orthogonality_order(sc, dmax)
    der = _derivatives(islice(_walk(sc, ZERO, ZERO, ZERO), 1, None))
    derived = _detect((row for _, row in _sc_rows(der)), 2 * nmax - 2, dmax)
    if base.detected_d is None:
        verdict: bool | None = None
    else:
        verdict = derived.detected_d == base.detected_d
    return base._replace(classical=verdict), derived._replace(classical=verdict)
