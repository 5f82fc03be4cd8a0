"""Independent check of a `decompose` report by exact point evaluation.

The check never touches `quadmps.Poly` or either decomposition engine.
It evaluates W_m(x) at a few rational points with the scalar recurrence

    W_0 = 1,  W_1 = x - beta_0,
    W_{n+2} = (x - beta_{n+1}) W_{n+1} - sum_nu chi_{n,nu} W_nu,

and each component of the report at y = omega(x) with a Fraction Horner
scheme, then demands

    W_{2n}(x)   == P_n(y) + (x - a) a_{n-1}(y),
    W_{2n+1}(x) == b_n(y) + (x - a) R_n(y),

together with the degree shape that makes the split unique (P_n, R_n
monic of degree n, deg a_{n-1} <= n - 1, deg b_n <= n).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

# row n of the chi table as (nu, value) pairs with value != 0
ChiRow = Callable[[int], list[tuple[int, Fraction]]]
BetaAt = Callable[[int], Fraction]


def family_coefficients(family: str, params: dict[str, Fraction]) -> tuple[BetaAt, ChiRow]:
    """Structure coefficients of the source family and its modifications.

    Written from the family's definition (beta_{2n} = -(p + beta),
    beta_{2n+1} = beta, chi_{2n,2n} = alpha_1, chi_{2n+1,2n+1} = alpha_2,
    chi_{n,n-1} = (-1)^n gamma) and the perturbations of the first
    entries, independently of the package's own constructors.
    """
    pr = params
    first_beta: dict[int, Fraction] = {}
    scaled: dict[tuple[int, int], Fraction] = {}
    if family == "corecursive":
        first_beta = {0: pr["tau"]}
    elif family == "pert2-I":
        first_beta = {0: pr["tau"]}
        scaled = {(0, 0): pr["eta1"], (1, 1): pr["eta2"], (1, 0): pr["xi"]}
    elif family == "pert2-II":
        first_beta = {0: pr["tau1"], 1: pr["tau2"]}
    elif family != "main":
        raise ValueError(f"unknown family {family!r}")

    def beta(n: int) -> Fraction:
        if n in first_beta:
            return first_beta[n]
        return pr["beta"] if n % 2 else -(pr["p"] + pr["beta"])

    def chi_row(n: int) -> list[tuple[int, Fraction]]:
        diag = pr["alpha2"] if n % 2 else pr["alpha1"]
        entries = [(n, diag * scaled.get((n, n), 1))]
        if n >= 1:
            sub = -pr["gamma"] if n % 2 else pr["gamma"]
            entries.append((n - 1, sub * scaled.get((n, n - 1), 1)))
        return [(nu, v) for nu, v in entries if v]

    return beta, chi_row


def table_coefficients(table: dict) -> tuple[BetaAt, ChiRow]:
    """Structure coefficients read from an sc-file payload."""
    beta = [Fraction(b) for b in table["beta"]]
    rows = [
        [(nu, Fraction(c)) for nu, c in enumerate(row) if Fraction(c)]
        for row in table["chi"]
    ]
    return beta.__getitem__, rows.__getitem__


def mps_values(beta: BetaAt, chi_row: ChiRow, x: Fraction, mmax: int) -> list[Fraction]:
    """W_0(x) .. W_mmax(x) by the scalar three-or-more-term recurrence."""
    w = [Fraction(1), x - beta(0)]
    for n in range(mmax - 1):
        acc = (x - beta(n + 1)) * w[n + 1]
        for nu, c in chi_row(n):
            acc -= c * w[nu]
        w.append(acc)
    return w[: mmax + 1]


def horner(coeffs: list[Fraction], y: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def check_components(
    payload: dict,
    beta: BetaAt,
    chi_row: ChiRow,
    qmap: tuple[Fraction, Fraction, Fraction],
    points: list[Fraction],
) -> str | None:
    """None when the report is the decomposition, else the first defect."""
    p, q, a = qmap
    got_map = tuple(Fraction(payload["map"][k]) for k in ("p", "q", "a"))
    if got_map != qmap:
        return f"map {got_map} differs from the requested {qmap}"
    records = payload["components"]
    if [r["n"] for r in records] != list(range(payload["nmax"] + 1)):
        return "records are not n = 0..nmax in order"
    parsed = []
    for r in records:
        n = r["n"]
        P, A, B, R = ([Fraction(c) for c in r[k]] for k in ("P", "a_prev", "b", "R"))
        for name, seq in (("P", P), ("a_prev", A), ("b", B), ("R", R)):
            if seq and seq[-1] == 0:
                return f"{name}_{n} has a trailing zero coefficient"
        if len(P) != n + 1 or P[-1] != 1 or len(R) != n + 1 or R[-1] != 1:
            return f"P_{n} or R_{n} is not monic of degree {n}"
        if len(A) > n or len(B) > n + 1:
            return f"a_{n - 1} or b_{n} exceeds its degree bound"
        parsed.append((P, A, B, R))
    mmax = 2 * len(parsed) - 1
    for x in points:
        w = mps_values(beta, chi_row, x, mmax)
        y = x * x + p * x + q
        for n, (P, A, B, R) in enumerate(parsed):
            if w[2 * n] != horner(P, y) + (x - a) * horner(A, y):
                return f"W_{2 * n}({x}) does not match P_{n}, a_{n - 1}"
            if w[2 * n + 1] != horner(B, y) + (x - a) * horner(R, y):
                return f"W_{2 * n + 1}({x}) does not match b_{n}, R_{n}"
    return None
