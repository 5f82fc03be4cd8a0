"""The alternating-coefficient 2-orthogonal family and its case studies.

The source family has structure coefficients constant modulo two,

    beta_{2n} = -(p + beta),   beta_{2n+1} = beta,
    chi_{2n,2n} = alpha_1,     chi_{2n+1,2n+1} = alpha_2,
    chi_{n,n-1} = (-1)^n gamma   (gamma != 0),

and is decomposed with the quadratic map x^2 + p x + q anchored at a.
Nine parameter regimes (case ids) are distinguished; each carries a set
of closed-form expectations: structure-coefficient tables for the
components of the decomposition and for some of their derivative
sequences, nullity and coincidence claims, secondary degree offsets and
leading coefficients. This module owns the family constructors, the
case predicates and every closed-form table; running the engine against
these expectations happens in `verification`.

Perturbed variants (first one or two coefficients replaced):

* co:       beta_0 = tau,
* pert2-I:  beta_0 = tau, chi_{0,0} = alpha_1 eta_1,
            chi_{1,1} = alpha_2 eta_2, chi_{1,0} = -gamma xi,
* pert2-II: beta_0 = tau_1, beta_1 = tau_2.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, TypeAlias

from .decomposition import QuadMap, _mixed_scalars
from .errors import DegenerateCaseError, DispatchError, RegularityError
from .sequences import BandedRule
from .wire import Wire

Scalar = Fraction | int

CASE_IDS = (
    "I",
    "I-alpha2zero",
    "II",
    "II-alpha2zero",
    "co-I",
    "co-II",
    "pert2-I",
    "pert2-I-tau-a",
    "pert2-II",
)


@dataclass(frozen=True)
class CaseParams(Wire):
    """One rational parameter tuple for the family and its map."""

    beta: Fraction
    alpha1: Fraction
    alpha2: Fraction
    gamma: Fraction
    p: Fraction
    q: Fraction
    a: Fraction
    tau: Fraction | None = None
    tau1: Fraction | None = None
    tau2: Fraction | None = None
    eta1: Fraction | None = None
    eta2: Fraction | None = None
    xi: Fraction | None = None

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None:
                object.__setattr__(self, f.name, Fraction(v))


# the perturbation parameters, in the order flags and messages list them
PERTURBATION_FIELDS = ("tau", "tau1", "tau2", "eta1", "eta2", "xi")


def _main_coefficients(pr: CaseParams) -> tuple[Callable[[int], Fraction], ...]:
    """beta, alpha and gamma of the unperturbed family, in the indexing
    of `BandedRule.two_orthogonal`."""
    if pr.gamma == 0:
        raise RegularityError("gamma must be nonzero")
    return (
        lambda n: pr.beta if n % 2 else -(pr.p + pr.beta),
        lambda m: pr.alpha1 if m % 2 else pr.alpha2,
        lambda m: (-pr.gamma) if m % 2 else pr.gamma,
    )


def family_main(pr: CaseParams) -> BandedRule:
    """The unperturbed alternating-coefficient family."""
    return BandedRule.two_orthogonal(*_main_coefficients(pr))


def _require_fields(family: str, pr: CaseParams, what: str) -> None:
    for name, missing in field_mismatches(family, pr):
        if missing:
            raise DispatchError(f"{what} needs {name}")


def family_corecursive(pr: CaseParams) -> BandedRule:
    """Same family with beta_0 replaced by tau."""
    _require_fields("corecursive", pr, "co-recursive family")
    base = family_main(pr)
    if pr.tau + pr.p + pr.beta == 0:
        raise DegenerateCaseError("tau = -p - beta reproduces the unperturbed family")
    return BandedRule(
        d=2,
        beta=lambda n: pr.tau if n == 0 else base.beta(n),
        bands=base.bands,
    )


def family_pert2_I(pr: CaseParams) -> BandedRule:
    """Order-two perturbation scaling the first chi entries."""
    _require_fields("pert2-I", pr, "order-two perturbation (I)")
    base = family_main(pr)
    if pr.xi == 0:
        raise RegularityError("xi = 0 breaks the regularity band at index 1")
    if pr.eta1 == 0 or pr.eta2 == 0:
        raise DegenerateCaseError("eta scales must be nonzero")
    scale = {1: pr.eta1, 2: pr.eta2}

    def alpha_band(n: int) -> Fraction:
        v = base.bands[0](n)
        return v * scale[n + 1] if n + 1 in scale else v

    def gamma_band(n: int) -> Fraction:
        v = base.bands[1](n)
        return v * pr.xi if n == 1 else v

    return BandedRule(
        d=2,
        beta=lambda n: pr.tau if n == 0 else base.beta(n),
        bands=(alpha_band, gamma_band),
    )


def family_pert2_II(pr: CaseParams) -> BandedRule:
    """Order-two perturbation replacing beta_0 and beta_1."""
    _require_fields("pert2-II", pr, "order-two perturbation (II)")
    base = family_main(pr)
    if pr.tau1 + pr.p + pr.beta == 0:
        raise DegenerateCaseError("tau1 = -p - beta reproduces the unperturbed beta_0")
    if pr.tau2 == pr.beta:
        raise DegenerateCaseError("tau2 = beta reproduces the unperturbed beta_1")
    first = {0: pr.tau1, 1: pr.tau2}
    return BandedRule(
        d=2,
        beta=lambda n: first[n] if n in first else base.beta(n),
        bands=base.bands,
    )


# each family's constructor and the perturbation fields it takes
FAMILIES: dict[str, tuple[Callable[[CaseParams], BandedRule], tuple[str, ...]]] = {
    "main": (family_main, ()),
    "corecursive": (family_corecursive, ("tau",)),
    "pert2-I": (family_pert2_I, ("tau", "eta1", "eta2", "xi")),
    "pert2-II": (family_pert2_II, ("tau1", "tau2")),
}


def field_mismatches(family: str, pr: CaseParams) -> list[tuple[str, bool]]:
    """The perturbation fields of `pr` that do not fit `family`, in
    PERTURBATION_FIELDS order: (name, True) for one the family takes and
    `pr` lacks, (name, False) for one `pr` has and the family does not take."""
    takes = FAMILIES[family][1]
    return [
        (name, name in takes)
        for name in PERTURBATION_FIELDS
        if (getattr(pr, name) is None) == (name in takes)
    ]


# closed-form structure-coefficient tables ---------------------------------

def _std_beta(pr: CaseParams) -> Fraction:
    return pr.q + pr.alpha1 + pr.alpha2 + (pr.p + pr.beta) * pr.beta


def _std_alpha(pr: CaseParams) -> Fraction:
    return pr.alpha1 * pr.alpha2 + pr.gamma * (pr.p + 2 * pr.beta)


def _std_gamma(pr: CaseParams) -> Fraction:
    return pr.gamma * pr.gamma


def _derivative_alpha_weight(n: int) -> Fraction:
    return Fraction(n * (n + 3), (n + 1) * (n + 2))


def _derivative_gamma_weight(n: int) -> Fraction:
    return Fraction(n * (n + 5), (n + 2) * (n + 3))


def _table(
    beta0: Fraction,
    beta_rest: Fraction,
    alpha_fn: Callable[[int], Fraction],
    gamma_fn: Callable[[int], Fraction],
    beta1: Fraction | None = None,
) -> BandedRule:
    def beta(n: int) -> Fraction:
        if n == 0:
            return beta0
        if n == 1 and beta1 is not None:
            return beta1
        return beta_rest

    return BandedRule.two_orthogonal(beta=beta, alpha=alpha_fn, gamma=gamma_fn)


def _const(v: Fraction) -> Callable[[int], Fraction]:
    return lambda n: v


def _first_then(v1: Fraction, rest: Fraction) -> Callable[[int], Fraction]:
    return lambda n: v1 if n == 1 else rest


def _nonzero(value: Fraction, name: str) -> Fraction:
    if value == 0:
        raise DegenerateCaseError(f"denominator {name} vanishes")
    return value


def _table_principal_even(pr: CaseParams) -> BandedRule:
    return _table(
        pr.q + pr.alpha1 + (pr.p + pr.beta) * pr.beta,
        _std_beta(pr),
        _const(_std_alpha(pr)),
        _const(_std_gamma(pr)),
    )


def _table_principal_odd(pr: CaseParams) -> BandedRule:
    return _table(
        _std_beta(pr), _std_beta(pr), _const(_std_alpha(pr)), _const(_std_gamma(pr))
    )


def _table_principal_odd_derivative(pr: CaseParams) -> BandedRule:
    av, gv = _std_alpha(pr), _std_gamma(pr)
    return _table(
        _std_beta(pr),
        _std_beta(pr),
        lambda n: _derivative_alpha_weight(n) * av,
        lambda n: _derivative_gamma_weight(n) * gv,
    )


def _table_secondary_odd_main(pr: CaseParams) -> BandedRule:
    den = _nonzero(pr.a + pr.p + pr.beta, "a + p + beta")
    s = pr.p + pr.beta
    beta0 = (
        pr.q
        + pr.alpha1
        + pr.alpha2
        + (pr.a * pr.beta * s + pr.beta * s * s - pr.gamma) / den
    )
    return _table(beta0, _std_beta(pr), _const(_std_alpha(pr)), _const(_std_gamma(pr)))


def _table_principal_even_co(pr: CaseParams) -> BandedRule:
    beta0 = (
        pr.a * pr.p
        + pr.q
        + pr.alpha1
        + pr.a * pr.beta
        + pr.a * pr.tau
        - pr.beta * pr.tau
    )
    alpha1 = pr.alpha1 * pr.alpha2 + pr.gamma * (pr.beta - pr.tau)
    return _table(
        beta0,
        _std_beta(pr),
        _first_then(alpha1, _std_alpha(pr)),
        _const(_std_gamma(pr)),
    )


def _table_secondary_odd_co(pr: CaseParams) -> BandedRule:
    den = _nonzero(pr.a - pr.tau, "a - tau")
    beta0 = (
        pr.q
        + pr.alpha2
        + pr.p * pr.beta
        + pr.beta * pr.beta
        + (pr.alpha1 * (pr.a + pr.p + pr.beta) - pr.gamma) / den
    )
    return _table(beta0, _std_beta(pr), _const(_std_alpha(pr)), _const(_std_gamma(pr)))


def _table_principal_even_p2I(pr: CaseParams) -> BandedRule:
    beta0 = (
        pr.a * pr.p
        + pr.q
        + pr.a * pr.beta
        + pr.alpha1 * pr.eta1
        + (pr.a - pr.beta) * pr.tau
    )
    beta1 = (
        pr.q + pr.alpha1 + (pr.p + pr.beta) * pr.beta + pr.alpha2 * pr.eta2
    )
    alpha1 = (
        pr.a * pr.gamma
        + pr.alpha1 * pr.alpha2 * pr.eta1 * pr.eta2
        + pr.gamma * pr.xi * (pr.beta - pr.a)
        - pr.gamma * pr.tau
    )
    gamma1 = pr.gamma * (
        pr.a * pr.alpha2
        - pr.a * pr.alpha2 * pr.eta2
        + pr.gamma * pr.xi
        - pr.alpha2 * pr.tau
        + pr.alpha2 * pr.eta2 * pr.tau
    )
    return _table(
        beta0,
        _std_beta(pr),
        _first_then(alpha1, _std_alpha(pr)),
        _first_then(gamma1, _std_gamma(pr)),
        beta1=beta1,
    )


def _table_principal_odd_p2I(pr: CaseParams) -> BandedRule:
    beta0 = (
        pr.q
        + (pr.p + pr.beta) * pr.beta
        + pr.alpha1 * pr.eta1
        + pr.alpha2 * pr.eta2
    )
    alpha1 = pr.gamma * (pr.p + 2 * pr.beta) + pr.alpha1 * pr.alpha2 * pr.eta2
    return _table(
        beta0,
        _std_beta(pr),
        _first_then(alpha1, _std_alpha(pr)),
        _const(_std_gamma(pr)),
    )


def _table_secondary_even_p2I(pr: CaseParams) -> BandedRule:
    den = _nonzero(pr.p + pr.beta + pr.tau, "p + beta + tau")
    beta0 = (
        pr.q
        + pr.alpha1
        + pr.alpha2 * pr.eta2
        + (
            pr.p * pr.beta * (pr.p + 2 * pr.beta)
            + pr.beta**3
            - pr.gamma
            + pr.gamma * pr.xi
            + pr.tau * (pr.p * pr.beta + pr.beta * pr.beta)
        )
        / den
    )
    alpha1 = pr.alpha1 * pr.alpha2 + pr.gamma * (
        pr.p * pr.p
        - pr.alpha2
        + 3 * pr.p * pr.beta
        + 2 * pr.beta * pr.beta
        + pr.alpha2 * pr.eta2
        + pr.tau * (pr.p + 2 * pr.beta)
    ) / den
    return _table(
        beta0,
        _std_beta(pr),
        _first_then(alpha1, _std_alpha(pr)),
        _const(_std_gamma(pr)),
    )


def _table_secondary_odd_p2I(pr: CaseParams) -> BandedRule:
    den = _nonzero(pr.a - pr.tau, "a - tau")
    beta0 = (
        pr.q
        + pr.p * pr.beta
        + pr.beta * pr.beta
        + pr.alpha2 * pr.eta2
        + (pr.alpha1 * pr.eta1 * (pr.a + pr.p + pr.beta) - pr.gamma * pr.xi) / den
    )
    alpha1 = (
        pr.gamma * (pr.p + 2 * pr.beta)
        + pr.alpha1 * pr.alpha2 * pr.eta2
        + pr.gamma * pr.alpha1 * (pr.eta1 - pr.xi) / den
    )
    return _table(
        beta0,
        _std_beta(pr),
        _first_then(alpha1, _std_alpha(pr)),
        _const(_std_gamma(pr)),
    )


def _table_principal_even_p2II(pr: CaseParams) -> BandedRule:
    beta0 = (
        pr.a * pr.p
        + pr.q
        + pr.alpha1
        + pr.a * (pr.tau1 + pr.tau2)
        - pr.tau1 * pr.tau2
    )
    alpha1 = (
        pr.alpha1 * pr.alpha2
        - pr.a * pr.alpha2 * pr.beta
        + pr.beta * pr.gamma
        + pr.alpha2 * pr.beta * pr.tau1
        - pr.gamma * pr.tau1
        + pr.alpha2 * pr.tau2 * (pr.a - pr.tau1)
    )
    return _table(
        beta0,
        _std_beta(pr),
        _first_then(alpha1, _std_alpha(pr)),
        _const(_std_gamma(pr)),
    )


def _table_principal_odd_p2II(pr: CaseParams) -> BandedRule:
    beta0 = (
        pr.q
        + pr.alpha1
        + pr.alpha2
        + pr.beta * (pr.p + pr.tau1 + pr.tau2)
        - pr.tau1 * pr.tau2
    )
    alpha1 = pr.alpha1 * pr.alpha2 + pr.gamma * (pr.p + pr.beta + pr.tau2)
    return _table(
        beta0,
        _std_beta(pr),
        _first_then(alpha1, _std_alpha(pr)),
        _const(_std_gamma(pr)),
    )


def _table_secondary_even_p2II(pr: CaseParams) -> BandedRule:
    den = _nonzero(pr.p + pr.tau1 + pr.tau2, "p + tau1 + tau2")
    beta0 = (
        pr.q
        + pr.alpha1
        + (
            pr.alpha2 * (pr.p + pr.tau1 + pr.beta)
            + pr.p * pr.p * pr.beta
            + pr.p * pr.beta * pr.beta
            + (pr.tau1 + pr.tau2) * (pr.p * pr.beta + pr.beta * pr.beta)
        )
        / den
    )
    return _table(
        beta0, _std_beta(pr), _const(_std_alpha(pr)), _const(_std_gamma(pr))
    )


def _table_secondary_odd_p2II(pr: CaseParams) -> BandedRule:
    den = _nonzero(pr.a + pr.beta - pr.tau1 - pr.tau2, "a + beta - tau1 - tau2")
    beta0 = (
        pr.q
        + (
            pr.a * (pr.alpha1 + pr.alpha2)
            + pr.p * (pr.alpha1 + pr.a * pr.beta)
            + pr.beta * pr.alpha1
            - pr.gamma
            + pr.a * pr.beta * (pr.tau1 + pr.tau2)
            - pr.tau1 * pr.alpha2
            - pr.tau1 * pr.tau2 * (pr.a + pr.p + pr.beta)
        )
        / den
    )
    alpha1 = (
        (pr.a - pr.tau1)
        * (pr.alpha1 * pr.alpha2 + pr.gamma * (pr.p + pr.beta + pr.tau2))
        / den
    )
    gamma1 = pr.gamma * pr.gamma * (pr.a - pr.tau1) / den
    return _table(
        beta0,
        _std_beta(pr),
        _first_then(alpha1, _std_alpha(pr)),
        _first_then(gamma1, _std_gamma(pr)),
    )


_TABLES: dict[tuple[str, str], Callable[[CaseParams], BandedRule]] = {
    ("I", "P"): _table_principal_even,
    ("I", "R"): _table_principal_odd,
    ("I", "B"): _table_secondary_odd_main,
    ("I", "R1"): _table_principal_odd_derivative,
    ("I-alpha2zero", "P"): _table_principal_even,
    ("I-alpha2zero", "R"): _table_principal_odd,
    ("I-alpha2zero", "B"): _table_secondary_odd_main,
    ("I-alpha2zero", "R1"): _table_principal_odd_derivative,
    ("I-alpha2zero", "P1"): _table_principal_odd_derivative,
    ("II", "P"): _table_principal_even,
    ("II", "R"): _table_principal_odd,
    ("II", "R1"): _table_principal_odd_derivative,
    ("II-alpha2zero", "P"): _table_principal_even,
    ("II-alpha2zero", "R"): _table_principal_odd,
    ("II-alpha2zero", "R1"): _table_principal_odd_derivative,
    ("II-alpha2zero", "P1"): _table_principal_odd_derivative,
    ("co-I", "P"): _table_principal_even_co,
    ("co-I", "R"): _table_principal_odd,
    ("co-I", "A"): _table_principal_odd,
    ("co-I", "B"): _table_secondary_odd_co,
    ("co-I", "R1"): _table_principal_odd_derivative,
    ("co-II", "P"): _table_principal_even_co,
    ("co-II", "R"): _table_principal_odd,
    ("co-II", "A"): _table_principal_odd,
    ("co-II", "R1"): _table_principal_odd_derivative,
    ("pert2-I", "P"): _table_principal_even_p2I,
    ("pert2-I", "R"): _table_principal_odd_p2I,
    ("pert2-I", "A"): _table_secondary_even_p2I,
    ("pert2-I", "B"): _table_secondary_odd_p2I,
    ("pert2-I-tau-a", "P"): _table_principal_even_p2I,
    ("pert2-I-tau-a", "R"): _table_principal_odd_p2I,
    ("pert2-I-tau-a", "A"): _table_secondary_even_p2I,
    ("pert2-II", "P"): _table_principal_even_p2II,
    ("pert2-II", "R"): _table_principal_odd_p2II,
    ("pert2-II", "A"): _table_secondary_even_p2II,
    ("pert2-II", "B"): _table_secondary_odd_p2II,
}


def expected_sc(case_id: str, component: str, pr: CaseParams) -> BandedRule:
    """Closed-form structure-coefficient table claimed for one component."""
    try:
        builder = _TABLES[(case_id, component)]
    except KeyError:
        raise DispatchError(
            f"no closed-form table for component {component!r} in case {case_id!r}"
        ) from None
    return builder(pr)


# case predicates and dispatch ---------------------------------------------

def _violations(case_id: str, pr: CaseParams) -> list[str]:
    """Names of the case predicates violated by these parameters."""
    bad: list[str] = []
    if pr.gamma == 0:
        bad.append("gamma = 0")

    for name, missing in field_mismatches(_CLAIMS[case_id].family, pr):
        if missing:
            bad.append(f"{name} missing")
        else:
            bad.append(f"{name} is not a parameter of case {case_id}")
    if bad:
        return bad

    s = pr.p + pr.beta + pr.a  # zero exactly on the p = -beta - a hyperplane
    if case_id in ("I", "I-alpha2zero"):
        if s == 0:
            bad.append("p = -beta - a")
    if case_id in ("II", "II-alpha2zero"):
        if s != 0:
            bad.append("p != -beta - a")
    if case_id in ("I", "II"):
        if pr.alpha2 == 0:
            bad.append("alpha2 = 0")
    if case_id in ("I-alpha2zero", "II-alpha2zero"):
        if pr.alpha2 != 0:
            bad.append("alpha2 != 0")
    if case_id in ("co-I", "co-II", "pert2-I", "pert2-I-tau-a"):
        if pr.tau + pr.p + pr.beta == 0:
            bad.append("tau = -p - beta")
    if case_id in ("co-I", "pert2-I"):
        if pr.tau == pr.a:
            bad.append("tau = a")
    if case_id in ("co-II", "pert2-I-tau-a"):
        if pr.tau != pr.a:
            bad.append("tau != a")
    if case_id == "co-II":
        if pr.gamma - pr.alpha1 * (pr.a + pr.p + pr.beta) == 0:
            bad.append("gamma = alpha1 (a + p + beta)")
    if case_id in ("pert2-I", "pert2-I-tau-a"):
        if pr.eta1 == 0:
            bad.append("eta1 = 0")
        if pr.eta2 == 0:
            bad.append("eta2 = 0")
        if pr.xi == 0:
            bad.append("xi = 0")
        # the closed-form table of R (of A) equals the unperturbed one,
        # so R1 (A1) is classical after all
        a1, a2 = pr.alpha1, pr.alpha2
        if a1 * pr.eta1 + a2 * pr.eta2 == a1 + a2 and a1 * a2 * pr.eta2 == a1 * a2:
            bad.append(
                "alpha1 eta1 + alpha2 eta2 = alpha1 + alpha2 and"
                " alpha1 alpha2 eta2 = alpha1 alpha2 (R unperturbed)"
            )
        if a2 * pr.eta2 == a2 and pr.xi == 1:
            bad.append("alpha2 eta2 = alpha2 and xi = 1 (A unperturbed)")
    if case_id == "pert2-I-tau-a":
        if pr.gamma * pr.xi - pr.alpha1 * (pr.a + pr.p + pr.beta) * pr.eta1 == 0:
            bad.append("gamma xi = alpha1 (a + p + beta) eta1")
    if case_id == "pert2-II":
        if pr.tau1 + pr.p + pr.beta == 0:
            bad.append("tau1 = -p - beta")
        if pr.tau2 == pr.beta:
            bad.append("tau2 = beta")
        if pr.tau1 == pr.a:
            bad.append("tau1 = a")
        if pr.tau1 + pr.tau2 == pr.a + pr.beta:
            bad.append("tau1 + tau2 = a + beta")
        if pr.tau1 + pr.tau2 == -pr.p:
            bad.append("tau1 + tau2 = -p")
    return bad


def dispatch_case(pr: CaseParams) -> str:
    """Name the case these parameters fall into, or raise naming the
    degenerate constraint that excludes all nine."""
    if pr.gamma == 0:
        raise DegenerateCaseError("gamma = 0")
    if pr.tau1 is not None or pr.tau2 is not None:
        candidate = "pert2-II"
    elif any(v is not None for v in (pr.eta1, pr.eta2, pr.xi)):
        candidate = "pert2-I-tau-a" if pr.tau == pr.a else "pert2-I"
    elif pr.tau is not None:
        candidate = "co-II" if pr.tau == pr.a else "co-I"
    elif pr.p + pr.beta + pr.a == 0:
        candidate = "II-alpha2zero" if pr.alpha2 == 0 else "II"
    else:
        candidate = "I-alpha2zero" if pr.alpha2 == 0 else "I"
    bad = _violations(candidate, pr)
    if bad:
        raise DegenerateCaseError(f"near case {candidate}: {'; '.join(bad)}")
    return candidate


def require_case(case_id: str, pr: CaseParams) -> None:
    """Check the parameters against one claimed case id."""
    if case_id not in CASE_IDS:
        raise DispatchError(
            f"unknown case {case_id!r}; expected one of {', '.join(CASE_IDS)}"
        )
    bad = _violations(case_id, pr)
    if bad:
        raise DispatchError(f"case {case_id}: {'; '.join(bad)}")


# per-case claim sets --------------------------------------------------------

# kept a string: a subscripted alias would sit in typing's cache and pin
# this module, and all it imports, across a purge and re-import
LeadingFn: TypeAlias = "Callable[[CaseParams], Callable[[int], Fraction]]"


def _lead_const(expr: Callable[[CaseParams], Fraction]) -> LeadingFn:
    return lambda pr: (lambda n, v=expr(pr): v)


_LEADINGS: dict[tuple[str, str], LeadingFn] = {
    ("II", "Bbar"): _lead_const(lambda pr: pr.gamma),
    ("II-alpha2zero", "Bbar"): _lead_const(lambda pr: pr.gamma),
    ("co-I", "A"): _lead_const(lambda pr: -pr.p - pr.beta - pr.tau),
    ("co-I", "B"): _lead_const(lambda pr: pr.a - pr.tau),
    ("co-II", "A"): _lead_const(lambda pr: -pr.p - pr.beta - pr.tau),
    ("co-II", "Bbar"): _lead_const(
        lambda pr: pr.gamma - pr.alpha1 * (pr.a + pr.p + pr.beta)
    ),
    ("pert2-I", "A"): _lead_const(lambda pr: -pr.p - pr.beta - pr.tau),
    ("pert2-I", "B"): _lead_const(lambda pr: pr.a - pr.tau),
    ("pert2-I-tau-a", "A"): _lead_const(lambda pr: -pr.p - pr.beta - pr.tau),
    ("pert2-I-tau-a", "b"): _lead_const(
        lambda pr: pr.gamma * pr.xi
        - pr.alpha1 * (pr.a + pr.p + pr.beta) * pr.eta1
    ),
    ("pert2-II", "A"): _lead_const(lambda pr: -pr.p - pr.tau1 - pr.tau2),
    ("pert2-II", "B"): lambda pr: (
        lambda n: pr.a - pr.tau1
        if n == 0
        else pr.a + pr.beta - pr.tau1 - pr.tau2
    ),
}


@dataclass(frozen=True)
class CaseClaims:
    """Everything one case promises about its decomposition."""

    family: str
    null_components: tuple[str, ...]
    tables: tuple[str, ...]
    sweeps: tuple[str, ...]
    not_classical: tuple[str, ...]
    coincide: tuple[tuple[str, str], ...]
    secondary_offsets: tuple[tuple[str, int], ...]
    odd_rebuild_with_gamma: bool
    corecursive_pair: tuple[str, str] | None
    third_order_grace: int

    @property
    def constructor(self) -> Callable[[CaseParams], BandedRule]:
        return FAMILIES[self.family][0]


_CLAIMS: dict[str, CaseClaims] = {
    "I": CaseClaims(
        family="main",
        null_components=("a",),
        tables=("P", "R", "B", "R1"),
        sweeps=("P1", "B1"),
        not_classical=(),
        coincide=(),
        secondary_offsets=(("B", 0),),
        odd_rebuild_with_gamma=False,
        corecursive_pair=None,
        third_order_grace=1,
    ),
    "I-alpha2zero": CaseClaims(
        family="main",
        null_components=("a",),
        tables=("P", "R", "B", "R1", "P1"),
        sweeps=("B1",),
        not_classical=(),
        coincide=(("P", "R"), ("P1", "R1")),
        secondary_offsets=(("B", 0),),
        odd_rebuild_with_gamma=False,
        corecursive_pair=None,
        third_order_grace=1,
    ),
    "II": CaseClaims(
        family="main",
        null_components=("a",),
        tables=("P", "R", "R1"),
        sweeps=("P1",),
        not_classical=(),
        coincide=(("Bbar", "R"), ("Bbar1", "R1")),
        secondary_offsets=(("Bbar", 1),),
        odd_rebuild_with_gamma=True,
        corecursive_pair=("P", "R"),
        third_order_grace=1,
    ),
    "II-alpha2zero": CaseClaims(
        family="main",
        null_components=("a",),
        tables=("P", "R", "R1", "P1"),
        sweeps=(),
        not_classical=(),
        coincide=(("P", "R"), ("P1", "R1"), ("Bbar", "R"), ("Bbar1", "R1")),
        secondary_offsets=(("Bbar", 1),),
        odd_rebuild_with_gamma=True,
        corecursive_pair=None,
        third_order_grace=1,
    ),
    "co-I": CaseClaims(
        family="corecursive",
        null_components=(),
        tables=("P", "R", "A", "B", "R1"),
        sweeps=("P1", "B1"),
        not_classical=(),
        coincide=(("A", "R"), ("A1", "R1")),
        secondary_offsets=(("A", 0), ("B", 0)),
        odd_rebuild_with_gamma=False,
        corecursive_pair=None,
        third_order_grace=2,
    ),
    "co-II": CaseClaims(
        family="corecursive",
        null_components=(),
        tables=("P", "R", "A", "R1"),
        sweeps=("P1",),
        not_classical=(),
        coincide=(("A", "R"), ("A1", "R1"), ("Bbar", "R"), ("Bbar1", "R1")),
        secondary_offsets=(("A", 0), ("Bbar", 1)),
        odd_rebuild_with_gamma=False,
        corecursive_pair=None,
        third_order_grace=2,
    ),
    "pert2-I": CaseClaims(
        family="pert2-I",
        null_components=(),
        tables=("P", "R", "A", "B"),
        sweeps=(),
        not_classical=("P1", "R1", "A1", "B1"),
        coincide=(),
        secondary_offsets=(("A", 0), ("B", 0)),
        odd_rebuild_with_gamma=False,
        corecursive_pair=None,
        third_order_grace=4,
    ),
    "pert2-I-tau-a": CaseClaims(
        family="pert2-I",
        null_components=(),
        tables=("P", "R", "A"),
        sweeps=(),
        not_classical=("P1", "R1", "A1"),
        coincide=(),
        secondary_offsets=(("A", 0), ("b", 1)),
        odd_rebuild_with_gamma=False,
        corecursive_pair=None,
        third_order_grace=4,
    ),
    "pert2-II": CaseClaims(
        family="pert2-II",
        null_components=(),
        tables=("P", "R", "A", "B"),
        sweeps=(),
        not_classical=("P1", "R1", "A1", "B1"),
        coincide=(),
        secondary_offsets=(("A", 0), ("B", 0)),
        odd_rebuild_with_gamma=False,
        corecursive_pair=None,
        third_order_grace=3,
    ),
}


def case_claims(case_id: str) -> CaseClaims:
    try:
        return _CLAIMS[case_id]
    except KeyError:
        raise DispatchError(
            f"unknown case {case_id!r}; expected one of {', '.join(CASE_IDS)}"
        ) from None


def expected_leading(case_id: str, component: str, pr: CaseParams):
    """Closed-form leading-coefficient rule, None when no closed form is tabulated."""
    fn = _LEADINGS.get((case_id, component))
    return None if fn is None else fn(pr)


# family-level identities ----------------------------------------------------

def partner_term_cancellations(
    pr: CaseParams, count: int
) -> list[tuple[str, int, Fraction]]:
    """Evaluate the six expressions that silence the partner terms of the
    mixed relations for the unperturbed family; returns nonzero hits."""
    qmap = QuadMap(pr.p, pr.q, pr.a)
    coefficients = _main_coefficients(pr)

    def partner(k: int) -> tuple[Callable[[], Fraction], ...]:
        # the weights of Y_+, Y_0 and Y_- in the relation at band index k
        return _mixed_scalars(qmap, *coefficients, k)[3:]

    checks: list[tuple[str, int, Callable[[], Fraction]]] = []
    for n in range(count + 1):
        even, odd = partner(2 * n + 2), partner(2 * n + 1)
        checks += [
            ("p+beta(2n+3)+beta(2n+2)", n, even[0]),
            ("p+beta(2n+2)+beta(2n+1)", n, odd[0]),
            (
                "gamma(2n+2)+gamma(2n+1)+alpha(2n+2)(p+beta(2n+2)+beta(2n+1))",
                n,
                even[1],
            ),
        ]
    for n in range(1, count + 1):
        even, odd = partner(2 * n + 2), partner(2 * n + 1)
        checks += [
            ("gamma(2n+1)+gamma(2n)+alpha(2n+1)(p+beta(2n+1)+beta(2n))", n, odd[1]),
            ("alpha(2n+2)gamma(2n)+gamma(2n+1)alpha(2n)", n, even[2]),
            ("alpha(2n+1)gamma(2n-1)+gamma(2n)alpha(2n-1)", n, odd[2]),
        ]
    return [(label, n, v) for label, n, scalar in checks if (v := scalar()) != 0]


def closing_identity_residual(pr: CaseParams) -> Fraction:
    """Difference between the recurrence head constant written two ways:
    omega(a) - (a - beta)(a + p + beta) versus q + (p + beta) beta."""
    omega_a = pr.a * pr.a + pr.p * pr.a + pr.q
    lhs = omega_a - (pr.a - pr.beta) * (pr.a + pr.p + pr.beta)
    rhs = pr.q + (pr.p + pr.beta) * pr.beta
    return lhs - rhs
