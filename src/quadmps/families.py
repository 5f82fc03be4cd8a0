"""The alternating-coefficient 2-orthogonal family and its case studies.

The source family has structure coefficients constant modulo two,

    beta_{2n} = -(p + beta),   beta_{2n+1} = beta,
    chi_{2n,2n} = alpha_1,     chi_{2n+1,2n+1} = alpha_2,
    chi_{n,n-1} = (-1)^n gamma   (gamma != 0),

and is decomposed with the quadratic map x^2 + p x + q anchored at a.
Nine parameter regimes (case ids) are distinguished, and each is
written once, as a `CaseClaims` record:

* closed forms: a builder of the structure-coefficient table of each
  claimed component or derivative sequence (all but the derivative one
  are the constant table `_std_table` with its first entries replaced);
* secondaries: each secondary component with its degree offset and
  its leading-coefficient rule;
* pins: the equalities that define the case within its family
  (`p = -beta - a`, `alpha2 = 0`, `tau = a`);
* nullity, coincidence, classical-character and recurrence claims.

Each equality is written once, in the per-family table `_EQUATIONS`:
the pinnable equalities and the degeneracies beside them, in the order
the predicates report them. `require_case` checks a tuple against it,
and `verification.sample_params` sets the pinned fields when it draws.

Each family is written once, as a `FAMILIES` entry: the perturbation
fields it takes, its replaced entries of `_alternating_rule` (one per
perturbation parameter), and the `_EQUATIONS` it rejects. `build_family`
builds every family from it, and `family_main` and the three perturbed
constructors are its partials:

* co:       beta_0 = tau,
* pert2-I:  beta_0 = tau, chi_{0,0} = alpha_1 eta_1,
            chi_{1,1} = alpha_2 eta_2, chi_{1,0} = -gamma xi,
* pert2-II: beta_0 = tau_1, beta_1 = tau_2.

This module owns the families, the predicates and every closed form;
running the engine against them happens in `verification`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable

from .decomposition import QuadMap, _mixed_scalars
from .errors import DegenerateCaseError, DispatchError, RegularityError
from .rationals import to_fraction
from .sequences import BandedRule
from .wire import Record, Wire


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
        for name in self._fields:
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, to_fraction(v))


# the perturbation parameters, in the order flags and messages list them
PERTURBATION_FIELDS = ("tau", "tau1", "tau2", "eta1", "eta2", "xi")


def _alternating_rule(
    beta: tuple[Fraction, Fraction],
    alpha: tuple[Fraction, Fraction],
    gamma: tuple[Fraction, Fraction],
    replaced: dict[tuple[str, int], Fraction],
) -> BandedRule:
    """The 2-orthogonal rule whose beta, alpha and gamma, in the indexing
    of `BandedRule.two_orthogonal`, take the (even n, odd n) values of
    their pair, except the entries {(name, n): value} of `replaced`.
    Every family, and every closed form but the derivative one, is one."""

    def entry(name: str, pair: tuple[Fraction, Fraction]) -> Callable[[int], Fraction]:
        first = {n: v for (key, n), v in replaced.items() if key == name}
        return lambda n: first[n] if n in first else pair[n % 2]

    return BandedRule.two_orthogonal(
        entry("beta", beta), entry("alpha", alpha), entry("gamma", gamma)
    )


# the equalities that split each family into cases or bound its cases ----

class _Pin(Record):
    """The equality field = value(pr): a case may pin it, and a sampled
    tuple is put on it by setting that field."""

    field: str
    value: Callable[[CaseParams], Fraction]

    def __call__(self, pr: CaseParams) -> bool:
        return getattr(pr, self.field) == self.value(pr)


_TAU_EQUATIONS = (
    ("tau = -p - beta", lambda pr: pr.tau + pr.p + pr.beta == 0),
    ("tau = a", _Pin("tau", lambda pr: pr.a)),
)

# per family, in the order the predicates report them: a case must satisfy
# the equalities it pins (one that fails reports as "lhs != rhs") and
# avoid the others, and `build_family` raises on those the family rejects
_EQUATIONS: dict[str, tuple[tuple[str, Callable[[CaseParams], bool]], ...]] = {
    "main": (
        ("p = -beta - a", _Pin("p", lambda pr: -pr.beta - pr.a)),
        ("alpha2 = 0", _Pin("alpha2", lambda pr: Fraction(0))),
    ),
    "corecursive": _TAU_EQUATIONS,
    "pert2-I": _TAU_EQUATIONS + (
        ("eta1 = 0", lambda pr: pr.eta1 == 0),
        ("eta2 = 0", lambda pr: pr.eta2 == 0),
        ("xi = 0", lambda pr: pr.xi == 0),
        # the closed-form table of R (of A) equals the unperturbed one,
        # so R1 (A1) is classical after all
        (
            "alpha1 eta1 + alpha2 eta2 = alpha1 + alpha2 and"
            " alpha1 alpha2 eta2 = alpha1 alpha2 (R unperturbed)",
            lambda pr: pr.alpha1 * pr.eta1 + pr.alpha2 * pr.eta2
            == pr.alpha1 + pr.alpha2
            and pr.alpha1 * pr.alpha2 * pr.eta2 == pr.alpha1 * pr.alpha2,
        ),
        (
            "alpha2 eta2 = alpha2 and xi = 1 (A unperturbed)",
            lambda pr: pr.alpha2 * pr.eta2 == pr.alpha2 and pr.xi == 1,
        ),
    ),
    "pert2-II": (
        ("tau1 = -p - beta", lambda pr: pr.tau1 + pr.p + pr.beta == 0),
        ("tau2 = beta", lambda pr: pr.tau2 == pr.beta),
        ("tau1 = a", lambda pr: pr.tau1 == pr.a),
        ("tau1 + tau2 = a + beta", lambda pr: pr.tau1 + pr.tau2 == pr.a + pr.beta),
        ("tau1 + tau2 = -p", lambda pr: pr.tau1 + pr.tau2 == -pr.p),
    ),
}


# the families ---------------------------------------------------------------

class Family(Record):
    """The perturbation fields a family takes, its replaced entries of
    `_alternating_rule` at a tuple, and the `_EQUATIONS` it rejects."""

    fields: tuple[str, ...]
    replaced: Callable[[CaseParams], dict[tuple[str, int], Fraction]]
    rejects: tuple[str, ...] = ()


FAMILIES: dict[str, Family] = {
    "main": Family((), lambda pr: {}),
    "corecursive": Family(
        ("tau",), lambda pr: {("beta", 0): pr.tau}, ("tau = -p - beta",)
    ),
    "pert2-I": Family(
        ("tau", "eta1", "eta2", "xi"),
        lambda pr: {
            ("beta", 0): pr.tau,
            ("alpha", 1): pr.alpha1 * pr.eta1,
            ("alpha", 2): pr.alpha2 * pr.eta2,
            ("gamma", 1): -pr.gamma * pr.xi,
        },
        ("eta1 = 0", "eta2 = 0"),
    ),
    "pert2-II": Family(
        ("tau1", "tau2"),
        lambda pr: {("beta", 0): pr.tau1, ("beta", 1): pr.tau2},
        ("tau1 = -p - beta", "tau2 = beta"),
    ),
}


def build_family(family: str, pr: CaseParams) -> BandedRule:
    """The rule of `family` at `pr`. It reports, in this order, a missing
    perturbation field, a zero gamma, a replaced gamma entry that vanishes,
    and the equalities the family rejects, in `_EQUATIONS` order. A field
    the family does not take is ignored."""
    entry = FAMILIES[family]
    for name in entry.fields:
        if getattr(pr, name) is None:
            raise DispatchError(f"family {family} needs {name}")
    if pr.gamma == 0:
        raise RegularityError("gamma must be nonzero")
    replaced = entry.replaced(pr)
    for (name, n), value in replaced.items():
        if name == "gamma" and value == 0:
            raise RegularityError(f"family {family} has chi_{{{n},{n - 1}}} = 0")
    for text, holds in _EQUATIONS[family]:
        if text in entry.rejects and holds(pr):
            raise DegenerateCaseError(f"family {family} rejects {text}")
    beta, gamma = (-(pr.p + pr.beta), pr.beta), (pr.gamma, -pr.gamma)
    return _alternating_rule(beta, (pr.alpha2, pr.alpha1), gamma, replaced)


family_main = partial(build_family, "main")
family_corecursive = partial(build_family, "corecursive")
family_pert2_I = partial(build_family, "pert2-I")
family_pert2_II = partial(build_family, "pert2-II")


def field_mismatches(family: str, pr: CaseParams) -> list[tuple[str, bool]]:
    """The perturbation fields of `pr` that do not fit `family`, in
    PERTURBATION_FIELDS order: (name, True) for one the family takes and
    `pr` lacks, (name, False) for one `pr` has and the family does not take."""
    takes = FAMILIES[family].fields
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


def _std_table(pr: CaseParams, replaced: dict[tuple[str, int], Fraction]) -> BandedRule:
    """The constant table (_std_beta, _std_alpha, _std_gamma) with the
    entries `replaced` of `_alternating_rule`."""
    b, a, g = _std_beta(pr), _std_alpha(pr), _std_gamma(pr)
    return _alternating_rule((b, b), (a, a), (g, g), replaced)


def _nonzero(value: Fraction, name: str) -> Fraction:
    if value == 0:
        raise DegenerateCaseError(f"denominator {name} vanishes")
    return value


def _table_principal_even(pr: CaseParams) -> BandedRule:
    return _std_table(pr, {("beta", 0): pr.q + pr.alpha1 + (pr.p + pr.beta) * pr.beta})


def _table_principal_odd(pr: CaseParams) -> BandedRule:
    return _std_table(pr, {})


def _table_principal_odd_derivative(pr: CaseParams) -> BandedRule:
    bv, av, gv = _std_beta(pr), _std_alpha(pr), _std_gamma(pr)
    return BandedRule.two_orthogonal(
        beta=lambda n: bv,
        alpha=lambda n: _derivative_alpha_weight(n) * av,
        gamma=lambda n: _derivative_gamma_weight(n) * gv,
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
    return _std_table(pr, {("beta", 0): beta0})


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
    return _std_table(pr, {("beta", 0): beta0, ("alpha", 1): alpha1})


def _table_secondary_odd_co(pr: CaseParams) -> BandedRule:
    den = _nonzero(pr.a - pr.tau, "a - tau")
    beta0 = (
        pr.q
        + pr.alpha2
        + pr.p * pr.beta
        + pr.beta * pr.beta
        + (pr.alpha1 * (pr.a + pr.p + pr.beta) - pr.gamma) / den
    )
    return _std_table(pr, {("beta", 0): beta0})


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
    return _std_table(pr, {
        ("beta", 0): beta0, ("beta", 1): beta1,
        ("alpha", 1): alpha1, ("gamma", 1): gamma1,
    })


def _table_principal_odd_p2I(pr: CaseParams) -> BandedRule:
    beta0 = (
        pr.q
        + (pr.p + pr.beta) * pr.beta
        + pr.alpha1 * pr.eta1
        + pr.alpha2 * pr.eta2
    )
    alpha1 = pr.gamma * (pr.p + 2 * pr.beta) + pr.alpha1 * pr.alpha2 * pr.eta2
    return _std_table(pr, {("beta", 0): beta0, ("alpha", 1): alpha1})


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
    return _std_table(pr, {("beta", 0): beta0, ("alpha", 1): alpha1})


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
    return _std_table(pr, {("beta", 0): beta0, ("alpha", 1): alpha1})


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
    return _std_table(pr, {("beta", 0): beta0, ("alpha", 1): alpha1})


def _table_principal_odd_p2II(pr: CaseParams) -> BandedRule:
    beta0 = (
        pr.q
        + pr.alpha1
        + pr.alpha2
        + pr.beta * (pr.p + pr.tau1 + pr.tau2)
        - pr.tau1 * pr.tau2
    )
    alpha1 = pr.alpha1 * pr.alpha2 + pr.gamma * (pr.p + pr.beta + pr.tau2)
    return _std_table(pr, {("beta", 0): beta0, ("alpha", 1): alpha1})


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
    return _std_table(pr, {("beta", 0): beta0})


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
    return _std_table(
        pr, {("beta", 0): beta0, ("alpha", 1): alpha1, ("gamma", 1): gamma1}
    )


# closed-form leading coefficients of secondary components ------------------
# a rule maps a tuple and an index n to the leading coefficient at n

def _lead_a_tau(pr: CaseParams, n: int) -> Fraction:
    return -pr.p - pr.beta - pr.tau


def _lead_b_tau(pr: CaseParams, n: int) -> Fraction:
    return pr.a - pr.tau


def _lead_b_main(pr: CaseParams, n: int) -> Fraction:
    # the x^2n coefficient of W_2n+1 is -(beta_0 + ... + beta_2n)
    # = (n + 1) p + beta, of which (x - a) R_n(omega) carries n p - a;
    # cases I exclude p = -beta - a, where it vanishes
    return pr.a + pr.p + pr.beta


def _lead_bbar_main(pr: CaseParams, n: int) -> Fraction:
    return pr.gamma


# constant leading coefficients whose vanishing the case that claims them
# excludes by name: Bbar of co-II and b of pert2-I-tau-a
def _lead_bbar_co(pr: CaseParams, n: int) -> Fraction:
    return pr.gamma - pr.alpha1 * (pr.a + pr.p + pr.beta)


def _lead_b_p2i(pr: CaseParams, n: int) -> Fraction:
    return pr.gamma * pr.xi - pr.alpha1 * (pr.a + pr.p + pr.beta) * pr.eta1


# per-case claim sets --------------------------------------------------------

class CaseClaims(Record):
    """Everything one case promises about its decomposition, written once.

    * `closed_forms`: component name -> builder of its closed-form
      structure-coefficient table (`expected_sc`; `tables` lists the names);
    * `secondaries`: (name, degree offset, leading-coefficient rule) for
      each normalized secondary component;
    * `pins`: the equalities of `_EQUATIONS[family]` that define the case;
      the family's other equalities, and the case's own `excludes`, are
      degeneracies it must avoid.
    """

    family: str
    closed_forms: dict[str, Callable[[CaseParams], BandedRule]]
    null_components: tuple[str, ...] = ()
    sweeps: tuple[str, ...] = ()
    not_classical: tuple[str, ...] = ()
    coincide: tuple[tuple[str, str], ...] = ()
    secondaries: tuple[tuple[str, int, Callable[[CaseParams, int], Fraction]], ...] = ()
    pins: tuple[str, ...] = ()
    excludes: tuple[tuple[str, Callable[[CaseParams], bool]], ...] = ()
    odd_rebuild_with_gamma: bool = False
    corecursive_pair: tuple[str, str] | None = None
    third_order_grace: int = 1

    @property
    def constructor(self) -> Callable[[CaseParams], BandedRule]:
        return partial(build_family, self.family)

    @property
    def tables(self) -> tuple[str, ...]:
        return tuple(self.closed_forms)

    @property
    def pinned_fields(self) -> dict[str, Callable[[CaseParams], Fraction]]:
        """The field each pin sets, with the value that puts a tuple on it."""
        return {
            eq.field: eq.value
            for text, eq in _EQUATIONS[self.family]
            if text in self.pins
        }


_CLAIMS: dict[str, CaseClaims] = {
    "I": CaseClaims(
        family="main",
        closed_forms={
            "P": _table_principal_even,
            "R": _table_principal_odd,
            "B": _table_secondary_odd_main,
            "R1": _table_principal_odd_derivative,
        },
        null_components=("a",),
        sweeps=("P1", "B1"),
        secondaries=(("B", 0, _lead_b_main),),
    ),
    "I-alpha2zero": CaseClaims(
        family="main",
        closed_forms={
            "P": _table_principal_even,
            "R": _table_principal_odd,
            "B": _table_secondary_odd_main,
            "R1": _table_principal_odd_derivative,
            "P1": _table_principal_odd_derivative,
        },
        null_components=("a",),
        sweeps=("B1",),
        coincide=(("P", "R"), ("P1", "R1")),
        secondaries=(("B", 0, _lead_b_main),),
        pins=("alpha2 = 0",),
    ),
    "II": CaseClaims(
        family="main",
        closed_forms={
            "P": _table_principal_even,
            "R": _table_principal_odd,
            "R1": _table_principal_odd_derivative,
        },
        null_components=("a",),
        sweeps=("P1",),
        coincide=(("Bbar", "R"), ("Bbar1", "R1")),
        secondaries=(("Bbar", 1, _lead_bbar_main),),
        pins=("p = -beta - a",),
        odd_rebuild_with_gamma=True,
        corecursive_pair=("P", "R"),
    ),
    "II-alpha2zero": CaseClaims(
        family="main",
        closed_forms={
            "P": _table_principal_even,
            "R": _table_principal_odd,
            "R1": _table_principal_odd_derivative,
            "P1": _table_principal_odd_derivative,
        },
        null_components=("a",),
        coincide=(("P", "R"), ("P1", "R1"), ("Bbar", "R"), ("Bbar1", "R1")),
        secondaries=(("Bbar", 1, _lead_bbar_main),),
        pins=("p = -beta - a", "alpha2 = 0"),
        odd_rebuild_with_gamma=True,
    ),
    "co-I": CaseClaims(
        family="corecursive",
        closed_forms={
            "P": _table_principal_even_co,
            "R": _table_principal_odd,
            "A": _table_principal_odd,
            "B": _table_secondary_odd_co,
            "R1": _table_principal_odd_derivative,
        },
        sweeps=("P1", "B1"),
        coincide=(("A", "R"), ("A1", "R1")),
        secondaries=(("A", 0, _lead_a_tau), ("B", 0, _lead_b_tau)),
        third_order_grace=2,
    ),
    "co-II": CaseClaims(
        family="corecursive",
        closed_forms={
            "P": _table_principal_even_co,
            "R": _table_principal_odd,
            "A": _table_principal_odd,
            "R1": _table_principal_odd_derivative,
        },
        sweeps=("P1",),
        coincide=(("A", "R"), ("A1", "R1"), ("Bbar", "R"), ("Bbar1", "R1")),
        secondaries=(("A", 0, _lead_a_tau), ("Bbar", 1, _lead_bbar_co)),
        pins=("tau = a",),
        excludes=(
            ("gamma = alpha1 (a + p + beta)", lambda pr: _lead_bbar_co(pr, 0) == 0),
        ),
        third_order_grace=2,
    ),
    "pert2-I": CaseClaims(
        family="pert2-I",
        closed_forms={
            "P": _table_principal_even_p2I,
            "R": _table_principal_odd_p2I,
            "A": _table_secondary_even_p2I,
            "B": _table_secondary_odd_p2I,
        },
        not_classical=("P1", "R1", "A1", "B1"),
        secondaries=(("A", 0, _lead_a_tau), ("B", 0, _lead_b_tau)),
        third_order_grace=4,
    ),
    "pert2-I-tau-a": CaseClaims(
        family="pert2-I",
        closed_forms={
            "P": _table_principal_even_p2I,
            "R": _table_principal_odd_p2I,
            "A": _table_secondary_even_p2I,
        },
        not_classical=("P1", "R1", "A1"),
        secondaries=(("A", 0, _lead_a_tau), ("b", 1, _lead_b_p2i)),
        pins=("tau = a",),
        excludes=(
            (
                "gamma xi = alpha1 (a + p + beta) eta1",
                lambda pr: _lead_b_p2i(pr, 0) == 0,
            ),
        ),
        third_order_grace=4,
    ),
    "pert2-II": CaseClaims(
        family="pert2-II",
        closed_forms={
            "P": _table_principal_even_p2II,
            "R": _table_principal_odd_p2II,
            "A": _table_secondary_even_p2II,
            "B": _table_secondary_odd_p2II,
        },
        not_classical=("P1", "R1", "A1", "B1"),
        secondaries=(
            ("A", 0, lambda pr, n: -pr.p - pr.tau1 - pr.tau2),
            ("B", 0, lambda pr, n: (
                pr.a - pr.tau1 if n == 0 else pr.a + pr.beta - pr.tau1 - pr.tau2
            )),
        ),
        third_order_grace=3,
    ),
}

CASE_IDS = tuple(_CLAIMS)


def case_claims(case_id: str) -> CaseClaims:
    try:
        return _CLAIMS[case_id]
    except KeyError:
        raise DispatchError(
            f"unknown case {case_id!r}; expected one of {', '.join(CASE_IDS)}"
        ) from None


def expected_sc(case_id: str, component: str, pr: CaseParams) -> BandedRule:
    """Closed-form structure-coefficient table claimed for one component."""
    builder = case_claims(case_id).closed_forms.get(component)
    if builder is None:
        raise DispatchError(
            f"no closed-form table for component {component!r} in case {case_id!r}"
        )
    return builder(pr)


# case predicates ------------------------------------------------------------

def _violations(case_id: str, pr: CaseParams) -> list[str]:
    """Names of the case predicates violated by these parameters."""
    claims = case_claims(case_id)
    bad: list[str] = []
    if pr.gamma == 0:
        bad.append("gamma = 0")

    for name, missing in field_mismatches(claims.family, pr):
        if missing:
            bad.append(f"{name} missing")
        else:
            bad.append(f"{name} is not a parameter of case {case_id}")
    if bad:
        return bad

    for text, holds in _EQUATIONS[claims.family] + claims.excludes:
        pinned = text in claims.pins
        if holds(pr) != pinned:
            bad.append(text.replace(" = ", " != ") if pinned else text)
    return bad


def require_case(case_id: str, pr: CaseParams) -> None:
    """Check the parameters against one claimed case id."""
    bad = _violations(case_id, pr)
    if bad:
        raise DispatchError(f"case {case_id}: {'; '.join(bad)}")


# family-level identities ----------------------------------------------------

def partner_term_cancellations(
    pr: CaseParams, count: int
) -> list[tuple[str, int, Fraction]]:
    """Evaluate the weights c_3, c_4, c_5 of the partner terms of the mixed
    relations for the unperturbed family at band indices k = 1..2 count + 2,
    c_{3+i} only where k >= i + 1, as the relations read them; returns the
    nonzero hits as (weight, k, value)."""
    qmap = QuadMap(pr.p, pr.q, pr.a)
    rule = family_main(pr)
    diagonal, gamma = rule.bands  # diagonal(n) = alpha(n + 1)
    hits: list[tuple[str, int, Fraction]] = []
    for k in range(1, 2 * count + 3):
        scalars = _mixed_scalars(qmap, rule.beta, lambda m: diagonal(m - 1), gamma, k)
        for i, weight in enumerate(scalars[3:]):
            if k >= i + 1 and (value := weight()) != 0:
                hits.append((f"c_{3 + i}", k, value))
    return hits
