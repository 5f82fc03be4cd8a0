from fractions import Fraction

import pytest

import quadmps.families as families
from conftest import assert_case_partition, rational
from quadmps.decomposition import QuadMap, decompose, normalize_secondary
from quadmps.errors import (
    DegenerateCaseError,
    DispatchError,
    ParseError,
    RegularityError,
)
from quadmps.families import (
    CASE_IDS,
    FAMILIES,
    CaseParams,
    build_family,
    case_claims,
    expected_sc,
    family_corecursive,
    family_main,
    family_pert2_I,
    family_pert2_II,
    partner_term_cancellations,
    require_case,
)
from quadmps.verification import sample_params

F = Fraction


def checkpoint_params(**extra) -> CaseParams:
    # the worked reference point used throughout: all structure constants small
    return CaseParams(
        beta=F(1), alpha1=F(2), alpha2=F(3), gamma=F(1),
        p=F(0), q=F(0), a=F(0), **extra,
    )


def random_params(rng, **extra) -> CaseParams:
    return CaseParams(
        beta=rational(rng),
        alpha1=rational(rng),
        alpha2=rational(rng),
        gamma=rational(rng, nonzero=True),
        p=rational(rng),
        q=rational(rng),
        a=rational(rng),
        **extra,
    )


class TestConstructors:
    def test_main_rejects_zero_gamma(self):
        with pytest.raises(RegularityError):
            family_main(checkpoint_params()._replace(gamma=F(0)))

    def test_main_coefficients_alternate(self):
        pr = CaseParams(F(1), F(2), F(3), F(5), F(7), F(0), F(0))
        table = family_main(pr).table(4)
        assert table.beta[:4] == (F(-8), F(1), F(-8), F(1))
        # chi_{0,0} = alpha_1, chi_{1,1} = alpha_2, chi_{n,n-1} = (-1)^n gamma
        assert table.chi[0][0] == F(2)
        assert table.chi[1][1] == F(3)
        assert table.chi[1][0] == F(-5)
        assert table.chi[2][1] == F(5)
        assert table.chi[3][1] == 0

    def test_corecursive_guards(self):
        with pytest.raises(DispatchError):
            family_corecursive(checkpoint_params())
        with pytest.raises(DegenerateCaseError):
            family_corecursive(checkpoint_params(tau=F(-1)))  # tau = -p - beta

    def test_pert2_I_guards(self):
        with pytest.raises(DispatchError):
            family_pert2_I(checkpoint_params(tau=F(2), eta1=F(1), eta2=F(1)))
        full = dict(tau=F(2), eta1=F(1), eta2=F(2), xi=F(3))
        with pytest.raises(RegularityError):
            family_pert2_I(checkpoint_params(**{**full, "xi": F(0)}))
        with pytest.raises(DegenerateCaseError):
            family_pert2_I(checkpoint_params(**{**full, "eta1": F(0)}))

    def test_pert2_II_guards(self):
        with pytest.raises(DispatchError):
            family_pert2_II(checkpoint_params(tau1=F(2)))
        with pytest.raises(DegenerateCaseError):
            family_pert2_II(checkpoint_params(tau1=F(-1), tau2=F(2)))
        with pytest.raises(DegenerateCaseError):
            family_pert2_II(checkpoint_params(tau1=F(2), tau2=F(1)))

    @pytest.mark.parametrize("constructor, extra", [
        pytest.param(
            family_corecursive, dict(tau=F(-1)), id="family_corecursive-extra0"
        ),
        pytest.param(
            family_pert2_I,
            dict(tau=F(2), eta1=F(0), eta2=F(1), xi=F(0)),
            id="family_pert2_I-extra1",
        ),
        pytest.param(
            family_pert2_II, dict(tau1=F(-1), tau2=F(1)), id="family_pert2_II-extra2"
        ),
    ])
    def test_zero_gamma_is_reported_before_the_perturbation(self, constructor, extra):
        pr = checkpoint_params(**extra)._replace(gamma=F(0))
        with pytest.raises(RegularityError, match="^gamma must be nonzero$"):
            constructor(pr)


# a checkpoint tuple on each equality a family rejects, and on no other
REJECTED_TUPLES = [
    ("corecursive", "tau = -p - beta", dict(tau=F(-1))),
    ("pert2-I", "eta1 = 0", dict(tau=F(2), eta1=F(0), eta2=F(5), xi=F(7))),
    ("pert2-I", "eta2 = 0", dict(tau=F(2), eta1=F(3), eta2=F(0), xi=F(7))),
    ("pert2-II", "tau1 = -p - beta", dict(tau1=F(-1), tau2=F(5))),
    ("pert2-II", "tau2 = beta", dict(tau1=F(2), tau2=F(1))),
]


class TestGuardsAgreeWithDispatch:
    # a family's constructor rejects only equalities of `_EQUATIONS`, and
    # no case of the family may sit on one

    def test_rejected_names_are_unpinned_equations(self):
        for family, entry in FAMILIES.items():
            texts = [text for text, _ in families._EQUATIONS[family]]
            for name in entry.rejects:
                assert name in texts, (family, name)
                for case_id in CASE_IDS:
                    if case_claims(case_id).family == family:
                        assert name not in case_claims(case_id).pins, case_id

    def test_every_rejected_name_has_a_tuple(self):
        assert sorted((f, t) for f, t, _ in REJECTED_TUPLES) == sorted(
            (family, name) for family, entry in FAMILIES.items() for name in entry.rejects
        )

    @pytest.mark.parametrize("family, text, extra", REJECTED_TUPLES)
    def test_rejected_tuple_fails_constructor_and_dispatch(self, family, text, extra):
        pr = checkpoint_params(**extra)
        holding = [t for t, holds in families._EQUATIONS[family] if holds(pr)]
        assert holding == [text]
        with pytest.raises(DegenerateCaseError):
            build_family(family, pr)
        for case_id in CASE_IDS:
            if case_claims(case_id).family == family:
                with pytest.raises(DispatchError):
                    require_case(case_id, pr)

    def test_pert2_I_accepts_tau_on_minus_p_minus_beta(self):
        pr = checkpoint_params(tau=F(-1), eta1=F(3), eta2=F(5), xi=F(7))
        assert pr.tau == -pr.p - pr.beta
        assert family_pert2_I(pr).table(2).beta[0] == F(-1)

    def test_errors_come_in_a_fixed_order(self):
        # missing field, zero gamma, vanishing replaced gamma, rejected equality
        pr = checkpoint_params(tau=F(2), eta1=F(0), eta2=F(5), xi=F(0))
        with pytest.raises(DispatchError):
            family_pert2_I(pr._replace(gamma=F(0), tau=None))
        with pytest.raises(RegularityError, match="^gamma must be nonzero$"):
            family_pert2_I(pr._replace(gamma=F(0)))
        with pytest.raises(RegularityError):
            family_pert2_I(pr)
        with pytest.raises(DegenerateCaseError):
            family_pert2_I(pr._replace(xi=F(7)))

    def test_a_surplus_field_is_ignored(self):
        pr = checkpoint_params(tau=F(2))
        assert family_main(pr).table(4) == family_main(pr._replace(tau=None)).table(4)
        surplus = family_corecursive(pr._replace(xi=F(0), tau1=F(-1)))
        assert surplus.table(4) == family_corecursive(pr).table(4)


def table_entries(rule, nmax=12) -> dict:
    """Every entry of the nmax-row table, keyed ("beta", n) or ("chi", n, nu)."""
    table = rule.table(nmax)
    entries = {("beta", n): b for n, b in enumerate(table.beta)}
    for n, row in enumerate(table.chi):
        entries.update({("chi", n, nu): c for nu, c in enumerate(row)})
    return entries


def assert_changes_exactly(rule, pr, named):
    """`rule` differs from the unperturbed family at exactly the `named`
    entries, and takes the named value there. A named value that happens
    to equal the unperturbed one cannot show as a change."""
    base = table_entries(family_main(pr))
    changed = {k: v for k, v in table_entries(rule).items() if v != base[k]}
    assert changed == {k: v for k, v in named.items() if v != base[k]}


class TestPerturbEquivalence:
    # each perturbed constructor changes exactly its named entries of the
    # unperturbed table, to their named values

    def test_corecursive_is_order_zero_shift(self, rng):
        for _ in range(5):
            pr = random_params(rng, tau=rational(rng))
            if pr.tau + pr.p + pr.beta == 0:
                continue  # the constructor rejects the unperturbed beta_0
            assert_changes_exactly(
                family_corecursive(pr), pr, {("beta", 0): pr.tau}
            )

    def test_pert2_I_is_order_two_scale(self, rng):
        draws = [
            random_params(
                rng,
                tau=rational(rng),
                eta1=rational(rng, nonzero=True),
                eta2=rational(rng, nonzero=True),
                xi=rational(rng, nonzero=True),
            )
            for _ in range(5)
        ]
        # eta2 = 1 leaves chi_{1,1} alone but is an admitted tuple
        draws.append(checkpoint_params(tau=F(2), eta1=F(3), eta2=F(1), xi=F(5)))
        require_case("pert2-I", draws[-1])
        for pr in draws:
            assert_changes_exactly(
                family_pert2_I(pr),
                pr,
                {
                    ("beta", 0): pr.tau,
                    ("chi", 0, 0): pr.alpha1 * pr.eta1,
                    ("chi", 1, 1): pr.alpha2 * pr.eta2,
                    ("chi", 1, 0): -pr.gamma * pr.xi,
                },
            )

    def test_pert2_II_is_order_one_shift(self, rng):
        for _ in range(5):
            pr = random_params(rng, tau1=rational(rng), tau2=rational(rng))
            if pr.tau1 + pr.p + pr.beta == 0 or pr.tau2 == pr.beta:
                continue  # the constructor rejects an unperturbed beta_0 or beta_1
            assert_changes_exactly(
                family_pert2_II(pr), pr, {("beta", 0): pr.tau1, ("beta", 1): pr.tau2}
            )


class TestExpectedSc:
    def test_checkpoint_values(self):
        pr = checkpoint_params()
        principal_even = expected_sc("I", "P", pr).table(2)
        assert principal_even.beta[0] == F(3)
        assert principal_even.beta[1] == F(6)
        assert principal_even.chi[0][0] == F(8)
        assert principal_even.chi[1][0] == F(1)

        principal_odd = expected_sc("I", "R", pr).table(2)
        assert principal_odd.beta == (F(6),) * 3
        assert principal_odd.chi[0][0] == F(8)
        assert principal_odd.chi[1][0] == F(1)

        derivative = expected_sc("I", "R1", pr).table(2)
        assert derivative.beta[0] == F(6)
        assert derivative.chi[0][0] == F(16, 3)
        assert derivative.chi[1][0] == F(1, 2)

        secondary = expected_sc("I", "B", pr).table(1)
        assert secondary.beta[0] == F(5)
        assert secondary.beta[1] == F(6)

    def test_unknown_pairs_raise(self):
        pr = checkpoint_params()
        with pytest.raises(DispatchError):
            expected_sc("I", "Q", pr)
        with pytest.raises(DispatchError):
            expected_sc("case-X", "P", pr)
        with pytest.raises(DispatchError):
            expected_sc("II", "B", pr)  # case II has no secondary odd table

    def test_vanishing_denominator_raises(self):
        pr = CaseParams(F(0), F(2), F(3), F(1), F(0), F(0), F(0))
        with pytest.raises(DegenerateCaseError):
            expected_sc("I", "B", pr)  # a + p + beta = 0


def text_params(text: str) -> CaseParams:
    return CaseParams(
        **{k: F(v) for k, v in (item.split("=") for item in text.split())}
    )


# tuples once drawn by the seeded sampler at which the closed-form table
# of R, of A or of both equals the unperturbed one, so that R1 or A1 is
# classical against the claim of the case
UNPERTURBED_TABLES = [
    ("pert2-I", "a=8 alpha1=1/3 alpha2=2 beta=7/6 eta1=1 eta2=1 gamma=-5/9"
     " p=3/2 q=1 tau=4 xi=-1/3", "R"),
    ("pert2-I", "a=6/5 alpha1=0 alpha2=1 beta=5/8 eta1=2/3 eta2=1 gamma=8/9"
     " p=-1/3 q=-4/5 tau=0 xi=1", "RA"),
    ("pert2-I-tau-a", "a=-9/8 alpha1=-1/9 alpha2=2/3 beta=-2/9 eta1=1 eta2=1"
     " gamma=-1/2 p=-5/6 q=3 tau=-9/8 xi=-2/3", "R"),
    ("pert2-I", "a=8 alpha1=1/3 alpha2=2 beta=7/6 eta1=2 eta2=1 gamma=-5/9"
     " p=3/2 q=1 tau=4 xi=1", "A"),
]


# tuples on two or more degeneracy hyperplanes at once, with the full
# require_case message and the case the tuple falls into, or, when it
# falls into none, the rejection by the case of its family it is nearest
# to; the text and order of every predicate are pinned (a key given
# twice takes its later value)
BASE ="beta=1 alpha1=2 alpha2=3 gamma=1 q=5 a=-3"
DOUBLE_VIOLATIONS = [
    ("co-I", f"{BASE} p=2 tau=-3",
     "case co-I: tau = -p - beta; tau = a",
     "near case co-II: tau = -p - beta"),
    ("I", f"{BASE} p=2 alpha2=0",
     "case I: p = -beta - a; alpha2 = 0",
     "II-alpha2zero"),
    ("II", f"{BASE} p=0 alpha2=0",
     "case II: p != -beta - a; alpha2 = 0",
     "I-alpha2zero"),
    ("II-alpha2zero", f"{BASE} p=0",
     "case II-alpha2zero: p != -beta - a; alpha2 != 0",
     "I"),
    ("pert2-I-tau-a", f"{BASE} p=0 tau=-1 eta1=0 eta2=1 xi=1",
     "case pert2-I-tau-a: tau = -p - beta; tau != a; eta1 = 0;"
     " alpha2 eta2 = alpha2 and xi = 1 (A unperturbed)",
     "near case pert2-I: tau = -p - beta; eta1 = 0;"
     " alpha2 eta2 = alpha2 and xi = 1 (A unperturbed)"),
    ("pert2-I", f"{BASE} p=2 tau=-3 eta1=2 eta2=0 xi=0",
     "case pert2-I: tau = -p - beta; tau = a; eta2 = 0; xi = 0",
     "near case pert2-I-tau-a: tau = -p - beta; eta2 = 0; xi = 0;"
     " gamma xi = alpha1 (a + p + beta) eta1"),
    ("co-II", f"{BASE} p=0 tau=-3 gamma=-4",
     "case co-II: gamma = alpha1 (a + p + beta)",
     "near case co-II: gamma = alpha1 (a + p + beta)"),
    ("pert2-II", f"{BASE} p=2 tau1=-3 tau2=1",
     "case pert2-II: tau1 = -p - beta; tau2 = beta; tau1 = a;"
     " tau1 + tau2 = a + beta; tau1 + tau2 = -p",
     "near case pert2-II: tau1 = -p - beta; tau2 = beta; tau1 = a;"
     " tau1 + tau2 = a + beta; tau1 + tau2 = -p"),
    ("I", f"{BASE} p=2 tau=1 xi=2",
     "case I: tau is not a parameter of case I; xi is not a parameter of case I",
     "near case pert2-I: eta1 missing; eta2 missing"),
]


class TestDispatch:
    def admissible(self, case_id: str) -> CaseParams:
        base = dict(
            beta=F(1), alpha1=F(2), alpha2=F(3), gamma=F(1),
            p=F(2), q=F(5), a=F(1, 2),
        )
        if case_id in ("II", "II-alpha2zero"):
            base["p"] = -base["beta"] - base["a"]
        if case_id.endswith("alpha2zero"):
            base["alpha2"] = F(0)
        if case_id == "co-I":
            base["tau"] = F(4)
        if case_id == "co-II":
            base["tau"] = base["a"]
        if case_id in ("pert2-I", "pert2-I-tau-a"):
            base["tau"] = base["a"] if case_id.endswith("tau-a") else F(4)
            base["eta1"] = F(2)
            base["eta2"] = F(3)
            base["xi"] = F(5)
        if case_id == "pert2-II":
            base["tau1"] = F(4)
            base["tau2"] = F(6)
        return CaseParams(**base)

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_round_trip(self, case_id):
        assert_case_partition(case_id, self.admissible(case_id))

    def test_boundary_flips(self):
        pr = self.admissible("I")
        assert_case_partition("II", pr._replace(p=-pr.beta - pr.a))
        assert_case_partition("I-alpha2zero", pr._replace(alpha2=F(0)))
        co = self.admissible("co-I")
        assert_case_partition("co-II", co._replace(tau=co.a))

    def test_degenerate_parameters(self):
        pr = self.admissible("I")
        for case_id in CASE_IDS:
            with pytest.raises(DispatchError, match="gamma = 0"):
                require_case(case_id, pr._replace(gamma=F(0)))
        for case_id in ("co-I", "co-II"):
            with pytest.raises(DispatchError, match="tau = -p - beta"):
                require_case(case_id, pr._replace(tau=-pr.p - pr.beta))
        with pytest.raises(DispatchError, match="tau1 = a"):
            require_case("pert2-II", pr._replace(tau1=pr.a, tau2=F(6)))

    def test_require_case_rejections(self):
        pr = self.admissible("I")
        with pytest.raises(DispatchError, match="unknown case"):
            require_case("case-X", pr)
        with pytest.raises(DispatchError, match="p != -beta - a"):
            require_case("II", pr)
        with pytest.raises(DispatchError, match="tau missing"):
            require_case("co-I", pr)
        with pytest.raises(DispatchError, match="not a parameter"):
            require_case("I", pr._replace(tau=F(4)))

    @pytest.mark.parametrize("case_id, text, tables", UNPERTURBED_TABLES)
    def test_unperturbed_tables_are_degenerate(self, case_id, text, tables):
        pr = text_params(text)
        with pytest.raises(DispatchError) as excinfo:
            require_case(case_id, pr)
        for component in "RA":
            assert (f"({component} unperturbed)" in str(excinfo.value)) == (
                component in tables
            )

    @pytest.mark.parametrize("case_id, text, required, dispatched", DOUBLE_VIOLATIONS)
    def test_violation_messages(self, case_id, text, required, dispatched):
        pr = text_params(text)
        with pytest.raises(DispatchError) as excinfo:
            require_case(case_id, pr)
        assert str(excinfo.value) == required
        if dispatched in CASE_IDS:
            assert_case_partition(dispatched, pr)
        else:
            near = dispatched.split(":")[0].removeprefix("near case ")
            with pytest.raises(DispatchError) as excinfo:
                require_case(near, pr)
            assert f"near {excinfo.value}" == dispatched

    def test_case_claims_lookup(self):
        assert case_claims("I").tables == ("P", "R", "B", "R1")
        with pytest.raises(DispatchError):
            case_claims("case-X")


def leading_rules(case_id: str) -> dict:
    """Each secondary of the case mapped to its leading-coefficient rule."""
    return {name: rule for name, _, rule in case_claims(case_id).secondaries}


class TestLeadings:
    def test_constant_rules(self):
        pr = checkpoint_params(tau=F(2))
        lead = leading_rules("co-I")["A"]
        assert lead(pr, 0) == lead(pr, 7) == -pr.p - pr.beta - pr.tau
        assert leading_rules("co-I")["B"](pr, 3) == pr.a - pr.tau
        assert leading_rules("II")["Bbar"](checkpoint_params(), 5) == F(1)
        bbar = leading_rules("co-II")["Bbar"]
        assert bbar(checkpoint_params(tau=F(0)), 2) == F(1) - F(2) * (F(0) + F(0) + F(1))

    def test_pert2_II_secondary_changes_at_one(self):
        pr = checkpoint_params(tau1=F(4), tau2=F(6))
        lead = leading_rules("pert2-II")["B"]
        assert lead(pr, 0) == pr.a - pr.tau1
        assert lead(pr, 1) == lead(pr, 9) == pr.a + pr.beta - pr.tau1 - pr.tau2

    def test_every_secondary_has_a_rule(self):
        for case_id in CASE_IDS:
            assert all(callable(rule) for rule in leading_rules(case_id).values())
        pr = checkpoint_params()._replace(a=F(2), p=F(-5, 3))
        for case_id in ("I", "I-alpha2zero"):
            assert leading_rules(case_id) == {"B": leading_rules("I")["B"]}
            assert leading_rules(case_id)["B"](pr, 4) == pr.a + pr.p + pr.beta

    @pytest.mark.parametrize("case_id", ["I", "I-alpha2zero"])
    def test_main_b_rule_holds_to_index_40(self, case_id, rng):
        rule = leading_rules(case_id)["B"]
        for _ in range(10):
            pr = sample_params(case_id, rng)
            table = family_main(pr).table(80)
            comp = decompose(table, QuadMap(pr.p, pr.q, pr.a), 40)
            norm = normalize_secondary(list(comp.b_seq), role="B")
            assert norm.offset == 0
            assert norm.leadings == tuple(rule(pr, n) for n in range(41))
            # cases I exclude p = -beta - a, so the rule never vanishes
            assert rule(pr, 0) == pr.a + pr.p + pr.beta != 0


class TestFamilyIdentities:
    def test_partner_terms_cancel(self, rng):
        for _ in range(10):
            assert partner_term_cancellations(random_params(rng), 6) == []

    def test_partner_hits_of_perturbed_rules_are_pinned(self, monkeypatch):
        # with the main family swapped for a perturbed one the weights see
        # the perturbed entries; beta_0 enters no weight the relations
        # read, so the co-recursive rule still cancels
        monkeypatch.setattr(families, "family_main", family_corecursive)
        assert partner_term_cancellations(checkpoint_params(tau=F(2)), 2) == []
        monkeypatch.setattr(families, "family_main", family_pert2_I)
        pr = checkpoint_params(tau=F(2), eta1=F(3), eta2=F(5), xi=F(7))
        assert partner_term_cancellations(pr, 2) == [
            ("c_4", 2, F(-6)), ("c_5", 3, F(-8)), ("c_5", 4, F(-12)),
        ]
        monkeypatch.setattr(families, "family_main", family_pert2_II)
        pr = checkpoint_params(tau1=F(2), tau2=F(5))
        assert partner_term_cancellations(pr, 2) == [("c_3", 1, F(4)), ("c_4", 2, F(12))]


class TestParamsJson:
    def test_round_trip(self):
        pr = checkpoint_params(tau=F(1, 3))
        assert CaseParams.from_json(pr.to_json()) == pr
        assert pr.to_json()["tau1"] is None

    def test_malformed(self):
        with pytest.raises(ParseError):
            CaseParams.from_json({"beta": "1"})  # missing required fields
        good = checkpoint_params().to_json()
        with pytest.raises(ParseError):
            CaseParams.from_json({**good, "beta": "x"})
        with pytest.raises(ParseError):
            CaseParams.from_json({**good, "extra": "1"})
