"""The ten acceptance criteria, one test each, run at tolerance zero.

Every test prints one `ACCEPTANCE k (name): PASS|FAIL` line on the real
stdout (capture suspended) so the verdicts stay visible inside captured
pytest runs, then asserts. Randomness is seeded, so the exact parameter
tuples and specs are reproducible.
"""

import random
from fractions import Fraction

import pytest

from conftest import (
    random_spec,
    random_two_orthogonal,
    rational,
    reference_derivatives,
    reference_mps,
)
from quadmps.analysis import detect_orthogonality_order
from quadmps.decomposition import (
    QuadMap,
    decompose,
    decompose_oracle,
    mixed_relation_violations,
    third_order_violations,
)
from quadmps.families import (
    case_claims,
    expected_sc,
    partner_term_cancellations,
)
from quadmps.sequences import (
    BandedRule,
    derivative_sequence,
    extract_sc,
    generate_mps,
)
from quadmps.verification import sample_params, verify_sampled

F = Fraction
SEED = 20260818
SAMPLES = 20


@pytest.fixture
def conclude(capfd):
    def _conclude(k: int, name: str, ok: bool, detail: str = "") -> None:
        with capfd.disabled():
            print(
                f"\nACCEPTANCE {k} ({name}): {'PASS' if ok else 'FAIL'}",
                flush=True,
            )
        assert ok, detail or f"criterion {k} ({name}) failed"

    return _conclude


def sweep(case_id: str):
    return verify_sampled(case_id, SAMPLES, SEED, nmax=10, dmax=10)


def spec_table(spec):
    return spec.table(16) if isinstance(spec, BandedRule) else spec


def test_criterion_01_oracle_equivalence(conclude):
    rng = random.Random(SEED)
    ok = True
    detail = ""
    for k in range(50):
        spec = random_spec(rng, k)
        qmap = QuadMap(rational(rng), rational(rng), rational(rng))
        table = spec_table(spec)
        direct = decompose(table, qmap, 8)
        oracle = decompose_oracle(reference_mps(table, 17), qmap)
        if direct != oracle:
            ok = False
            detail = f"spec {k}: recurrence and basis-change paths disagree"
            break
    conclude(1, "oracle equivalence", ok, detail)


def test_criterion_02_case_I(conclude):
    result = sweep("I")
    ok = result.passed and len(result.verdicts) >= 20
    detail = ""
    for v in result.verdicts:
        ok = ok and v.identity("a null")
        for name in ("P", "R", "B", "R1"):
            ok = ok and v.component(name).matches_expected is True
        for name in ("P1", "B1"):
            swept = v.component(name)
            ok = (
                ok
                and swept.rejections_complete is True
                and {w.d for w in swept.rejections} == set(range(1, 11))
                and all(w.value != 0 for w in swept.rejections)
            )
        if not ok:
            detail = f"tuple {v.params.to_json()} broke a case I claim"
            break
    conclude(2, "case I tables, nullity and rejections", ok, detail)


def test_criterion_03_case_I_alpha2_zero(conclude):
    result = sweep("I-alpha2zero")
    ok = result.passed and len(result.verdicts) >= 20
    detail = ""
    for v in result.verdicts:
        ok = (
            ok
            and v.component("P").coincides_with == "R"
            and v.component("P").coincidence_ok is True
            and v.component("P1").coincidence_ok is True
            and all(
                v.component(name).matches_expected is True
                for name in ("P", "R", "B", "R1", "P1")
            )
        )
        if not ok:
            detail = f"tuple {v.params.to_json()} broke a case I-alpha2zero claim"
            break
    conclude(3, "case I with alpha2 = 0 collapses P onto R", ok, detail)


def test_criterion_04_case_II(conclude):
    ok = True
    detail = ""
    for case_id in ("II", "II-alpha2zero"):
        result = sweep(case_id)
        ok = ok and result.passed and len(result.verdicts) >= 20
        for v in result.verdicts:
            secondary = v.component("Bbar")
            ok = (
                ok
                and secondary.offset == 1
                and secondary.offset_ok is True
                and secondary.leadings_ok is True
                and secondary.coincides_with == "R"
                and secondary.coincidence_ok is True
                and v.component("Bbar1").coincidence_ok is True
                and v.identity("odd terms rebuild from the first kind alone")
                and all(
                    v.component(name).matches_expected is True
                    for name in case_claims(case_id).tables
                )
            )
            if case_id == "II":
                ok = ok and v.identity("P co-recursive of R")
            if not ok:
                detail = f"tuple {v.params.to_json()} broke a case {case_id} claim"
                break
    conclude(4, "case II secondary collapse and rebuild", ok, detail)


def test_criterion_05_corecursive(conclude):
    ok = True
    detail = ""
    for case_id in ("co-I", "co-II"):
        result = sweep(case_id)
        ok = ok and result.passed and len(result.verdicts) >= 20
        for v in result.verdicts:
            ok = (
                ok
                and v.component("A").coincides_with == "R"
                and v.component("A").coincidence_ok is True
                and v.component("A1").coincidence_ok is True
                and all(
                    v.component(name).matches_expected is True
                    for name in case_claims(case_id).tables
                )
            )
            if case_id == "co-II":
                bbar = v.component("Bbar")
                ok = (
                    ok
                    and bbar.offset == 1
                    and bbar.leadings_ok is True
                    and bbar.coincidence_ok is True
                )
            if not ok:
                detail = f"tuple {v.params.to_json()} broke a case {case_id} claim"
                break
    conclude(5, "co-recursive coincidences and tables", ok, detail)


def test_criterion_06_perturbations(conclude):
    ok = True
    detail = ""
    for case_id in ("pert2-I", "pert2-I-tau-a", "pert2-II"):
        result = sweep(case_id)
        ok = ok and result.passed and len(result.verdicts) >= 20
        for v in result.verdicts:
            ok = ok and all(
                v.component(name).matches_expected is True
                for name in case_claims(case_id).tables
            )
            if case_id == "pert2-II":
                # the exceptional first-row entry of the secondary table
                pr = v.params
                want = (
                    pr.gamma
                    * pr.gamma
                    * (pr.a - pr.tau1)
                    / (pr.a + pr.beta - pr.tau1 - pr.tau2)
                )
                ok = ok and expected_sc("pert2-II", "B", pr).table(2).chi[1][0] == want
            if not ok:
                detail = f"tuple {v.params.to_json()} broke a case {case_id} claim"
                break
    conclude(6, "order-two perturbation tables", ok, detail)


def test_criterion_07_third_order_recurrences(conclude):
    rng = random.Random(SEED)
    ok = True
    detail = ""
    for case_id in ("I", "II"):
        for _ in range(10):
            pr = sample_params(case_id, rng)
            rule = case_claims(case_id).constructor(pr)
            comp = decompose(rule.table(24), QuadMap(pr.p, pr.q, pr.a), 12)
            bad = third_order_violations(
                comp, pr.beta, pr.alpha1, pr.alpha2, pr.gamma
            )
            if bad:
                ok = False
                detail = f"case {case_id} tuple {pr.to_json()}: violations {bad}"
                break
            if partner_term_cancellations(pr, 10):
                ok = False
                detail = f"partner terms fail to cancel at {pr.to_json()}"
                break
    for _ in range(20):
        spec = random_two_orthogonal(rng, depth=26)
        qmap = QuadMap(rational(rng), rational(rng), rational(rng))
        comp = decompose(spec.table(24), qmap, 12)
        bad = mixed_relation_violations(
            comp,
            beta=spec.beta,
            alpha=lambda n: spec.bands[0](n - 1),
            gamma=lambda n: spec.bands[1](n),
        )
        if bad:
            ok = False
            detail = f"mixed relations fail on a random spec: {bad}"
            break
    conclude(7, "third-order and mixed recurrences", ok, detail)


def test_criterion_08_non_diagonality(conclude):
    rng = random.Random(SEED)
    ok = True
    detail = ""
    for k in range(50):
        spec = random_two_orthogonal(rng)
        qmap = QuadMap(rational(rng), rational(rng), rational(rng))
        comp = decompose(spec.table(16), qmap, 8)
        crossed = any(
            not f.is_zero for f in list(comp.a_seq) + list(comp.b_seq)
        )
        if not crossed:
            ok = False
            detail = f"spec {k} decomposed diagonally"
            break
    conclude(8, "generic decompositions are not diagonal", ok, detail)


def test_criterion_09_source_family_not_classical(conclude):
    rng = random.Random(SEED)
    ok = True
    detail = ""
    for case_id in ("I", "II"):
        for _ in range(10):
            pr = sample_params(case_id, rng)
            rule = case_claims(case_id).constructor(pr)
            polys = generate_mps(rule, 25)
            der_sc = extract_sc(derivative_sequence(polys))
            report = detect_orthogonality_order(der_sc, 10)
            sound = (
                report.detected_d is None
                and {w.d for w in report.witnesses} == set(range(1, 11))
                and all(
                    w.value != 0 and der_sc.chi[w.n][w.nu] == w.value
                    for w in report.witnesses
                )
            )
            if not sound:
                ok = False
                detail = f"derivative order sweep soft at {pr.to_json()}"
                break
    conclude(9, "derivative of the source family rejected for d <= 10", ok, detail)


def test_criterion_10_round_trip_and_derivative_oracle(conclude):
    rng = random.Random(SEED)
    ok = True
    detail = ""
    for k in range(100):
        spec = random_spec(rng, k)
        polys = generate_mps(spec, 10)
        sc = extract_sc(polys)
        if generate_mps(sc, 10) != polys:
            ok = False
            detail = f"spec {k}: extract/regenerate round trip broke"
            break
        if derivative_sequence(polys) != reference_derivatives(polys, sc):
            ok = False
            detail = f"spec {k}: D W/(n+1) disagrees with the derivative recurrence"
            break
    conclude(10, "round trips and derivative oracle", ok, detail)
