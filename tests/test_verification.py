import json
import random
from fractions import Fraction

import pytest

from conftest import assert_case_partition, components_of_pairs
import quadmps.verification as verification
from quadmps.errors import DispatchError, NotNormalizableError, RangeError
from quadmps.families import (
    CASE_IDS,
    CaseParams,
    case_claims,
    field_mismatches,
)
from quadmps.decomposition import QdComponents
from quadmps.polynomials import ONE, X
from quadmps.verification import (
    CHECKS,
    CaseVerdict,
    ComponentReport,
    SweepResult,
    checks_ok,
    sample_params,
    verify_case,
    verify_sampled,
)

F = Fraction


def checkpoint_params() -> CaseParams:
    return CaseParams(
        beta=F(1), alpha1=F(2), alpha2=F(3), gamma=F(1),
        p=F(0), q=F(0), a=F(0),
    )


class TestVerifyCase:
    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_sampled_tuple_passes(self, case_id):
        pr = sample_params(case_id, random.Random(20260818))
        verdict = verify_case(case_id, pr, nmax=8, dmax=6)
        assert verdict.passed
        assert verdict.identity("reconstruction")
        assert all(v.n < 4 for v in verdict.early_violations)

    def test_perturbed_tables_near_the_unperturbed_ones_pass(self):
        # one step off a tuple whose A table equals the unperturbed one
        pr = CaseParams(
            beta=F(7, 6), alpha1=F(1, 3), alpha2=F(2), gamma=F(-5, 9),
            p=F(3, 2), q=F(1), a=F(8), tau=F(4), eta1=F(2), eta2=F(1),
            xi=F(-1, 3),
        )
        assert verify_case("pert2-I", pr).passed

    def test_checkpoint_tuple_details(self):
        verdict = verify_case("I", checkpoint_params(), nmax=10, dmax=8)
        assert verdict.passed
        assert verdict.identity("a null")
        assert verdict.identity("even terms carry no secondary part")
        assert verdict.identity("third-order recurrences")
        assert verdict.early_violations == ()

        secondary = verdict.component("B")
        assert secondary.offset == 0
        assert secondary.offset_ok
        assert secondary.matches_expected

        for name in ("P1", "B1"):
            swept = verdict.component(name)
            assert swept.orthogonal_d is None
            assert swept.rejections_complete
            assert {w.d for w in swept.rejections} == set(range(1, 9))
            assert all(w.value != 0 for w in swept.rejections)

        for name in ("P", "R", "B", "R1"):
            assert verdict.component(name).orthogonal_d == 2

    def test_wrong_case_claim_is_rejected(self):
        with pytest.raises(DispatchError):
            verify_case("II", checkpoint_params(), nmax=8)

    def test_range_validation(self):
        pr = checkpoint_params()
        with pytest.raises(RangeError):
            verify_case("I", pr, nmax=3)
        with pytest.raises(RangeError):
            verify_case("I", pr, nmax=8, dmax=0)
        with pytest.raises(RangeError):
            verify_case("I", pr, nmax=8, dmax=9)

    def test_verdict_json_round_trip(self):
        verdict = verify_case("I", checkpoint_params(), nmax=8, dmax=6)
        payload = json.loads(json.dumps(verdict.to_json()))
        assert CaseVerdict.from_json(payload) == verdict


class TestChecks:
    def test_checks_are_the_flag_fields_of_a_component_report(self):
        flags = [name for name in ComponentReport._fields
                 if ComponentReport.__annotations__[name] == "bool | None"]
        assert list(CHECKS) == flags

    @pytest.mark.parametrize("flag", CHECKS)
    @pytest.mark.parametrize("value", [None, True, False])
    def test_ok_reads_the_same_off_a_report_and_its_payload(self, flag, value):
        report = ComponentReport(**{flag: value, "coincides_with": "P", "offset": 1})
        assert report.ok == checks_ok(report.to_json()) == (value is not False)


class TestSplitIdentities:
    # components with one entry off by one, at a low, a middle and the
    # last index: each identity must read what its defining Horner
    # rebuild of W_m gives. Index 0 is skipped so that P and R stay
    # monic sequences the later claims can extract from.

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_tampered_components_pin_the_identities(self, case_id, monkeypatch):
        params = sample_params(case_id, random.Random(5))
        claims = case_claims(case_id)
        real = verification.decompose
        # each sequence, the pair index of its entry 0, and its part
        for field, first, part in (
            ("p_seq", 0, 0), ("a_seq", 2, 1), ("b_seq", 1, 0), ("r_seq", 1, 1)
        ):
            for pick in (lambda k: 1, lambda k: k // 2, lambda k: k - 1):

                def tampered(sc, qmap, nmax, field=field, first=first, part=part,
                             pick=pick):
                    comp = real(sc, qmap, nmax)
                    m = first + 2 * pick(len(getattr(comp, field)))
                    pairs = list(comp.pairs)
                    pair = list(pairs[m])
                    pair[part] = pair[part] + ONE
                    pairs[m] = tuple(pair)
                    return components_of_pairs(comp.map, pairs)

                monkeypatch.setattr(verification, "decompose", tampered)
                verdict = verify_case(case_id, params, nmax=4, dmax=1)
                identities = {i.name: i.ok for i in verdict.identities}
                assert identities["reconstruction"] is False
                even = identities.get("even terms carry no secondary part")
                if "a" in claims.null_components:
                    # W_2n = P_n(omega) reads P alone
                    assert even is (field != "p_seq")
                else:
                    assert even is None
                odd = identities.get("odd terms rebuild from the first kind alone")
                if claims.odd_rebuild_with_gamma:
                    # W_2n+1 = (x - a) R_n(omega) + gamma R_n-1(omega) reads R alone
                    assert odd is (field != "r_seq")
                else:
                    assert odd is None

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_tampered_oracle_rows_pin_the_identities(self, case_id, monkeypatch):
        # the oracle's row of one materialized W_m off by one in its u part
        # or its v part, at a low, a middle and the last m of each parity:
        # each rebuild must read exactly the rows of its own parity
        params = sample_params(case_id, random.Random(5))
        claims = case_claims(case_id)
        real = verification.decompose_oracle
        picks = (lambda k: 1, lambda k: 2, lambda k: k // 2, lambda k: k // 2 + 1,
                 lambda k: k - 2, lambda k: k - 1)
        for pick in picks:
            for bump in (ONE, X):
                picked = []

                def tampered(polys, qmap, pick=pick, bump=bump, picked=picked):
                    split = real(polys, qmap)
                    rows = list(split.rows)
                    m = pick(len(rows))
                    rows[m] = rows[m] + bump
                    picked.append(m)
                    return QdComponents(split.map, rows)

                monkeypatch.setattr(verification, "decompose_oracle", tampered)
                verdict = verify_case(case_id, params, nmax=4, dmax=1)
                identities = {i.name: i.ok for i in verdict.identities}
                (m,) = picked
                assert identities["reconstruction"] is False
                even = identities.get("even terms carry no secondary part")
                if "a" in claims.null_components:
                    assert even is (m % 2 == 1)
                else:
                    assert even is None
                odd = identities.get("odd terms rebuild from the first kind alone")
                if claims.odd_rebuild_with_gamma:
                    assert odd is (m % 2 == 0)
                else:
                    assert odd is None


class TestExclusionPath:
    # no admissible tuple produces a degree drop (every secondary leading
    # coefficient is a rule the case keeps nonzero), so a drop is
    # exercised through a seam

    def test_degree_drop_fails_the_verdict(self, monkeypatch):
        def drop(seq, role="secondary"):
            raise NotNormalizableError(f"{role}[3] has degree 1, expected 3")

        monkeypatch.setattr(verification, "normalize_secondary", drop)
        verdict = verify_case("I", checkpoint_params(), nmax=8, dmax=6)
        assert not verdict.passed
        assert verdict.component("B").offset_ok is False
        assert verdict.component("B").leadings_ok is False
        assert verdict.to_json()["excluded"] is None

    def test_leading_rule_turns_drop_into_failure(self, monkeypatch):
        # the same in co-I, where A is the first of two secondaries
        def drop(seq, role="secondary"):
            raise NotNormalizableError(f"{role}[2] has degree 0, expected 2")

        monkeypatch.setattr(verification, "normalize_secondary", drop)
        pr = sample_params("co-I", random.Random(5))
        verdict = verify_case("co-I", pr, nmax=8, dmax=6)
        assert not verdict.passed
        assert verdict.component("A").offset_ok is False
        assert verdict.component("A").leadings_ok is False

    def test_unbuilt_component_fails_not_classical(self, monkeypatch):
        # A normalizes to None, so A1 is never built: its claim that it is
        # not 2-orthogonal has nothing to rest on and must fail
        real = verification.normalize_secondary

        def null_a(seq, role="secondary"):
            return None if role == "A" else real(seq, role=role)

        monkeypatch.setattr(verification, "normalize_secondary", null_a)
        pr = sample_params("pert2-I", random.Random(5))
        verdict = verify_case("pert2-I", pr, nmax=8, dmax=6)
        assert verdict.identity("A1 not 2-orthogonal") is False
        assert verdict.identity("B1 not 2-orthogonal") is True


class TestSampling:
    def test_same_seed_same_tuples(self):
        for case_id in CASE_IDS:
            first = sample_params(case_id, random.Random(11))
            second = sample_params(case_id, random.Random(11))
            assert first == second

    def test_unknown_case(self):
        with pytest.raises(DispatchError):
            sample_params("case-X", random.Random(0))

    def test_sampled_tuples_differ_across_draws(self):
        rng = random.Random(11)
        assert sample_params("I", rng) != sample_params("I", rng)

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_samples_fit_their_family_and_dispatch_back(self, case_id):
        family = case_claims(case_id).family
        for seed in range(21):
            pr = sample_params(case_id, random.Random(seed))
            assert field_mismatches(family, pr) == []
            assert_case_partition(case_id, pr)


class TestVerifySampled:
    def test_sweep_result_shape_and_json(self):
        sweep = verify_sampled("II", samples=2, seed=9, nmax=8, dmax=6)
        assert sweep.passed
        assert len(sweep.verdicts) == 2
        payload = json.loads(json.dumps(sweep.to_json()))
        assert payload["passes"] == 2
        assert payload["failures"] == 0
        assert SweepResult.from_json(payload) == sweep

    def test_parallel_matches_serial(self):
        serial = verify_sampled("I", samples=2, seed=5, nmax=8, dmax=6, jobs=1)
        parallel = verify_sampled("I", samples=2, seed=5, nmax=8, dmax=6, jobs=2)
        assert serial == parallel

    @pytest.mark.parametrize(
        "jobs, cpus, want",
        [(64, 2, [2]), (2, 8, [2]), (64, 8, [3]), (64, None, []), (1, 8, [])],
    )
    def test_workers_capped_at_cpu_count(
        self, monkeypatch, serial_pool, jobs, cpus, want
    ):
        monkeypatch.setattr(verification.os, "cpu_count", lambda: cpus)
        pooled = verify_sampled("I", samples=3, seed=5, nmax=8, dmax=6, jobs=jobs)
        assert serial_pool == want
        assert pooled == verify_sampled("I", samples=3, seed=5, nmax=8, dmax=6)

    def test_sample_count_validation(self):
        with pytest.raises(RangeError):
            verify_sampled("I", samples=0, seed=1)
