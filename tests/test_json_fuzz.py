"""Every from_json either loads a payload or raises a QuadmpsError.

Arbitrary JSON values are fed in whole, and as the replacement of one
top-level key of a real payload, so that the nested loaders are reached.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmps.analysis import BandWitness, OrthoReport, detect_orthogonality_order
from quadmps.decomposition import QdComponents, QuadMap, decompose
from quadmps.errors import ParseError, QuadmpsError
from quadmps.families import CaseParams
from quadmps.verification import (
    CaseVerdict,
    ComponentReport,
    SweepResult,
    sample_params,
    verify_sampled,
)
from quadmps.sequences import StructureCoefficients

from conftest import random_two_orthogonal

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _real_payloads() -> dict:
    rng = random.Random(7)
    sc = random_two_orthogonal(rng, depth=12).table(8)
    report = detect_orthogonality_order(sc, 3)
    sweep = verify_sampled("co-I", 1, seed=0, nmax=4)
    verdict = sweep.verdicts[0]
    return {
        BandWitness: report.witnesses[0].to_json(),
        OrthoReport: report.to_json(),
        QuadMap: QuadMap(1, 2, 3).to_json(),
        QdComponents: decompose(sc, QuadMap(1, 2, 3), 4).to_json(),
        StructureCoefficients: sc.to_json(),
        CaseParams: sample_params("pert2-II", rng).to_json(),
        ComponentReport: verdict.component("P").to_json(),
        CaseVerdict: verdict.to_json(),
        SweepResult: sweep.to_json(),
    }


REAL = _real_payloads()
BETA_MISMATCH = {"kind": "beta", "n": 2, "nu": None, "computed": "1/2", "expected": "0"}
CHI_MISMATCH = {"kind": "chi", "n": 3, "nu": 1, "computed": "-3", "expected": "7/5"}
LOADERS = sorted(REAL, key=lambda cls: cls.__name__)


def _load(cls, payload) -> None:
    try:
        cls.from_json(payload)
    except QuadmpsError:
        pass


@pytest.mark.parametrize("cls", LOADERS, ids=lambda cls: cls.__name__)
def test_real_payloads_round_trip(cls):
    assert cls.from_json(REAL[cls]).to_json() == REAL[cls]


@pytest.mark.parametrize("cls", LOADERS, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(payload=json_values)
def test_arbitrary_values_raise_only_package_errors(cls, payload):
    _load(cls, payload)


@pytest.mark.parametrize("cls", LOADERS, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), value=json_values)
def test_one_replaced_key_raises_only_package_errors(cls, data, value):
    key = data.draw(st.sampled_from(sorted(REAL[cls])))
    _load(cls, {**REAL[cls], key: value})


@pytest.mark.parametrize(
    "cls, key, value",
    [
        (BandWitness, "d", 2.7),
        (BandWitness, "n", "3"),
        (BandWitness, "nu", True),
        (BandWitness, "n", 3.0),
        (ComponentReport, "orthogonal_d", "x"),
        (ComponentReport, "orthogonal_d", True),
        (ComponentReport, "offset", 1.5),
        (ComponentReport, "matches_expected", 5),
        (ComponentReport, "coincidence_ok", "yes"),
        (ComponentReport, "offset_ok", 0),
        (ComponentReport, "leadings_ok", []),
        (ComponentReport, "rejections_complete", 1),
        (ComponentReport, "coincides_with", 3),
        (ComponentReport, "first_mismatch", [1]),
        (ComponentReport, "rejections", {}),
        (CaseVerdict, "case", 7),
        (CaseVerdict, "nmax", "4"),
        (CaseVerdict, "dmax", 2.0),
        (CaseVerdict, "passed", 1),
        (CaseVerdict, "excluded", False),
        (CaseVerdict, "identities", {}),
        (CaseVerdict, "identities", [{"name": 3, "ok": True}]),
        (CaseVerdict, "identities", [{"name": "reconstruction", "ok": 1}]),
        (CaseVerdict, "identities", [{"name": "reconstruction", "ok": "yes"}]),
        (CaseVerdict, "early_violations", {}),
        (CaseVerdict, "early_violations", [{"component": "P", "n": "2"}]),
        (CaseVerdict, "early_violations", [{"component": "P", "n": 2.0}]),
        (CaseVerdict, "early_violations", [{"component": "P", "n": True}]),
        (CaseVerdict, "early_violations", [{"component": 5, "n": 2}]),
        (OrthoReport, "detected_d", "2"),
        (OrthoReport, "detected_d", True),
        (OrthoReport, "range", 8.5),
        (OrthoReport, "range", None),
        (OrthoReport, "regularity_ok", 5),
        (OrthoReport, "regularity_ok", None),
        (OrthoReport, "witnesses", {}),
        (OrthoReport, "regularity_fail", {"d": "x", "n": [1]}),
        (OrthoReport, "regularity_fail", {"d": 2, "n": 3.0}),
        (OrthoReport, "regularity_fail", [2, 3]),
        (OrthoReport, "classical", "yes"),
        (OrthoReport, "classical", 0),
        (ComponentReport, "first_mismatch", {"kind": 5, "n": "x"}),
        (ComponentReport, "first_mismatch", {**BETA_MISMATCH, "kind": "gamma"}),
        (ComponentReport, "first_mismatch", {**BETA_MISMATCH, "kind": 5}),
        (ComponentReport, "first_mismatch", {**BETA_MISMATCH, "n": "3"}),
        (ComponentReport, "first_mismatch", {**BETA_MISMATCH, "n": True}),
        (ComponentReport, "first_mismatch", {**BETA_MISMATCH, "nu": 0}),
        (ComponentReport, "first_mismatch", {**CHI_MISMATCH, "nu": None}),
        (ComponentReport, "first_mismatch", {**CHI_MISMATCH, "nu": 1.0}),
        (ComponentReport, "first_mismatch", {**CHI_MISMATCH, "computed": "x"}),
        (ComponentReport, "first_mismatch", {**CHI_MISMATCH, "expected": 3}),
        (ComponentReport, "first_mismatch", {**CHI_MISMATCH, "extra": 1}),
        (
            ComponentReport,
            "first_mismatch",
            {k: v for k, v in CHI_MISMATCH.items() if k != "expected"},
        ),
        (SweepResult, "case", 7),
        (SweepResult, "nmax", "12"),
        (SweepResult, "dmax", 4.0),
        (SweepResult, "seed", 2.5),
        (SweepResult, "seed", None),
        (SweepResult, "samples", True),
        (SweepResult, "verdicts", {}),
        (SweepResult, "excluded_verdicts", {}),
        (SweepResult, "passed", False),
        (SweepResult, "passed", 1),
        (SweepResult, "passes", 2),
        (SweepResult, "passes", True),
        (SweepResult, "failures", 1),
        (SweepResult, "failures", 0.0),
        (SweepResult, "excluded", 1),
    ],
)
def test_wrong_field_types_are_rejected(cls, key, value):
    # each of these loaded as it stood before field types were checked
    assert key in REAL[cls]
    with pytest.raises(ParseError):
        cls.from_json({**REAL[cls], key: value})


@pytest.mark.parametrize("mismatch", [BETA_MISMATCH, CHI_MISMATCH])
def test_table_mismatches_round_trip(mismatch):
    payload = {**REAL[ComponentReport], "first_mismatch": mismatch}
    assert ComponentReport.from_json(payload).to_json() == payload


def test_sweep_result_with_a_real_failure_round_trips():
    payload = REAL[SweepResult]
    failed = {**payload["verdicts"][0], "passed": False}
    broken = {**payload, "verdicts": [failed], "passed": False, "passes": 0, "failures": 1}
    assert SweepResult.from_json(broken).to_json() == broken


def test_orthogonality_report_fields_are_required():
    for key in REAL[OrthoReport]:
        payload = {k: v for k, v in REAL[OrthoReport].items() if k != key}
        with pytest.raises(ParseError):
            OrthoReport.from_json(payload)
