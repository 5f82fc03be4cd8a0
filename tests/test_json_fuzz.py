"""Every from_json either loads a payload or raises a QuadmpsError.

Arbitrary JSON values are fed in whole, and as the replacement of one
top-level key of a real payload, so that the nested loaders are reached.
"""

import json
import random
import re
from fractions import Fraction
from itertools import chain

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
from quadmps.wire import _exact_keys, _json_list, _json_object

from conftest import json_values, random_two_orthogonal


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


# (class, key, value, label); the test id is class-key-label. A label
# of the form valueN is the positional id that case had before ids were
# explicit, kept so that its test name stays the same.
WRONG_FIELDS = [
    (BandWitness, "d", 2.7, "2.7"),
    (BandWitness, "n", "3", "3"),
    (BandWitness, "nu", True, "True"),
    (BandWitness, "n", 3.0, "3.0"),
    (ComponentReport, "orthogonal_d", "x", "x"),
    (ComponentReport, "orthogonal_d", True, "True"),
    (ComponentReport, "offset", 1.5, "1.5"),
    (ComponentReport, "matches_expected", 5, "5"),
    (ComponentReport, "coincidence_ok", "yes", "yes"),
    (ComponentReport, "offset_ok", 0, "0"),
    (ComponentReport, "leadings_ok", [], "value10"),
    (ComponentReport, "rejections_complete", 1, "1"),
    (ComponentReport, "coincides_with", 3, "3"),
    (ComponentReport, "first_mismatch", [1], "value13"),
    (ComponentReport, "rejections", {}, "value14"),
    (CaseVerdict, "case", 7, "7"),
    (CaseVerdict, "nmax", "4", "4"),
    (CaseVerdict, "dmax", 2.0, "2.0"),
    (CaseVerdict, "passed", 1, "1"),
    (CaseVerdict, "excluded", False, "False"),
    (CaseVerdict, "identities", {}, "value20"),
    (CaseVerdict, "identities", [{"name": 3, "ok": True}], "value21"),
    (CaseVerdict, "identities", [{"name": "reconstruction", "ok": 1}], "value22"),
    (CaseVerdict, "identities", [{"name": "reconstruction", "ok": "yes"}], "value23"),
    (CaseVerdict, "early_violations", {}, "value24"),
    (CaseVerdict, "early_violations", [{"component": "P", "n": "2"}], "value25"),
    (CaseVerdict, "early_violations", [{"component": "P", "n": 2.0}], "value26"),
    (CaseVerdict, "early_violations", [{"component": "P", "n": True}], "value27"),
    (CaseVerdict, "early_violations", [{"component": 5, "n": 2}], "value28"),
    (OrthoReport, "detected_d", "2", "2"),
    (OrthoReport, "detected_d", True, "True"),
    (OrthoReport, "range", 8.5, "8.5"),
    (OrthoReport, "range", None, "None"),
    (OrthoReport, "regularity_ok", 5, "5"),
    (OrthoReport, "regularity_ok", None, "None"),
    (OrthoReport, "witnesses", {}, "value35"),
    (OrthoReport, "regularity_fail", {"d": "x", "n": [1]}, "value36"),
    (OrthoReport, "regularity_fail", {"d": 2, "n": 3.0}, "value37"),
    (OrthoReport, "regularity_fail", [2, 3], "value38"),
    (OrthoReport, "classical", "yes", "yes"),
    (OrthoReport, "classical", 0, "0"),
    (ComponentReport, "first_mismatch", {"kind": 5, "n": "x"}, "value41"),
    (ComponentReport, "first_mismatch", {**BETA_MISMATCH, "kind": "gamma"}, "value42"),
    (ComponentReport, "first_mismatch", {**BETA_MISMATCH, "kind": 5}, "value43"),
    (ComponentReport, "first_mismatch", {**BETA_MISMATCH, "n": "3"}, "value44"),
    (ComponentReport, "first_mismatch", {**BETA_MISMATCH, "n": True}, "value45"),
    (ComponentReport, "first_mismatch", {**BETA_MISMATCH, "nu": 0}, "value46"),
    (ComponentReport, "first_mismatch", {**CHI_MISMATCH, "nu": None}, "value47"),
    (ComponentReport, "first_mismatch", {**CHI_MISMATCH, "nu": 1.0}, "value48"),
    (ComponentReport, "first_mismatch", {**CHI_MISMATCH, "computed": "x"}, "value49"),
    (ComponentReport, "first_mismatch", {**CHI_MISMATCH, "expected": 3}, "value50"),
    (ComponentReport, "first_mismatch", {**CHI_MISMATCH, "extra": 1}, "value51"),
    (
        ComponentReport,
        "first_mismatch",
        {k: v for k, v in CHI_MISMATCH.items() if k != "expected"},
        "value52",
    ),
    (SweepResult, "case", 7, "7"),
    (SweepResult, "nmax", "12", "12"),
    (SweepResult, "dmax", 4.0, "4.0"),
    (SweepResult, "seed", 2.5, "2.5"),
    (SweepResult, "seed", None, "None"),
    (SweepResult, "samples", True, "True"),
    (SweepResult, "verdicts", {}, "value59"),
    (SweepResult, "excluded_verdicts", {}, "value60"),
    (SweepResult, "passed", False, "False"),
    (SweepResult, "passed", 1, "1"),
    (SweepResult, "passes", 2, "2"),
    (SweepResult, "passes", True, "True"),
    (SweepResult, "failures", 1, "1"),
    (SweepResult, "failures", 0.0, "0.0"),
    (SweepResult, "excluded", 1, "1"),
    (CaseVerdict, "passed", False, "False"),
    # a derived key must agree with the fields it is derived from
    (OrthoReport, "regularity_ok", False, "inconsistent-False"),
    (OrthoReport, "detected_d", None, "None-while-regular"),
    (CaseVerdict, "excluded", "B[3] has degree 1, expected 3", "reason"),
    (SweepResult, "excluded_verdicts", [REAL[CaseVerdict]], "one-verdict"),
    (SweepResult, "excluded", 0.0, "0.0"),
    # a rational loads only in the form format_rational writes
    (BandWitness, "value", " 2/4", "padded-half"),
    (BandWitness, "value", "2/4", "unreduced-half"),
    (BandWitness, "value", "1/1", "unit-denominator"),
    (BandWitness, "value", "-0", "negative-zero"),
    (BandWitness, "value", "01", "leading-zero"),
]


@pytest.mark.parametrize(
    "cls, key, value",
    [case[:3] for case in WRONG_FIELDS],
    ids=[f"{cls.__name__}-{key}-{label}" for cls, key, _, label in WRONG_FIELDS],
)
def test_wrong_field_types_are_rejected(cls, key, value):
    # each of these loaded as it stood before field types were checked
    assert key in REAL[cls]
    with pytest.raises(ParseError):
        cls.from_json({**REAL[cls], key: value})


@pytest.mark.parametrize("mismatch", [BETA_MISMATCH, CHI_MISMATCH])
def test_table_mismatches_round_trip(mismatch):
    payload = {
        **REAL[ComponentReport],
        "matches_expected": False,
        "first_mismatch": mismatch,
    }
    assert ComponentReport.from_json(payload).to_json() == payload


@pytest.mark.parametrize("mismatch", [BETA_MISMATCH, CHI_MISMATCH], ids=["beta", "chi"])
def test_a_mismatch_next_to_a_matching_table_is_rejected(mismatch):
    payload = {**REAL[ComponentReport], "first_mismatch": mismatch}
    assert payload["matches_expected"] is True
    with pytest.raises(ParseError):
        ComponentReport.from_json(payload)


def _with_failed_identity(verdict: dict) -> dict:
    first, *rest = verdict["identities"]
    return {**verdict, "identities": [{**first, "ok": False}, *rest]}


def test_sweep_result_with_a_real_failure_round_trips():
    payload = REAL[SweepResult]
    failed = {**_with_failed_identity(payload["verdicts"][0]), "passed": False}
    broken = {**payload, "verdicts": [failed], "passed": False, "passes": 0, "failures": 1}
    assert SweepResult.from_json(broken).to_json() == broken


def _verdict(case_id: str, nmax: int, dmax: int) -> dict:
    # the first tuple a seed-0 sweep of the case draws
    return verify_sampled(case_id, 1, seed=0, nmax=nmax, dmax=dmax).verdicts[0].to_json()


def _sweep(verdicts: list, samples: int = 1) -> dict:
    """REAL[SweepResult] (co-I, nmax and dmax 4) holding `verdicts`, with
    the counts and `passed` they give, so that only a check of the
    verdicts themselves can reject it."""
    passes = sum(v["passed"] for v in verdicts)
    return {
        **REAL[SweepResult],
        "samples": samples,
        "verdicts": verdicts,
        "passes": passes,
        "failures": len(verdicts) - passes,
        "passed": passes == len(verdicts) == samples,
    }


# (label, payload): a sweep writes exactly `samples` verdicts, each of its
# own case, nmax and dmax, so these payloads are written by no sweep
FOREIGN_SWEEPS = [
    ("case-I-verdict-at-nmax-5", _sweep([_verdict("I", 5, 5)])),
    ("case-I-verdict", _sweep([_verdict("I", 4, 4)])),
    ("verdict-at-nmax-5", _sweep([_verdict("co-I", 5, 4)])),
    ("verdict-at-dmax-3", _sweep([_verdict("co-I", 4, 3)])),
    ("no-verdict", _sweep([])),
    ("two-verdicts-for-one-sample", _sweep([_verdict("co-I", 4, 4)] * 2)),
    ("one-verdict-for-two-samples", _sweep([_verdict("co-I", 4, 4)], samples=2)),
]


@pytest.mark.parametrize(
    "payload",
    [payload for _, payload in FOREIGN_SWEEPS],
    ids=[label for label, _ in FOREIGN_SWEEPS],
)
def test_a_sweep_loads_only_its_own_verdicts(payload):
    with pytest.raises(ParseError):
        SweepResult.from_json(payload)


@pytest.mark.parametrize("samples", [1, 3])
@pytest.mark.parametrize("case_id", ["I", "co-II"])
@pytest.mark.parametrize("nmax, dmax", [(4, None), (6, 3)])
def test_every_sweep_round_trips(case_id, samples, nmax, dmax):
    payload = verify_sampled(case_id, samples, seed=4, nmax=nmax, dmax=dmax).to_json()
    assert SweepResult.from_json(payload).to_json() == payload


def test_orthogonality_report_fields_are_required():
    for key in REAL[OrthoReport]:
        payload = {k: v for k, v in REAL[OrthoReport].items() if k != key}
        with pytest.raises(ParseError):
            OrthoReport.from_json(payload)


def test_verdict_passed_must_follow_its_identities():
    payload = _with_failed_identity(REAL[CaseVerdict])
    assert payload["passed"] is True
    with pytest.raises(ParseError):
        CaseVerdict.from_json(payload)


def test_unknown_case_is_a_parse_error():
    with pytest.raises(ParseError):
        CaseVerdict.from_json({**REAL[CaseVerdict], "case": "III"})


CODEC_TYPES = [
    BandWitness,
    CaseParams,
    CaseVerdict,
    ComponentReport,
    OrthoReport,
    QuadMap,
    SweepResult,
]


@pytest.mark.parametrize("cls", CODEC_TYPES, ids=lambda cls: cls.__name__)
def test_an_unknown_key_is_rejected(cls):
    with pytest.raises(ParseError):
        cls.from_json({**REAL[cls], "extra": 1})


@pytest.mark.parametrize(
    "cls, key",
    [(cls, key) for cls in CODEC_TYPES for key in sorted(REAL[cls])],
    ids=lambda value: value if isinstance(value, str) else value.__name__,
)
def test_a_dropped_key_is_rejected(cls, key):
    payload = {k: v for k, v in REAL[cls].items() if k != key}
    with pytest.raises(ParseError):
        cls.from_json(payload)


# StructureCoefficients.from_json as it read a table before each distinct
# entry was parsed once: one parse_rational per entry, with its type
# checks in their old order. The reader must agree with it on every
# payload, table for table and error for error.
_REFERENCE_RE = re.compile(r"^(-?[0-9]+)(?:/(-?[0-9]+))?$")


def reference_parse(text) -> Fraction:
    if isinstance(text, bool):
        raise ParseError(f"rational must be a string or int, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ParseError(f"rational must be a string or int, got {type(text).__name__}")
    m = _REFERENCE_RE.match(text.strip())
    if m is None:
        raise ParseError(f"not a rational: {text!r}")
    try:
        num = int(m.group(1))
        den = 1 if m.group(2) is None else int(m.group(2))
    except ValueError as exc:
        raise ParseError(f"rational too long: {exc}") from exc
    if den <= 0:
        raise ParseError(f"denominator must be positive: {text!r}")
    return Fraction(num, den)


def reference_from_json(data) -> StructureCoefficients:
    _json_object(data, "structure-coefficient payload")
    _exact_keys(data, ("beta", "chi"), "structure-coefficient payload", ("nmax",))
    try:
        beta = tuple(reference_parse(b) for b in _json_list(data["beta"], "beta"))
        chi = tuple(
            tuple(reference_parse(c) for c in _json_list(row, "chi row"))
            for row in _json_list(data["chi"], "chi")
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed structure-coefficient payload: {exc}") from exc
    sc = StructureCoefficients(beta, chi)
    if "nmax" in data and type(data["nmax"]) is not int:
        raise ParseError(f"nmax must be an integer, got {data['nmax']!r}")
    if "nmax" in data and data["nmax"] != sc.nmax:
        raise ParseError(
            f"declared nmax {data['nmax']} does not match beta length {len(beta)}"
        )
    return sc


def outcome(read, payload):
    """The table read, or the class and message of what reading raised."""
    try:
        return read(payload)
    except Exception as exc:
        return type(exc), str(exc)


TEXTS = st.sampled_from(["0", "1", "-1", "1/2", "2/4", "-3/7", "10"])
good_entries = st.one_of(
    TEXTS,
    # whitespace-padded: another key, the same value
    st.builds(
        lambda lead, text, tail: lead + text + tail,
        st.sampled_from(["", " ", "\t"]), TEXTS, st.sampled_from(["", " ", "\n"]),
    ),
    st.integers(-3, 3),
)
bad_entries = st.one_of(
    st.sampled_from(["", "x", "1/0", "3/-2", "1.5", "+3", "1 / 2", "\u0663"]),
    # over-long digit strings, about the default limit of 4300 digits
    st.builds(
        lambda k, den: ("1/" if den else "") + "7" * k,
        st.integers(4295, 4305), st.booleans(),
    ),
    # equal, and so hashed alike, to a good entry: 1 == True == 1.0
    st.sampled_from([False, True, 0.0, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
    st.lists(good_entries, max_size=2),
)


@st.composite
def repetitive_tables(draw):
    """A table payload whose entries repeat a small palette, as stored
    tables do, mostly good entries and a few bad ones, with now and then
    a chi row that is no list or a declared nmax; sent through json so
    that equal texts are distinct objects, as in a file read."""
    nmax = draw(st.integers(0, 6))
    palette = draw(st.lists(good_entries, min_size=1, max_size=3))
    palette += draw(st.lists(bad_entries, max_size=2))
    entry = st.sampled_from(palette)
    payload = {
        "beta": draw(st.lists(entry, min_size=nmax + 1, max_size=nmax + 1)),
        "chi": [draw(st.lists(entry, min_size=n + 1, max_size=n + 1)) for n in range(nmax)],
    }
    if nmax and draw(st.booleans()):
        payload["chi"][draw(st.integers(0, nmax - 1))] = draw(entry)
    if draw(st.booleans()):
        payload["nmax"] = draw(st.sampled_from([nmax, nmax + 1, True, float(nmax)]))
    return json.loads(json.dumps(payload))


@settings(max_examples=300, deadline=None)
@given(payload=repetitive_tables())
def test_table_reader_matches_the_per_entry_reference(payload):
    assert outcome(StructureCoefficients.from_json, payload) == outcome(
        reference_from_json, payload
    )


# a bool or float is no rational, even where a string of the same value
# has been read: True == 1 == 1.0 would share its key in a memo
OTHER_TYPED_ROWS = {
    "int-then-true": [1, True],
    "text-then-float": ["1", 1.0],
    "text-then-true": ["1", True],
}


@pytest.mark.parametrize("row", OTHER_TYPED_ROWS.values(), ids=OTHER_TYPED_ROWS)
def test_a_bool_or_float_in_a_chi_row_is_a_parse_error(row):
    payload = {"beta": ["0", "0", "0"], "chi": [["1"], row]}
    with pytest.raises(ParseError) as raised:
        StructureCoefficients.from_json(payload)
    assert outcome(reference_from_json, payload) == (ParseError, str(raised.value))


def test_a_repeated_bad_entry_is_reported_at_its_first_occurrence():
    # "1/0" three times, and another bad entry after the first of them
    payload = {"beta": ["0", "1/0", "2"], "chi": [["x"], ["1/0", "1/0"]]}
    with pytest.raises(ParseError) as raised:
        StructureCoefficients.from_json(payload)
    assert str(raised.value) == "denominator must be positive: '1/0'"
    assert outcome(reference_from_json, payload) == (ParseError, str(raised.value))


def test_a_table_of_repeated_zeros_reads_as_before():
    payload = json.loads(json.dumps(
        {"beta": ["0"] * 9, "chi": [["0"] * (n + 1) for n in range(8)]}
    ))
    sc = StructureCoefficients.from_json(payload)
    assert sc == reference_from_json(payload)
    # every entry is one shared Fraction
    assert {id(c) for c in chain(sc.beta, *sc.chi)} == {id(sc.beta[0])}
