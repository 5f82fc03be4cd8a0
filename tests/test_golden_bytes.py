"""Pinned bytes of the CLI reports.

Each run's stdout is hashed with SHA-256 and compared with a digest
taken from a known-good tree, so that any change to a report body
(a key, a value, its JSON type or its spelling) fails here, not only
the sweep summaries the benchmark digests cover.
"""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import pytest

import quadmps.cli as cli
import quadmps.verification as verification
from quadmps.families import CASE_IDS
from quadmps.sequences import BandedRule

MAIN_FLAGS = [
    "--beta", "1", "--alpha1", "2", "--alpha2", "3", "--gamma", "1",
    "--p", "0", "--q", "0", "--a", "0",
]

VERIFY_CASE = {
    "I": "4cfa16d845efa03dd6da15204d644199478bd9d6bf5a11679473a87e69feb657",
    "I-alpha2zero": "2ed5d00520693afabdda65736894d9ec4c19a6f1033911bf591bd1429e8de4e5",
    "II": "8f1eef44107146ec45ce7e4a44a1799be0932d9278337500563c00f4353e49b2",
    "II-alpha2zero": "f8d3290db49ff913faa2c6edddaa58d651008ef90b5059379f89b15d829de37a",
    "co-I": "b4ee6fc508503cda420f9ea4f576a755446cebeb4e6746b1d7d5c4f42e2c8293",
    "co-II": "342fdc4cda5f2ad852d587c5dabdefb04fc4a9080ef3e3d0747a374e725ea935",
    "pert2-I": "8c9d0d149e6a60046653cbd0ec4b8c52e053bc8dfd6f631a5ef6f161998e3157",
    "pert2-I-tau-a": "27a23dd7ccef061825dda2f605766a3d7690c1f842fd16cb0bf5f896133cb849",
    "pert2-II": "8adf6b7ebf5ff746b4340b244ca51cd84ae91513da004a466929871dc976780a",
}


def digest(capsys, argv, code=0) -> str:
    assert cli.main(argv) == code
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_verify_case_bytes(capsys, case_id):
    argv = ["verify-case", "--case", case_id, "--nmax", "8", "--samples", "2",
            "--seed", "3"]
    assert digest(capsys, argv) == VERIFY_CASE[case_id]


def test_derive_bytes(capsys):
    argv = ["derive", "--family", "main", *MAIN_FLAGS, "--nmax", "8"]
    want = "9188856e5b4121cd0450894974a507238d3adcdfc7e46ad40c5f43bffd48dbfc"
    assert digest(capsys, argv) == want


def test_analyze_bytes(capsys, tmp_path):
    # a gamma band with a pinhole zero: order 1 is rejected by a witness
    # and order 2 fails regularity at (2, 2)
    rule = BandedRule.two_orthogonal(
        beta=lambda n: Fraction(n, 3),
        alpha=lambda m: Fraction(1),
        gamma=lambda m: Fraction(0) if m == 2 else Fraction(-1, 2),
    )
    path = tmp_path / "table.json"
    path.write_text(json.dumps(rule.table(10).to_json()))
    argv = ["analyze", "--sc-file", str(path), "--nmax", "8"]
    want = "7f2997cb68631946850f34df750c0ab059d1a63ecb8cdebb43a8175236aca3d2"
    assert digest(capsys, argv) == want


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_table_mismatch_bytes(capsys, monkeypatch, fmt):
    real = verification.expected_sc

    def shifted(case_id, name, params):
        # P gets a beta mismatch at n = 2, R a chi mismatch at (3, 3)
        rule = real(case_id, name, params)
        if name == "P":
            return replace(rule, beta=lambda n: rule.beta(n) + (1 if n == 2 else 0))
        if name == "R":
            diag, *rest = rule.bands
            return replace(
                rule, bands=(lambda n: diag(n) + (1 if n == 3 else 0), *rest)
            )
        return rule

    monkeypatch.setattr(verification, "expected_sc", shifted)
    argv = ["verify-case", "--case", "co-I", "--nmax", "8", "--samples", "1",
            "--seed", "3", "--format", fmt]
    want = {
        "json": "1c0f5c48993f2622c48ec175671edeb30dc8d08780e40216398a3e8af23e2cb6",
        "table": "37382b991153c7f5c56fe982914d4143858dfde140dcdf408b228a00ba82b757",
    }
    assert digest(capsys, argv, code=1) == want[fmt]
