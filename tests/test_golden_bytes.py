"""Pinned bytes of the CLI reports.

Each run's stdout is hashed with SHA-256 and compared with a digest
taken from a known-good tree, so that any change to a report body
(a key, a value, its JSON type or its spelling) fails here, not only
the sweep summaries the benchmark digests cover.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

import quadmps.cli as cli
import quadmps.verification as verification
from quadmps.errors import NotNormalizableError
from quadmps.families import CASE_IDS
from quadmps.sequences import BandedRule, StructureCoefficients

from conftest import random_dense_sc, with_random_zeros

MAIN_FLAGS = [
    "--beta", "1", "--alpha1", "2", "--alpha2", "3", "--gamma", "1",
    "--p", "0", "--q", "0", "--a", "0",
]

VERIFY_CASE = {
    "I": "b6ee13a2b9bab7c15a8becdcb757fe918981400ae1a9bda2628bd1b9a69169ca",
    "I-alpha2zero": "8765d2dadc883dd4e18cfba57c2f569a8f3ac9bc34d54602ca752bbfd34361f6",
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


# a constant 2-band rule: classical, so both detections read every row
CONSTANT_RULE = BandedRule.two_orthogonal(
    beta=lambda n: Fraction(0),
    alpha=lambda m: Fraction(3),
    gamma=lambda m: Fraction(2),
)

# one tuple admissible for every case below; each case adds its own fields
SEAM_FLAGS = [
    "--beta=-2/9", "--alpha1=-1/9", "--alpha2=2/3", "--gamma=-1/2",
    "--p=-5/6", "--q=3", "--a=-9/8",
]
SEAM_EXTRA = {
    "I": [],
    "co-I": ["--tau=1"],
    "pert2-I": ["--tau=1", "--eta1=1", "--eta2=-2/3", "--xi=1"],
    "pert2-II": ["--tau1=1", "--tau2=1"],
}


def dense_table() -> StructureCoefficients:
    """A seeded dense table with zeros: every chi row is read entry by entry."""
    rng = random.Random(20)
    return with_random_zeros(rng, random_dense_sc(rng, 16))


# flags after "derive" ("{table}" is CONSTANT_RULE's table, "{dense}" is
# dense_table()) -> digest
DERIVE = {
    "main-nmax8": (
        ["--family", "main", *MAIN_FLAGS, "--nmax", "8"],
        "9188856e5b4121cd0450894974a507238d3adcdfc7e46ad40c5f43bffd48dbfc",
    ),
    # every order up to dmax is rejected before the derivative's last row
    "main-dmax3": (
        ["--family", "main", *MAIN_FLAGS, "--nmax", "8", "--dmax", "3"],
        "9b42dffadcf5fb71aa4e7a9ee47499ce7a15b6c30ad51b5c63e2011630c54726",
    ),
    # a stored table longer than needed, detected_d 2 on both sides
    "constant-sc-file": (
        ["--sc-file", "{table}", "--nmax", "8"],
        "0c5afa65809bdeea635bb74f2436f73f9401f190806e7dcf7cb0725b98eaebc8",
    ),
    # a dense stored table: every derive pin above is banded
    "dense-sc-file": (
        ["--sc-file", "{dense}", "--nmax", "8"],
        "7d22a406f2c8997de4c3827470d27b41493460a36942a8045da743f6632e562d",
    ),
    # the perturbed families, on the seam tuple
    "corecursive": (
        ["--family", "corecursive", *SEAM_FLAGS, *SEAM_EXTRA["co-I"], "--nmax", "8"],
        "8299896798bb76013dfdbb284c1f6585ed827579378d43928baa0e4659c80ca6",
    ),
    "pert2-I": (
        ["--family", "pert2-I", *SEAM_FLAGS, *SEAM_EXTRA["pert2-I"], "--nmax", "8"],
        "644b7b47cd4f66a9d21d610029bbd5bae923bf6358e578bbe7106f08135a3049",
    ),
    "pert2-II": (
        ["--family", "pert2-II", *SEAM_FLAGS, *SEAM_EXTRA["pert2-II"], "--nmax", "8"],
        "1d1ad96fd0b63c79cd98a0c13537528b38f7fb87b8adb565475e7bfb33b0fc63",
    ),
}


@pytest.mark.parametrize("name", DERIVE)
def test_derive_bytes(capsys, tmp_path, name):
    tables = {"{table}": CONSTANT_RULE.table(16), "{dense}": dense_table()}
    paths = {key: tmp_path / f"{key.strip('{}')}.json" for key in tables}
    for key, table in tables.items():
        paths[key].write_text(json.dumps(table.to_json()))
    flags, want = DERIVE[name]
    argv = ["derive", *(str(paths.get(f, f)) for f in flags)]
    assert digest(capsys, argv) == want


# a gamma band with a pinhole zero: order 1 is rejected by a witness and
# order 2 fails regularity at (2, 2)
PINHOLE_RULE = BandedRule.two_orthogonal(
    beta=lambda n: Fraction(n, 3),
    alpha=lambda m: Fraction(1),
    gamma=lambda m: Fraction(0) if m == 2 else Fraction(-1, 2),
)


def test_analyze_bytes(capsys, tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(PINHOLE_RULE.table(10).to_json()))
    argv = ["analyze", "--sc-file", str(path), "--nmax", "8"]
    want = "7f2997cb68631946850f34df750c0ab059d1a63ecb8cdebb43a8175236aca3d2"
    assert digest(capsys, argv) == want


PERT2_FLAGS = [
    "--beta=-2/9", "--alpha1=-1/9", "--alpha2=2/3", "--gamma=-1/2", "--p=-5/6",
    "--q=3", "--a=-9/8", "--tau", "2", "--eta1", "3", "--eta2", "5", "--xi", "7",
]

# argv before "--format table" ("{pinhole}" is PINHOLE_RULE's table) -> digest
TABLE = {
    "analyze-main": (
        ["analyze", "--family", "main", *MAIN_FLAGS, "--nmax", "12"],
        "001130d8b42e420aaa75ae1d5c0239e4cb1db25888edde9682dc52d3dcdda75c",
    ),
    "analyze-pert2-I": (
        ["analyze", "--family", "pert2-I", *PERT2_FLAGS, "--nmax", "12", "--dmax", "6"],
        "6e4eb4334d0a5710f2d180bbce12bde6f53b170fc788d78eb85e6e72f35058ac",
    ),
    # a regularity fail line and a rejection witness
    "analyze-pinhole": (
        ["analyze", "--sc-file", "{pinhole}", "--nmax", "8"],
        "5d0205874c860c9bb82e8c77a0ccdbdaf4620ae069ad2c1a73f4247dd13482d1",
    ),
    "derive-main": (
        ["derive", "--family", "main", *MAIN_FLAGS, "--nmax", "12"],
        "e73537888f16d019be1134eb258246390da18e3621bb3a62c448f3c14423c602",
    ),
    "derive-pert2-I": (
        ["derive", "--family", "pert2-I", *PERT2_FLAGS, "--nmax", "12"],
        "585d38fc2b06cdfa63ec59b81687528f52ec63a8283a9b036fd7902acce5959b",
    ),
    "verify-case-pert2-I": (
        ["verify-case", "--case", "pert2-I", "--samples", "3", "--seed", "5",
         "--nmax", "8"],
        "d51261cbb48756f931ea3695e9834277239359c99ad8277560f0df14a9e2f676",
    ),
    "verify-case-co-II": (
        ["verify-case", "--case", "co-II", "--samples", "2", "--seed", "1",
         "--nmax", "8"],
        "84174ce7f103f6aedfc9f29e02e4ccde7349d2cf90e0f902cb52fe8fc20fe4de",
    ),
    "sweep": (
        ["sweep", "--samples", "2", "--seed", "1", "--nmax", "8"],
        "e97359e44bf6ea0c927ba123d23e4333d4ee13bedf79c90ac888518683ddb457",
    ),
}


@pytest.mark.parametrize("name", TABLE)
def test_table_bytes(capsys, tmp_path, name):
    path = tmp_path / "pinhole.json"
    path.write_text(json.dumps(PINHOLE_RULE.table(10).to_json()))
    argv, want = TABLE[name]
    argv = [str(path) if a == "{pinhole}" else a for a in argv]
    assert digest(capsys, [*argv, "--format", "table"]) == want


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_table_mismatch_bytes(capsys, monkeypatch, fmt):
    real = verification.expected_sc

    def shifted(case_id, name, params):
        # P gets a beta mismatch at n = 2, R a chi mismatch at (3, 3)
        rule = real(case_id, name, params)
        if name == "P":
            return rule._replace(beta=lambda n: rule.beta(n) + (1 if n == 2 else 0))
        if name == "R":
            diag, *rest = rule.bands
            return rule._replace(
                bands=(lambda n: diag(n) + (1 if n == 3 else 0), *rest)
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


# (case, secondary, what its normalization does) -> (json, table) digests
SEAM_PATHS = {
    # a degree drop fails the component: every secondary has a leading rule
    ("I", "B", "drop"): (
        "fd5d8687733c5381673606ee1405af358d6522a46197e603992d0935a3c3a822",
        "d7ae51924efbca18c5058bd07e6536fdc6b80051764eb076f34151135b3d4728",
    ),
    ("co-I", "A", "drop"): (
        "fe84ca5017ef954bf966fb178192514b8047f710bb67b1a92b53421c48a7ba7a",
        "32fc13ce6c94f6eb6574ba6c41dbe1639806e1824f3a4f17c1c9ad7468c401fe",
    ),
    ("co-I", "B", "drop"): (
        "aef88b6b926d77218b36e69e23d9afec361c515563c52f0e4a22a7e353448384",
        "18647fb91208f69dd653d68bc1e8ee4c069a5ba36a349985f18961e2043580b4",
    ),
    # a secondary that normalizes to None leaves its derivative unbuilt,
    # and the derivative's not-classical identity then fails
    ("pert2-I", "A", "null"): (
        "a4433aa2159e8f64707a70b0d0f8568224ffdb8d75f827f239b5f7a6ec0bd497",
        "9046bcfb39360ca9326bd9c8a230c73c66fcb7f3995ddd8f3ebcfef824190eda",
    ),
    ("pert2-II", "A", "null"): (
        "41ce6ea52b056e2a6ff9b1a8098159a1d10235fd5f55f11d410451f306aaef01",
        "2e7b8f88205ff44b697f5d426d834972cc8d0ebd5994c24c840792521fb6568f",
    ),
}


# the identities of each seam case, with their values: only a claim on
# the derivative of a secondary that did not normalize fails
SEAM_IDENTITIES = {
    "I": {"reconstruction": True, "a null": True,
          "even terms carry no secondary part": True, "third-order recurrences": True},
    "co-I": {"reconstruction": True, "third-order recurrences": True},
    "pert2-I": {"reconstruction": True, "P1 not 2-orthogonal": True,
                "R1 not 2-orthogonal": True, "A1 not 2-orthogonal": False,
                "B1 not 2-orthogonal": True, "third-order recurrences": True},
}
SEAM_IDENTITIES["pert2-II"] = SEAM_IDENTITIES["pert2-I"]


def seam_argv(monkeypatch, path, fmt: str) -> list[str]:
    """The verify-case argv of a seam path, with its secondary's
    normalization replaced by a degree drop or by None."""
    case_id, target, effect = path
    real = verification.normalize_secondary

    def seam(seq, role="secondary"):
        if role != target:
            return real(seq, role=role)
        if effect == "null":
            return None
        raise NotNormalizableError(f"{role}[3] has degree 1, expected 3")

    monkeypatch.setattr(verification, "normalize_secondary", seam)
    return ["verify-case", "--case", case_id, *SEAM_FLAGS, *SEAM_EXTRA[case_id],
            "--nmax", "8", "--format", fmt]


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("path", SEAM_PATHS, ids="-".join)
def test_secondary_seam_bytes(capsys, monkeypatch, path, fmt):
    argv = seam_argv(monkeypatch, path, fmt)
    want = SEAM_PATHS[path][fmt == "table"]
    assert digest(capsys, argv, code=1) == want


@pytest.mark.parametrize("path", SEAM_PATHS, ids="-".join)
def test_no_claim_reads_a_secondary_that_did_not_normalize(capsys, monkeypatch, path):
    # the secondary keeps the flags its normalization set and nothing
    # else, its derivative has no entry, and the verdict still fails
    case_id, target, effect = path
    assert cli.main(seam_argv(monkeypatch, path, "json")) == 1
    payload = json.loads(capsys.readouterr().out)
    assert f"{target}1" not in payload["components"]
    entry = payload["components"][target]
    flags = {"offset_ok": False, **({} if effect == "null" else {"leadings_ok": False})}
    assert {key: value for key, value in entry.items() if value is not None} == flags
    assert entry["matches_expected"] is None
    assert payload["passed"] is False
    identities = {i["name"]: i["ok"] for i in payload["identities"]}
    assert identities == SEAM_IDENTITIES[case_id]


def _sparse_table():
    """A 16-index table whose chi rows hold zeros at odd and at even nu,
    with row 5 all zero."""
    beta = [Fraction((3 * n) % 7 - 3, 2) for n in range(17)]
    chi = []
    for n in range(16):
        row = [Fraction((5 * n + 3 * nu) % 7 - 3, 1 + nu % 3) for nu in range(n + 1)]
        chi.append([Fraction(0)] * (n + 1) if n == 5 else row)
    return StructureCoefficients(beta, chi)


def _full_table() -> StructureCoefficients:
    """A 40-index table whose every chi entry is nonzero."""
    beta = [Fraction((2 * n) % 5 - 2, 1 + n % 3) for n in range(41)]
    chi = [
        [Fraction((5 * n + 3 * nu) % 9 - 4 or 5, 1 + (n + nu) % 4) for nu in range(n + 1)]
        for n in range(40)
    ]
    return StructureCoefficients(beta, chi)


# flags after "decompose" ("{table}" is _sparse_table(), "{full}" is
# _full_table()) -> digest
DECOMPOSE = {
    "main-json": (
        ["--family", "main", *MAIN_FLAGS[:8], "--p=1/2", "--q=-3", "--a=2",
         "--nmax", "8"],
        "76292f790831109a3bafaab0858e0e173ef9675dddc733e3d5f84e2b7f8e15fd",
    ),
    "main-table": (
        ["--family", "main", *MAIN_FLAGS[:8], "--p=1/2", "--q=-3", "--a=2",
         "--nmax", "8", "--format", "table"],
        "688f3f30e97d7e7fdc088d9caaefefc6eb91526b840a97206384a50b7ba460e5",
    ),
    "sparse-sc-file": (
        ["--sc-file", "{table}", "--p=-1/3", "--q=2", "--a=-1", "--nmax", "8"],
        "25d793f9d28bb85d2aeb31d2163875a2e875977f95d6c0db92c98a99b4f2369f",
    ),
    # every chi entry read, with a, p + 2a and omega(a) all nonzero
    "full-sc-file-json": (
        ["--sc-file", "{full}", "--p=1/2", "--q=-2", "--a=1/3", "--nmax", "20"],
        "4e2329e03e0f8768fc6f438b57319bdb196839f957875d974a382115d49da0b4",
    ),
    "full-sc-file-table": (
        ["--sc-file", "{full}", "--p=1/2", "--q=-2", "--a=1/3", "--nmax", "20",
         "--format", "table"],
        "0058d633118d789e1049085df22a2f780323c32bb523eb5fa29c03f066222b8f",
    ),
    # the perturbed families, on the seam tuple
    "corecursive": (
        ["--family", "corecursive", *SEAM_FLAGS, *SEAM_EXTRA["co-I"], "--nmax", "8"],
        "78349e2736a0df11ac7b9dc60ea17f6ef58de396f0014309a18e8f7d804f1f78",
    ),
    "pert2-I": (
        ["--family", "pert2-I", *SEAM_FLAGS, *SEAM_EXTRA["pert2-I"], "--nmax", "8"],
        "d0212d9620fb466db6cbf7bc0a0c07a822f0627e6e0512aa3937f69703e0166f",
    ),
    "pert2-II": (
        ["--family", "pert2-II", *SEAM_FLAGS, *SEAM_EXTRA["pert2-II"], "--nmax", "8"],
        "7e4d8921386b715ee45df89f8ffec3c8b538604864c65093c681e430729ef50c",
    ),
}


def test_sparse_table_has_zeros_at_both_parities():
    chi = _sparse_table().chi
    assert not any(chi[5])
    zeros = {nu % 2 for row in chi for nu, c in enumerate(row) if not c and any(row)}
    assert zeros == {0, 1}


def test_full_table_has_no_zero_chi_entry():
    assert all(all(row) for row in _full_table().chi)


@pytest.mark.parametrize("name", DECOMPOSE)
def test_decompose_bytes(capsys, tmp_path, name):
    paths = {}
    for key, table in (("{table}", _sparse_table()), ("{full}", _full_table())):
        paths[key] = tmp_path / f"{key[1:-1]}.json"
        paths[key].write_text(json.dumps(table.to_json()))
    flags, want = DECOMPOSE[name]
    argv = ["decompose", *(str(paths.get(f, f)) for f in flags)]
    assert digest(capsys, argv) == want


# help text at 80 columns, per subcommand ("" is the top level), so that
# a change to how the parser is built cannot change what it prints
HELP = {
    "": "c9897d5abfadfaf3d73687e85caa7244db10a4e0a79d61f4d6ac673b0c77b8f5",
    "decompose": "dffe9bfc5d905a5964026615e22ccc24ccd8dad423820256f2558a28cab5db9f",
    "analyze": "693d60222e2bc2031ef988f8ff210d6f9cd8362ac40ca89fd70522e162272e2d",
    "derive": "393e21f5bc66d307e1958bd7bd4045336b50998d1a40e72101f76d2e150bacf3",
    "verify-case": "9beba8b4710ba596cdf9c9aee1c65299fa6aa8d5e07df1629012f762a682cb44",
    "sweep": "f8dfd396ada30720e6c362369f6b38d159879640b110705a66fed16df54d062b",
}


@pytest.mark.parametrize("command", sorted(HELP), ids=lambda c: c or "top")
def test_help_bytes(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "-h"] if command else ["-h"]
    assert digest(capsys, argv) == HELP[command]
