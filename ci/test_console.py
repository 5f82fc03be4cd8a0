"""Console checks of the `quadmps` command: exit codes, error lines,
pinned report digests and the memory bound of a streamed report.

Run them with `python -m pytest -q ci/`. Each check runs `quadmps` from
PATH when the package is installed, and otherwise `python -m quadmps.cli`
with `src` on PYTHONPATH. Under CI=true a missing console script,
`taskset` or `/dev/full` fails a check instead of skipping it.
"""

import filecmp
import json
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
CI = os.environ.get("CI") == "true"

BASE = "--beta 1 --alpha1 2 --alpha2 3 --gamma 1 --p 0 --q 0 --a 0".split()
MAIN = ["--family", "main", *BASE]
# coefficients of about 1.2k bits at nmax 120
SPLIT = ["--family", "main", "--beta", "1/3", "--alpha1", "2/5", "--alpha2", "3/7",
         "--gamma", "5/11", "--p", "0", "--q", "0", "--a", "0"]


def need(found, what: str) -> None:
    if not found:
        (pytest.fail if CI else pytest.skip)(f"no {what}")


class Quadmps:
    """Runs the command with the package importable, in a directory of its own."""

    def __init__(self, cwd: Path):
        script = shutil.which("quadmps")
        need(script or not CI, "quadmps console script")
        self.argv = [script] if script else [sys.executable, "-m", "quadmps.cli"]
        self.env = dict(os.environ)
        if not script:
            self.env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
            )
        self.cwd = cwd

    def __call__(self, *args, prefix=(), stdout=subprocess.PIPE, env=None):
        """The finished process, its stdout and stderr in bytes."""
        return subprocess.run(
            [*prefix, *self.argv, *args], stdout=stdout, stderr=subprocess.PIPE,
            cwd=self.cwd, env={**self.env, **(env or {})}, timeout=600,
        )

    def python(self, code: str, *args) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", code, *args], capture_output=True, cwd=self.cwd,
            env=self.env, timeout=600, check=True,
        )


@pytest.fixture
def quadmps(tmp_path) -> Quadmps:
    return Quadmps(tmp_path)


def hexdigest(data: bytes) -> str:
    return sha256(data).hexdigest()


def stdout_digest(quadmps, *argvs, env=None) -> str:
    """The digest of the stdout of each argv in turn, each exiting 0."""
    out = b""
    for argv in argvs:
        proc = quadmps(*argv, env=env)
        assert proc.returncode == 0, proc.stderr
        out += proc.stdout
    return hexdigest(out)


def assert_one_error_line(proc, code: int) -> None:
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect(quadmps):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import quadmps.cli"],
        capture_output=True, text=True, env=quadmps.env, check=True,
    )
    imported = re.findall(r"\| +(\S+)$", proc.stderr, re.M)
    assert "quadmps.cli" in imported
    assert not {"dataclasses", "inspect"} & set(imported)


def test_a_full_corecursive_tuple_exits_0_and_one_without_tau_exits_4(quadmps):
    argv = ["decompose", "--family", "corecursive", *BASE, "--nmax", "5"]
    assert quadmps(*argv, "--tau", "2").returncode == 0
    assert quadmps(*argv).returncode == 4


@pytest.mark.parametrize(
    "argv",
    [["verify-case", "--case", "co-II", *BASE, "--tau", "2", "--nmax", "5"],
     ["sweep", "--case", "case-X"]],
    ids=["case-mismatch", "unknown-case"],
)
def test_a_dispatch_mismatch_exits_4(quadmps, argv):
    assert quadmps(*argv).returncode == 4


@pytest.mark.parametrize(
    "code, argv",
    [
        (3, ["--family", "main", *BASE, "--nmax", "3"]),
        # tau = -p - beta reproduces the unperturbed family
        (3, ["--family", "corecursive", *BASE, "--tau", "-1", "--nmax", "5"]),
        # xi = 0 zeroes the regularity entry chi_{1,0}; eta1 = 0 scales chi_{0,0} away
        (3, ["--family", "pert2-I", *BASE, "--tau", "2", "--eta1", "3", "--eta2", "5",
             "--xi", "0", "--nmax", "5"]),
        (3, ["--family", "pert2-I", *BASE, "--tau", "2", "--eta1", "0", "--eta2", "5",
             "--xi", "7", "--nmax", "5"]),
        # tau2 = beta and tau1 = -p - beta each reproduce an unperturbed entry
        (3, ["--family", "pert2-II", *BASE, "--tau1", "2", "--tau2", "1", "--nmax", "5"]),
        (3, ["--family", "pert2-II", *BASE, "--tau1", "-1", "--tau2", "5", "--nmax", "5"]),
        (2, ["--sc-file", "missing.json", "--p", "0", "--q", "0", "--a", "0",
             "--nmax", "5"]),
    ],
    ids=["nmax-floor", "corecursive", "pert2-I-xi", "pert2-I-eta1", "pert2-II-tau2",
         "pert2-II-tau1", "missing-sc-file"],
)
def test_a_domain_or_input_error_gives_one_error_line(quadmps, code, argv):
    proc = quadmps("decompose", *argv, stdout=subprocess.DEVNULL)
    assert_one_error_line(proc, code)


def test_help_bytes_at_80_columns_and_the_usage_error_of_an_abbreviation(quadmps):
    # the digests of test_help_bytes in tests/test_golden_bytes.py
    columns = {"COLUMNS": "80"}
    for argv, want in [
        (["-h"], "c9897d5abfadfaf3d73687e85caa7244db10a4e0a79d61f4d6ac673b0c77b8f5"),
        (["decompose", "-h"],
         "dffe9bfc5d905a5964026615e22ccc24ccd8dad423820256f2558a28cab5db9f"),
        (["sweep", "-h"], "f8dfd396ada30720e6c362369f6b38d159879640b110705a66fed16df54d062b"),
    ]:
        assert stdout_digest(quadmps, argv, env=columns) == want
    # the subcommand is read from sys.argv
    proc = quadmps("decomp", env=columns)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert hexdigest(proc.stderr) == (
        "c44ff9f992233b48af02a8fe3f1be4ed54bc6bed124bff4b83689a472abdb50e"
    )


def test_sweep_bytes_at_seeds_0_to_10(quadmps):
    argvs = [["sweep", "--samples", "3", "--nmax", "8", "--seed", str(seed)]
             for seed in range(11)]
    assert stdout_digest(quadmps, *argvs) == (
        "413241b180ae59753ebcb8b570c39af60879effe80ef6866aafda0df115a8417"
    )


@pytest.mark.parametrize(
    "cases, want",
    [
        # early violations included
        (["co-I", "pert2-I", "pert2-II"],
         "b34c14f37f2911778abc52956d3bb12325b0b7711a36276ca66fdb1319fc715e"),
        # B's leading coefficients checked at every index
        (["I", "I-alpha2zero"],
         "c4f3ee64a02aba37e9205f04654ae0416cbca5ef18622ebeefef73af7090e2b2"),
    ],
    ids=["perturbed", "cases-I"],
)
def test_verify_case_bytes_at_nmax_20(quadmps, cases, want):
    argvs = [["verify-case", "--case", case, "--nmax", "20", "--samples", "2", "--seed", "3"]
             for case in cases]
    assert stdout_digest(quadmps, *argvs) == want


def test_derive_bytes_on_the_main_family(quadmps):
    argvs = [["derive", *MAIN, "--nmax", str(nmax)] for nmax in (6, 12, 30)]
    argvs.append(["derive", *MAIN, "--nmax", "12", "--dmax", "3"])
    assert stdout_digest(quadmps, *argvs) == (
        "99b1be56f9283eb2ef7ac996a73044fa7743eb847ecb6ce81154b762b701f452"
    )


def test_derive_bytes_on_the_perturbed_families(quadmps):
    extra = {
        "corecursive": ["--tau", "2"],
        "pert2-I": ["--tau", "2", "--eta1", "3", "--eta2", "5", "--xi", "7"],
        "pert2-II": ["--tau1", "2", "--tau2", "5"],
    }
    argvs = [["derive", "--family", family, *BASE, *flags, "--nmax", str(nmax)]
             for family, flags in extra.items() for nmax in (12, 30)]
    assert stdout_digest(quadmps, *argvs) == (
        "2b63ca127a4e8e360f17f4596842bb760c0177140c7d68f17e0611a36055c0d0"
    )


def assert_stdout_is_the_output_file(quadmps, argv) -> bytes:
    """The report of argv, the same on stdout and in --output."""
    proc = quadmps(*argv)
    assert proc.returncode == 0, proc.stderr
    assert quadmps(*argv, "--output", "output.txt").returncode == 0
    assert (quadmps.cwd / "output.txt").read_bytes() == proc.stdout
    return proc.stdout


def test_decompose_bytes_at_nmax_40(quadmps):
    argv = ["decompose", *MAIN, "--nmax", "40"]
    report = assert_stdout_is_the_output_file(quadmps, argv)
    assert hexdigest(report) == (
        "5a309df19aec5eef220a0b5da77ac010d1f835baf89b7271eab4e61a4abf664a"
    )
    assert stdout_digest(quadmps, [*argv, "--format", "table"]) == (
        "119d2e2af4e0b538c581defe0de94072587ca5eefeb9f1ded267777d0047f964"
    )


DECOMPOSE_120 = "8922b912e0020005dc3b15bc576e9d898c1a413cb0a05c6b9626d63a535c819d"


def test_decompose_bytes_at_nmax_120(quadmps):
    # through the streamed writer, with a forked child where two CPUs allow
    argv = ["decompose", *SPLIT, "--nmax", "120"]
    assert hexdigest(assert_stdout_is_the_output_file(quadmps, argv)) == DECOMPOSE_120
    assert stdout_digest(quadmps, [*argv, "--format", "table"]) == (
        "80d655bd1907bb945d2a0a40d17f45eba56b1559bcaa37bd495694636f89b2ad"
    )


def test_decompose_bytes_at_nmax_120_on_one_cpu(quadmps):
    # on one CPU the writer never forks: the serial side gives the same bytes
    need(shutil.which("taskset"), "taskset")
    proc = quadmps("decompose", *SPLIT, "--nmax", "120", prefix=["taskset", "-c", "0"])
    assert proc.returncode == 0, proc.stderr
    assert hexdigest(proc.stdout) == DECOMPOSE_120


TABLE_240 = ["decompose", *SPLIT, "--nmax", "240", "--format", "table"]


@pytest.fixture(scope="module")
def table_240(tmp_path_factory) -> Path:
    """The nmax-240 table on stdout, about 47 MB, in a file."""
    quadmps = Quadmps(tmp_path_factory.mktemp("table-240"))
    path = quadmps.cwd / "stdout.txt"
    with open(path, "wb") as out:
        assert quadmps(*TABLE_240, stdout=out).returncode == 0
    return path


def test_the_nmax_240_table_streams_under_80_mb(quadmps, table_240):
    # a process of its own, so that no other child's peak is counted
    proc = quadmps.python(
        "import resource, subprocess, sys\n"
        "subprocess.run(sys.argv[1:], check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)",
        *quadmps.argv, *TABLE_240, "--output", "output.txt",
    )
    rss = float(proc.stdout)
    assert rss < 80, f"max RSS {rss:.1f} MB"
    assert filecmp.cmp(table_240, quadmps.cwd / "output.txt", shallow=False)


def test_a_reader_that_closes_inside_the_last_line_gives_one_error_line(quadmps, table_240):
    # the last line is 193 kB long: the reader closes the pipe inside it
    with subprocess.Popen(
        [*quadmps.argv, *TABLE_240], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=quadmps.cwd, env=quadmps.env,
    ) as proc:
        left = table_240.stat().st_size - 150_000
        while left:
            left -= len(proc.stdout.read(min(left, 1 << 20)))
        proc.stdout.close()
        _, err = proc.communicate(timeout=600)
    assert_one_error_line(subprocess.CompletedProcess(proc.args, proc.returncode, b"", err), 2)


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_a_full_stdout_gives_one_error_line(quadmps, fmt):
    need(os.path.exists("/dev/full"), "/dev/full")
    with open("/dev/full", "wb") as full:
        proc = quadmps(*TABLE_240[:-1], fmt, stdout=full)
    assert_one_error_line(proc, 2)


def test_a_malformed_decompose_leaves_the_next_in_process_call_its_bytes(quadmps):
    # the two calls share one parser
    quadmps.python(
        "from quadmps.cli import main\n"
        f"flags = {MAIN!r}\n"
        "assert main(['decompose', *flags, '--nmax', 'x']) == 2\n"
        "assert main(['decompose', *flags, '--nmax', '40', '--output', 'out.json']) == 0\n"
    )
    assert hexdigest((quadmps.cwd / "out.json").read_bytes()) == (
        "5a309df19aec5eef220a0b5da77ac010d1f835baf89b7271eab4e61a4abf664a"
    )


def test_derive_and_decompose_take_no_seed(quadmps):
    argv = ["derive", *MAIN, "--nmax", "12"]
    plain = quadmps(*argv)
    assert plain.returncode == 0
    assert quadmps(*argv, env={"QUADMPS_SEED": "not-a-seed"}).stdout == plain.stdout
    assert quadmps("decompose", *MAIN, "--seed", "1").returncode == 2


@pytest.mark.parametrize("command", ["decompose", "analyze", "derive"])
@pytest.mark.parametrize(
    "family, extra",
    [("main", []), ("pert2-I", ["--tau", "2", "--eta1", "3", "--eta2", "5", "--xi", "7"])],
    ids=["main", "pert2-I"],
)
def test_an_sc_file_prints_the_family_bytes(quadmps, command, family, extra):
    build = {
        "main": "family_main(CaseParams(1, 2, 3, 1, 0, 0, 0))",
        "pert2-I": "family_pert2_I(CaseParams(1, 2, 3, 1, 0, 0, 0, tau=2, eta1=3, eta2=5, xi=7))",
    }[family]
    quadmps.python(
        "import json\n"
        "from quadmps.families import CaseParams, family_main, family_pert2_I\n"
        f"table = {build}.table(30)\n"
        "open('table.json', 'w').write(json.dumps(table.to_json()))"
    )
    # with --sc-file only decompose reads a parameter flag (--p/--q/--a)
    mapped = ["--p", "0", "--q", "0", "--a", "0"] if command == "decompose" else []
    printed = quadmps(command, "--family", family, *BASE, *extra, "--nmax", "12")
    stored = quadmps(command, "--sc-file", "table.json", *mapped, "--nmax", "12")
    assert printed.returncode == 0 and stored.stdout == printed.stdout


def test_decompose_bytes_from_a_dense_sc_file(quadmps):
    # 1891 entries, of which 111 distinct
    rng = random.Random(27)

    def entry(nonzero):
        while True:
            value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if value or not nonzero:
                return str(value)

    table = {"beta": [entry(False) for _ in range(61)],
             "chi": [[entry(True) for _ in range(n + 1)] for n in range(60)]}
    (quadmps.cwd / "dense.json").write_text(json.dumps(table))
    argv = ["decompose", "--sc-file", "dense.json", "--p", "1/2", "--q", "1/3", "--a", "0",
            "--nmax", "30"]
    assert stdout_digest(quadmps, argv) == (
        "9959b61bba772b6f3e3b42a737c829ef05fe91bebd0e7ac49f0bef15686872f0"
    )


def test_a_dense_report_past_the_fork_threshold_keeps_its_bytes(quadmps):
    # every chi entry nonzero: at nmax 60 the JSON report's formatting work
    # crosses cli._FORK_WORK, so a forked child formats part of it where
    # two CPUs allow; the table form is written serially
    rng = random.Random(60)

    def entry(nonzero):
        while True:
            value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if value or not nonzero:
                return str(value)

    table = {"beta": [entry(False) for _ in range(121)],
             "chi": [[entry(True) for _ in range(n + 1)] for n in range(120)]}
    (quadmps.cwd / "dense.json").write_text(json.dumps(table))
    flags = ["--p", "1/2", "--q", "1/3", "--a", "0", "--nmax", "60"]
    quadmps.python(
        "import json\n"
        "from quadmps import cli\n"
        "from quadmps.decomposition import QuadMap, decompose\n"
        "from quadmps.sequences import StructureCoefficients\n"
        "sc = StructureCoefficients.from_json(json.load(open('dense.json')))\n"
        "records = decompose(sc, QuadMap('1/2', '1/3', 0), 60).layout()['components']\n"
        "parts = [r[k] for r in records for k in ('P', 'a_prev', 'b', 'R')]\n"
        "assert sum(cli._works(parts)) > cli._FORK_WORK\n"
    )
    argv = ["decompose", "--sc-file", "dense.json", *flags]
    assert hexdigest(assert_stdout_is_the_output_file(quadmps, argv)) == (
        "f633f34620d6984c6a1d851537d4389021a11fdf18942fa9c1e9c9ab1f02fdcd"
    )
    assert stdout_digest(quadmps, [*argv, "--format", "table"]) == (
        "95e8263e491da2975f19e44c0a7bf59c0f44381fb52e63eef832e5f0c9626f81"
    )


def write_tables(cwd: Path) -> None:
    d, n = 7**700, 3**1200
    # past the bit bound under a 640-digit limit, and printable
    bound = {"beta": ["0", "0", f"-1/{d}", *["0"] * 6],
             "chi": [[str(d)], [str(-(n + 1)), "0"], *(["0"] * (k + 1) for k in range(2, 8))]}
    # only the last record is too long under a 640-digit limit
    last = {"beta": ["0"] * 7 + [str(10**400)] * 2,
            "chi": [["1"] * (k + 1) for k in range(8)]}

    def big(k):
        return str(10**4000 + k)

    # each entry parses under 4300 digits, the components' coefficients do not
    long = {"beta": [big(k) for k in range(9)],
            "chi": [[big(k + nu) for nu in range(k + 1)] for k in range(8)]}
    for name, table in [("bound", bound), ("last", last), ("long", long)]:
        (cwd / f"{name}.json").write_text(json.dumps(table))


@pytest.mark.parametrize(
    "fmt, want",
    [("json", "5fad3b459563fad73fc1c014497f6f902c5a874909841ea70b155482959106ce"),
     ("table", "04d433f3db8027860e3eb80ba634845c648d740c47ee045e9481b49077fd5c75")],
)
def test_a_report_past_the_bit_bound_prints_at_the_digit_limit(quadmps, fmt, want):
    write_tables(quadmps.cwd)
    argv = ["decompose", "--sc-file", "bound.json", "--p", "0", "--q", "0", "--a", "0",
            "--nmax", "4", "--format", fmt]
    assert stdout_digest(quadmps, argv, env={"PYTHONINTMAXSTRDIGITS": "640"}) == want


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize(
    "limit, table, flags",
    [("640", "last.json", ["--p", "0", "--q", "0", "--a", "0"]),
     ("4300", "long.json", ["--p", "1", "--q", "2", "--a", "3"])],
    ids=["last-record", "4001-digits"],
)
def test_a_coefficient_past_the_digit_limit_exits_3_with_nothing_written(
    quadmps, fmt, limit, table, flags
):
    write_tables(quadmps.cwd)
    proc = quadmps("decompose", "--nmax", "4", "--sc-file", table, *flags, "--format", fmt,
                   env={"PYTHONINTMAXSTRDIGITS": limit})
    assert proc.stdout == b""
    assert_one_error_line(proc, 3)
