import errno
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import quadmps.cli as cli
import quadmps.verification as verification
from quadmps.decomposition import QdComponents, QuadMap, decompose
from quadmps.families import (
    CASE_IDS,
    FAMILIES,
    PERTURBATION_FIELDS,
    CaseParams,
    build_family,
    case_claims,
    family_main,
)
from quadmps import polynomials
from quadmps.polynomials import Poly
from quadmps.rationals import format_rational
from quadmps.sequences import BandedRule, StructureCoefficients

from conftest import json_values, random_dense_sc, rational, three_term, with_random_zeros
from test_golden_bytes import HELP, digest

F = Fraction

MAIN_FLAGS = [
    "--beta", "1", "--alpha1", "2", "--alpha2", "3", "--gamma", "1",
    "--p", "0", "--q", "0", "--a", "0",
]

# each family's perturbation flags (valid with MAIN_FLAGS), and one it does
# not take
FAMILY_FLAGS = {
    "main": ([], "tau"),
    "corecursive": (["--tau", "2"], "tau1"),
    "pert2-I": (["--tau", "2", "--eta1", "2", "--eta2", "3", "--xi", "5"], "tau2"),
    "pert2-II": (["--tau1", "2", "--tau2", "3"], "tau"),
}


@pytest.fixture
def digit_limit():
    """Set the interpreter's integer-string limit for one test."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_family_json(self, capsys):
        code, out, _ = run(
            capsys, ["decompose", "--family", "main", *MAIN_FLAGS, "--nmax", "6"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["nmax"] == 6
        record1 = payload["components"][1]
        assert record1["P"] == ["-3", "1"]
        assert record1["R"] == ["-6", "1"]
        assert record1["a_prev"] == []  # null component: the zero polynomial
        assert payload["components"][0]["b"] == ["1"]
        components = QdComponents.from_json(payload)
        assert components.to_json() == payload

    def test_sc_file_matches_family(self, capsys, tmp_path):
        code, family_out, _ = run(
            capsys, ["decompose", "--family", "main", *MAIN_FLAGS, "--nmax", "5"]
        )
        assert code == 0
        rule = BandedRule.two_orthogonal(
            beta=lambda n: F(1) if n % 2 else F(-1),
            alpha=lambda m: F(2) if m % 2 else F(3),
            gamma=lambda m: F(-1) if m % 2 else F(1),
        )
        path = tmp_path / "table.json"
        path.write_text(json.dumps(rule.table(10).to_json()))
        code, file_out, _ = run(
            capsys,
            [
                "decompose", "--sc-file", str(path),
                "--p", "0", "--q", "0", "--a", "0", "--nmax", "5",
            ],
        )
        assert code == 0
        assert file_out == family_out

    def test_input_source_is_exclusive(self, capsys, tmp_path):
        code, _, err = run(capsys, ["decompose", *MAIN_FLAGS, "--nmax", "5"])
        assert code == 2
        assert "exactly one" in err

    def test_missing_param_flag(self, capsys):
        code, _, err = run(
            capsys, ["decompose", "--family", "main", *MAIN_FLAGS[2:]]
        )
        assert code == 2
        assert "--beta" in err

    def test_family_flag_mismatches(self, capsys):
        for family, (takes, foreign) in FAMILY_FLAGS.items():
            argv = ["decompose", "--family", family, *MAIN_FLAGS, "--nmax", "4"]
            code, _, err = run(capsys, [*argv, *takes, f"--{foreign}", "1"])
            assert code == 4, family
            assert f"takes no --{foreign}" in err, family
            for k in range(0, len(takes), 2):
                dropped = takes[:k] + takes[k + 2:]
                code, _, err = run(capsys, [*argv, *dropped])
                assert code == 4, (family, takes[k])
                assert f"requires {takes[k]}" in err, (family, takes[k])
            assert run(capsys, [*argv, *takes])[0] == 0, family

    def test_rational_flags_parse_leniently(self, capsys):
        # a flag is typed by hand: any spelling of the value is that value
        argv = ["decompose", "--family", "main", *MAIN_FLAGS, "--nmax", "4"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        for spelling in (" 2/2", "01", "3/3"):
            assert run(capsys, [*argv, "--beta", spelling]) == (0, out, "")

    @pytest.mark.parametrize(
        "beta0",
        ['"' + "7" * 5000 + '"', "7" * 5000],  # a string entry and a JSON number
        ids=["string", "number"],
    )
    def test_sc_file_with_overlong_number_exits_two(self, capsys, tmp_path, beta0):
        path = tmp_path / "table.json"
        path.write_text('{"beta": [' + beta0 + ', "1"], "chi": [["1"]]}')
        code, out, err = run(
            capsys,
            ["decompose", "--sc-file", str(path), "--p", "0", "--q", "0", "--a", "0"],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_sc_file_with_an_unknown_key_exits_two(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        path.write_text('{"beta": ["1", "1"], "chi": [["1"]], "extra": 1}')
        code, out, err = run(
            capsys,
            ["decompose", "--sc-file", str(path), "--p", "0", "--q", "0", "--a", "0"],
        )
        assert code == 2
        assert out == ""
        assert "extra" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        ["[" * 100000 + "]" * 100000, '{"beta": ' + "[" * 100000 + "]" * 100000 + "}"],
        ids=["top-level", "beta"],
    )
    def test_sc_file_nested_past_the_decoder_exits_two(self, capsys, tmp_path, text):
        path = tmp_path / "table.json"
        path.write_text(text)
        code, out, err = run(
            capsys,
            ["decompose", "--sc-file", str(path), "--p", "0", "--q", "0", "--a", "0"],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def run_past_the_digit_limit(self, capsys, tmp_path, extra):
        # each entry parses (4001 digits), but the component coefficients
        # are products of several and pass the 4300-digit str() limit
        big = lambda k: str(10**4000 + k)  # noqa: E731
        table = {
            "beta": [big(n) for n in range(9)],
            "chi": [[big(n + nu) for nu in range(n + 1)] for n in range(8)],
        }
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        target = tmp_path / "report.out"
        if extra[-1:] == ["--output"]:
            extra = [*extra, str(target)]
        code, out, err = run(
            capsys,
            ["decompose", "--sc-file", str(path), "--nmax=4",
             "--p=1", "--q=2", "--a=3", *extra],
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not target.exists()

    def test_output_past_the_digit_limit_exits_three(self, capsys, tmp_path):
        self.run_past_the_digit_limit(capsys, tmp_path, [])

    @pytest.mark.parametrize(
        "extra",
        [["--format", "table"], ["--output"], ["--format", "table", "--output"]],
        ids=["table", "json-output", "table-output"],
    )
    def test_output_past_the_digit_limit_exits_three_in_any_form(
        self, capsys, tmp_path, extra
    ):
        self.run_past_the_digit_limit(capsys, tmp_path, extra)

    def test_a_report_past_the_bit_bound_that_prints_keeps_its_bytes(
        self, capsys, tmp_path, digit_limit
    ):
        # b_1 = N + x/D is stored as (N D + x) / D, past 3.32 * 640 bits,
        # so the bit-length pass formats it once before the first byte;
        # each reduced coefficient (N, 1/D or D) prints under a 640-digit
        # limit
        d, n = 7**700, 3**1200  # 592 and 573 digits
        table = {
            "beta": ["0", "0", f"-1/{d}", *["0"] * 6],
            "chi": [[str(d)], [str(-(n + 1)), "0"],
                    *(["0"] * (k + 1) for k in range(2, 8))],
        }
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        digit_limit(640)
        c = decompose(StructureCoefficients.from_json(table).table(8), QuadMap(0, 0, 0), 4)
        assert c.b_seq[1] == Poly((n, F(1, d)))
        stored = (x for f in c.b_seq for x in (f._den, *f._num))
        assert max(map(int.bit_length, stored)) > 640 * 332 // 100
        # the bytes of this report when such a report was formatted whole
        for fmt, expected in [
            ("json", "5fad3b459563fad73fc1c014497f6f902c5a874909841ea70b155482959106ce"),
            ("table", "04d433f3db8027860e3eb80ba634845c648d740c47ee045e9481b49077fd5c75"),
        ]:
            argv = ["decompose", "--sc-file", str(path), "--nmax=4", *MAP_FLAGS,
                    f"--format={fmt}"]
            code, out, err = run(capsys, argv)
            assert (code, err) == (0, "")
            assert sha256(out.encode()).hexdigest() == expected
            target = tmp_path / f"report.{fmt}"
            assert run(capsys, [*argv, "--output", str(target)]) == (0, "", "")
            assert target.read_text() == out

    @pytest.mark.parametrize(
        "extra",
        [[], ["--format", "table"], ["--output"], ["--format", "table", "--output"]],
        ids=["json", "table", "json-output", "table-output"],
    )
    def test_only_the_last_record_past_the_digit_limit_writes_nothing(
        self, capsys, tmp_path, digit_limit, extra
    ):
        # records 0-3 print; b and R of record 4 hold 802-digit coefficients
        table = {"beta": ["0"] * 7 + [str(10**400)] * 2,
                 "chi": [["1"] * (n + 1) for n in range(8)]}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        target = tmp_path / "report.out"
        if extra[-1:] == ["--output"]:
            extra = [*extra, str(target)]
        digit_limit(640)
        code, out, err = run(
            capsys,
            ["decompose", "--sc-file", str(path), "--nmax=4", *MAP_FLAGS, *extra],
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: rational too long to print: ")
        assert err.count("\n") == 1
        assert not target.exists()

    def test_unreadable_sc_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["decompose", "--sc-file", str(tmp_path / "absent.json"),
             "--p", "0", "--q", "0", "--a", "0"],
        )
        assert code == 2


class TestParamLists:
    def test_flags_are_the_fields_of_case_params(self):
        # the lists are read off CaseParams: its required fields, the
        # base flags, come first, and every family field is optional
        assert cli._PARAMS == cli._BASE_PARAMS + PERTURBATION_FIELDS == CaseParams._fields
        for entry in FAMILIES.values():
            assert set(entry.fields) <= set(PERTURBATION_FIELDS)


class TestAnalyzeAndDerive:
    def test_analyze_family(self, capsys):
        code, out, _ = run(
            capsys,
            ["analyze", "--family", "main", *MAIN_FLAGS, "--nmax", "8",
             "--dmax", "4"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["detected_d"] == 2
        assert payload["witnesses"][0]["d"] == 1

    def test_analyze_sc_file_needs_no_map(self, capsys, tmp_path):
        rule = three_term(beta=lambda n: F(0), gamma=lambda n: F(n, 2))
        path = tmp_path / "hermite.json"
        path.write_text(json.dumps(rule.table(10).to_json()))
        code, out, _ = run(
            capsys, ["analyze", "--sc-file", str(path), "--dmax", "4"]
        )
        assert code == 0
        assert json.loads(out)["detected_d"] == 1

    def test_derive_constant_rule_is_classical(self, capsys, tmp_path):
        rule = BandedRule.two_orthogonal(
            beta=lambda n: F(0), alpha=lambda m: F(3), gamma=lambda m: F(2)
        )
        path = tmp_path / "constants.json"
        path.write_text(json.dumps(rule.table(12).to_json()))
        code, out, _ = run(
            capsys, ["derive", "--sc-file", str(path), "--nmax", "6"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["classical"] is True
        assert payload["base"]["detected_d"] == 2
        assert payload["derivative"]["detected_d"] == 2

    def test_derive_past_a_short_table_exits_three(self, capsys, tmp_path):
        rule = BandedRule.two_orthogonal(
            beta=lambda n: F(0), alpha=lambda m: F(3), gamma=lambda m: F(2)
        )
        path = tmp_path / "short.json"
        path.write_text(json.dumps(rule.table(12).to_json()))
        code, out, err = run(
            capsys, ["derive", "--sc-file", str(path), "--nmax", "8"]
        )
        assert code == 3
        assert out == ""
        assert err == "error: spec covers W_0..W_13, cannot reach W_16\n"

    def test_decompose_past_a_short_table_exits_three(self, capsys, tmp_path):
        # decompose names its reach as generate_mps and derive do
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"beta": ["0", "1", "2"], "chi": [["1"], ["2", "3"]]}))
        argv = ["decompose", "--sc-file", str(path), "--nmax", "4", *MAP_FLAGS]
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err == "error: spec covers W_0..W_3, cannot reach W_9\n"

    def test_derive_main_family_is_not_classical(self, capsys):
        code, out, _ = run(
            capsys, ["derive", "--family", "main", *MAIN_FLAGS, "--nmax", "6"]
        )
        assert code == 0
        assert json.loads(out)["classical"] is False


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("command", ["decompose", "analyze", "derive"])
    def test_seed_env_is_not_read(self, capsys, monkeypatch, command):
        argv = [command, "--family", "main", *MAIN_FLAGS, "--nmax", "6"]
        code, plain, _ = run(capsys, argv)
        assert code == 0
        monkeypatch.setenv("QUADMPS_SEED", "not-a-seed")
        assert run(capsys, argv) == (0, plain, "")

    @pytest.mark.parametrize(
        "argv",
        [["decompose", "--dmax", "3"], ["analyze", "--seed", "1"],
         ["derive", "--samples", "2"]],
        ids=lambda argv: " ".join(argv),
    )
    def test_unread_flag_exits_two(self, capsys, argv):
        code, out, err = run(capsys, [*argv, "--family", "main", *MAIN_FLAGS])
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {argv[1]}" in err
        assert "Traceback" not in err

    def test_an_echoed_newline_stays_on_the_error_line(self, capsys):
        # argparse echoes an unread flag as it was typed
        code, out, err = run(capsys, ["decompose", "--dmax=1\nerror: 2"])
        assert (code, out) == (2, "")
        usage, error = err.splitlines()
        assert usage.startswith("usage: quadmps ")
        assert error == "quadmps: error: unrecognized arguments: --dmax=1\\nerror: 2"


MAP_FLAGS = MAIN_FLAGS[-6:]


class TestScFileTakesOnlyTheFlagsItReads:
    @pytest.fixture
    def path(self, tmp_path):
        params = CaseParams(beta=1, alpha1=2, alpha2=3, gamma=1, p=0, q=0, a=0)
        path = tmp_path / "main.json"
        path.write_text(json.dumps(family_main(params).table(30).to_json()))
        return str(path)

    @pytest.mark.parametrize("command", ["decompose", "analyze", "derive"])
    @pytest.mark.parametrize("extra", [["--beta", "1"], ["--xi", "2"],
                                       ["--gamma=1", "--tau1=1/2"]])
    def test_unread_parameter_flag_exits_two(self, capsys, path, command, extra):
        maps = MAP_FLAGS if command == "decompose" else []
        argv = [command, "--sc-file", path, *maps, *extra, "--nmax", "6"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        names = " ".join(f.split("=")[0] for f in extra if f.startswith("--"))
        assert err == f"error: {command} --sc-file does not read {names}\n"

    @pytest.mark.parametrize("given, missing", [([], "--p --q --a"),
                                                (["--q", "0"], "--p --a")])
    def test_decompose_needs_the_map_flags(self, capsys, path, given, missing):
        code, out, err = run(capsys, ["decompose", "--sc-file", path, *given])
        assert (code, out) == (2, "")
        assert err == f"error: missing quadratic-map flags: {missing}\n"

    @pytest.mark.parametrize("command", ["analyze", "derive"])
    def test_map_flags_are_unread_without_decompose(self, capsys, path, command):
        code, _, err = run(capsys, [command, "--sc-file", path, "--p", "0"])
        assert code == 2
        assert err == f"error: {command} --sc-file does not read --p\n"


class TestScFileReadsNmax:
    @pytest.mark.parametrize("nmax", ["8", "12"])
    @pytest.mark.parametrize("command", ["decompose", "analyze", "derive"])
    def test_sc_file_prints_the_family_bytes(self, capsys, tmp_path, command, nmax):
        # a stored table longer than the depth is read to the same depth
        params = CaseParams(beta=1, alpha1=2, alpha2=3, gamma=1, p=0, q=0, a=0)
        path = tmp_path / "main.json"
        path.write_text(json.dumps(family_main(params).table(30).to_json()))
        flags = ["--nmax", nmax, *(MAP_FLAGS if command == "decompose" else [])]
        family = run(capsys, [command, "--family", "main", *MAIN_FLAGS, "--nmax", nmax])
        assert family[0] == 0
        assert run(capsys, [command, "--sc-file", str(path), *flags]) == family


# every reduced n/d with d <= 9 and |n/d| <= 9, as the CLI writes it;
# a fixed list is far cheaper to draw from than st.fractions
canonical = st.sampled_from([
    format_rational(v)
    for v in sorted(
        {Fraction(n, d) for d in range(1, 10) for n in range(-9 * d, 9 * d + 1)},
        key=lambda v: (v.denominator, abs(v), v < 0),
    )
])
odd_rationals = st.one_of(
    st.sampled_from(
        ["2/4", "+1", " 1", "1 ", "-0", "01", "1/-2", "1/0", "0/0", "1.5", "1e3",
         "", "x", "1/2/3", "\uff11", "7" * 5000, "1/" + "3" * 5000]
    ),
    st.integers().map(str),
    st.builds(lambda k: "9" * k, st.integers(40, 400)),
    json_values,
)


@st.composite
def sc_payloads(draw):
    """A table payload with up to three mutations: an odd entry, a declared
    nmax, a ragged or missing chi row, an extra, missing or retyped key,
    or an arbitrary JSON value in place of the whole payload."""
    # long enough for every command below, or shorter than its depth
    nmax = draw(st.integers(0, 11))
    payload = {
        "beta": draw(st.lists(canonical, min_size=nmax + 1, max_size=nmax + 1)),
        "chi": [draw(st.lists(canonical, min_size=n + 1, max_size=n + 1))
                for n in range(nmax)],
    }
    # applied in this order, so the key mutations come last
    kinds = ["entry", "nmax", "drop_row", "ragged", "extra", "drop_key", "retype"]
    chosen = draw(st.sets(st.sampled_from(kinds), max_size=3))
    for kind in (k for k in kinds if k in chosen):
        if kind == "entry":
            rows = [payload["beta"], *payload["chi"]]
            row = rows[draw(st.integers(0, len(rows) - 1))]
            row[draw(st.integers(0, len(row) - 1))] = draw(odd_rationals)
        elif kind == "nmax":
            payload["nmax"] = draw(st.integers(-2, 12) | json_values)
        elif kind == "drop_row" and payload["chi"]:
            del payload["chi"][draw(st.integers(0, len(payload["chi"]) - 1))]
        elif kind == "ragged" and payload["chi"]:
            row = payload["chi"][draw(st.integers(0, len(payload["chi"]) - 1))]
            if draw(st.booleans()):
                row.append("1")
            else:
                row.pop()
        elif kind == "extra":
            payload[draw(st.text(max_size=8))] = draw(json_values)
        elif kind == "drop_key":
            payload.pop(draw(st.sampled_from(["beta", "chi"])), None)
        elif kind == "retype":
            payload[draw(st.sampled_from(["beta", "chi"]))] = draw(json_values)
    return draw(st.just(payload) | json_values)


@pytest.fixture(scope="module")
def sc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "table.json"


class TestScFileFuzz:
    @pytest.mark.parametrize("command", ["decompose", "analyze", "derive"])
    @settings(max_examples=100, deadline=None)
    @given(payload=sc_payloads(), nmax=st.sampled_from(["4", "5"]))
    def test_exit_code_and_one_error_line(self, sc_path, command, payload, nmax):
        sc_path.write_text(json.dumps(payload))
        argv = [command, "--sc-file", str(sc_path), "--nmax", nmax]
        if command == "decompose":
            argv += MAP_FLAGS
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert code in range(5)
        if code == 0:
            assert err.getvalue() == ""
            json.loads(out.getvalue())
        else:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()


class TestVerifyCase:
    def test_explicit_tuple_passes(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify-case", "--case", "I", *MAIN_FLAGS, "--nmax", "8",
             "--dmax", "6"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["case"] == "I"

    def test_sampled_run_passes(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify-case", "--case", "II", "--samples", "2", "--seed", "7",
             "--nmax", "8", "--dmax", "6"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passes"] == 2

    def test_case_mismatch_exits_four(self, capsys):
        flags = [
            "--beta", "1", "--alpha1", "2", "--alpha2", "3", "--gamma", "1",
            "--p", "-1", "--q", "0", "--a", "0",  # p = -beta - a
        ]
        code, _, err = run(
            capsys, ["verify-case", "--case", "I", *flags, "--nmax", "8"]
        )
        assert code == 4
        assert "p = -beta - a" in err

    def test_unperturbed_table_exits_four(self, capsys):
        flags = [
            "--a=8", "--alpha1=1/3", "--alpha2=2", "--beta=7/6", "--eta1=1",
            "--eta2=1", "--gamma=-5/9", "--p=3/2", "--q=1", "--tau=4",
            "--xi=-1/3",
        ]
        code, _, err = run(capsys, ["verify-case", "--case", "pert2-I", *flags])
        assert code == 4
        assert "(R unperturbed)" in err

    def test_malformed_rational_exits_two(self, capsys):
        code, _, _ = run(
            capsys,
            ["verify-case", "--case", "I", "--beta", "3/0", *MAIN_FLAGS[2:]],
        )
        assert code == 2

    def test_small_nmax_exits_three(self, capsys):
        code, _, err = run(
            capsys,
            ["verify-case", "--case", "I", *MAIN_FLAGS, "--nmax", "3"],
        )
        assert code == 3

    @pytest.mark.parametrize(
        "flag, limit", [("--nmax", cli.NMAX_LIMIT), ("--samples", cli.SAMPLES_LIMIT)]
    )
    def test_resource_limit_itself_is_accepted(self, capsys, monkeypatch, flag, limit):
        # the command is stubbed: only the validation runs at the limit
        seen = []
        monkeypatch.setitem(
            cli._COMMANDS, "sweep", lambda args: (seen.append(args) or {}, False)
        )
        code, _, _ = run(capsys, ["sweep", flag, str(limit)])
        assert code == 0
        assert getattr(seen[0], flag[2:]) == limit

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--nmax", str(cli.NMAX_LIMIT + 1)],
            ["sweep", "--samples", str(cli.SAMPLES_LIMIT + 1)],
            ["derive", "--family", "main", *MAIN_FLAGS,
             "--nmax", str(cli.NMAX_LIMIT + 1)],
            ["verify-case", "--case", "I", "--samples", str(cli.SAMPLES_LIMIT + 1)],
        ],
    )
    def test_past_a_resource_limit_exits_three(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_failed_verdict_exits_one(self, capsys, monkeypatch):
        real = cli.verify_case

        def failing(case_id, params, nmax, dmax):
            verdict = real(case_id, params, nmax=nmax, dmax=dmax)
            first, *rest = verdict.identities
            return verdict._replace(identities=(first._replace(ok=False), *rest))

        monkeypatch.setattr(cli, "verify_case", failing)
        code, out, _ = run(
            capsys,
            ["verify-case", "--case", "I", *MAIN_FLAGS, "--nmax", "8",
             "--dmax", "6"],
        )
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_seed_env_variable(self, capsys, monkeypatch):
        argv = ["verify-case", "--case", "I", "--samples", "1", "--nmax", "8",
                "--dmax", "6"]
        monkeypatch.setenv("QUADMPS_SEED", "7")
        code, env_out, _ = run(capsys, argv)
        assert code == 0
        monkeypatch.delenv("QUADMPS_SEED")
        code, flag_out, _ = run(capsys, argv + ["--seed", "7"])
        assert code == 0
        assert env_out == flag_out

    def test_malformed_seed_env_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("QUADMPS_SEED", "not-a-seed")
        code, _, err = run(
            capsys,
            ["verify-case", "--case", "I", "--samples", "1", "--nmax", "8"],
        )
        assert code == 2
        assert "QUADMPS_SEED" in err


class TestSweep:
    def test_single_case_sweep(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--case", "I", "--samples", "2", "--seed", "5",
             "--nmax", "8", "--dmax", "6"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["cases"]["I"]["passes"] == 2
        assert payload["cases"]["I"]["exceptional"] == []

    def test_jobs_past_cpu_count_keep_the_bytes(
        self, capsys, monkeypatch, serial_pool
    ):
        monkeypatch.setattr(verification.os, "cpu_count", lambda: 2)
        argv = ["sweep", "--case", "I", "--samples", "3", "--seed", "5",
                "--nmax", "8", "--dmax", "6"]
        code, serial, _ = run(capsys, [*argv, "--jobs", "1"])
        assert code == 0 and serial_pool == []
        code, pooled, _ = run(capsys, [*argv, "--jobs", "64"])
        assert code == 0 and serial_pool == [2]
        assert pooled == serial

    def test_a_repeated_case_is_verified_once(self, capsys, monkeypatch):
        calls = []
        real = cli.verify_sampled

        def counted(case_id, *args, **kwargs):
            calls.append(case_id)
            return real(case_id, *args, **kwargs)

        monkeypatch.setattr(cli, "verify_sampled", counted)
        argv = ["sweep", "--samples", "2", "--seed", "5", "--nmax", "8"]
        code, once, _ = run(capsys, [*argv, "--case", "I"])
        assert code == 0 and calls == ["I"]
        calls.clear()
        code, _, _ = run(capsys, [*argv, "--case", "I", "--case", "II", "--case", "I"])
        assert code == 0 and calls == ["I", "II"]
        calls.clear()
        code, repeated, _ = run(capsys, [*argv, "--case", "I", "--case", "I"])
        assert code == 0 and calls == ["I"]
        assert repeated == once

    def test_unknown_case_exits_four(self, capsys):
        code, _, err = run(capsys, ["sweep", "--case", "case-X"])
        assert code == 4
        assert "unknown case" in err

    def test_runs_are_deterministic(self, capsys):
        argv = ["sweep", "--case", "II-alpha2zero", "--samples", "2",
                "--seed", "9", "--nmax", "8", "--dmax", "6"]
        code, first, _ = run(capsys, argv)
        assert code == 0
        code, second, _ = run(capsys, argv)
        assert code == 0
        assert first == second


class TestOutputModes:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        argv = ["decompose", "--family", "main", *MAIN_FLAGS, "--nmax", "5"]
        code, direct, _ = run(capsys, argv)
        assert code == 0
        code, silent, _ = run(capsys, argv + ["--output", str(target)])
        assert code == 0
        assert silent == ""
        assert target.read_text() == direct

    @pytest.mark.parametrize("flag, verb", [("--sc-file", "read"), ("--output", "write")])
    def test_a_name_with_a_newline_stays_on_the_error_line(
        self, capsys, tmp_path, flag, verb
    ):
        name = str(tmp_path / "absent" / "x\nerror: y")
        source = [] if flag == "--sc-file" else ["--family", "main", *MAIN_FLAGS]
        code, out, err = run(capsys, ["analyze", *source, flag, name])
        assert (code, out) == (2, "")
        escaped = name.replace("\n", "\\n")
        assert err.startswith(f"error: cannot {verb} {escaped}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_a_closed_stdout_pipe_exits_two_with_one_error_line(self, fmt):
        # `quadmps decompose ... | head -c 100`: at nmax 80 either report is
        # over 300 kB, more than a pipe holds, so the writer meets the
        # closed end before it is done
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        argv = [sys.executable, "-m", "quadmps.cli", "decompose", "--family", "main",
                *MAIN_FLAGS, "--nmax", "80", "--format", fmt]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True
        ) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert len(head) == 100
        assert proc.returncode == 2
        assert err.startswith("error: cannot write stdout: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_stdout_on_dev_full_exits_two_with_one_error_line(self, fmt):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        argv = [sys.executable, "-m", "quadmps.cli", "analyze", "--family", "main",
                *MAIN_FLAGS, "--nmax", "4", "--format", fmt]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                argv, stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=120
            )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write stdout: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_a_table_formats_each_polynomial_as_it_writes_it(self, monkeypatch):
        written = []
        real_format = cli.format_poly

        def format_poly(f):
            written.append(len(sys.stdout.getvalue()))
            return real_format(f)

        monkeypatch.setattr(cli, "format_poly", format_poly)
        argv = ["decompose", "--family", "main", *MAIN_FLAGS, "--nmax", "8",
                "--format", "table"]
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert len(written) == 4 * 9
        assert any(written[1:])

    @pytest.mark.parametrize("report", ["json", "table", "verify-case"])
    def test_the_last_write_of_a_report_is_one_newline(self, report):
        # a long write can end short with no error on a closed pipe, so the
        # last one must be short
        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        writes = []
        argv = {
            "json": [*SPLIT_ARGV, "--nmax=12"],
            "table": [*SPLIT_ARGV, "--nmax=12", "--format=table"],
            "verify-case": ["verify-case", "--case", "co-II", "--samples", "2",
                            "--seed", "1", "--nmax", "8", "--format", "table"],
        }[report]
        with redirect_stdout(Recorder()):
            assert cli.main(argv) == 0
        assert writes[-1] == "\n" and len(writes) > 2

    def test_decompose_table_format(self, capsys):
        code, out, _ = run(
            capsys,
            ["decompose", "--family", "main", *MAIN_FLAGS, "--nmax", "4",
             "--format", "table"],
        )
        assert code == 0
        assert "P      = x - 3" in out
        assert "R      = x - 6" in out
        assert "anchor a = 0" in out

    def test_verify_table_format(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify-case", "--case", "I", *MAIN_FLAGS, "--nmax", "8",
             "--dmax", "6", "--format", "table"],
        )
        assert code == 0
        assert "case I: PASS" in out

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert cli.main(["sweep", "--help"]) == 0
        out = capsys.readouterr().out
        assert f"4..{cli.NMAX_LIMIT}" in out and f"1..{cli.SAMPLES_LIMIT}" in out
        assert cli.main(["decompose", "--bogus"]) == 2


def parse(parser, argv):
    """(exit code, stdout, stderr, namespace) of parser.parse_args(argv);
    the code is None when argv parses, the namespace None when it exits."""
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace = parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


# each subcommand with valid flags, help, a missing, unknown or
# abbreviated subcommand, abbreviated and ambiguous long flags, another
# subcommand's flag (echoed as typed), bad values, and a subcommand name
# given where a value or nothing is expected
PARSER_CORPUS = [
    ["decompose", "--family", "main", *MAIN_FLAGS, "--nmax", "5", "--format", "table"],
    ["decompose", "--sc-file", "t.json", *MAP_FLAGS, "--output", "out.json"],
    ["analyze", "--family=corecursive", *MAIN_FLAGS, "--tau=2", "--dmax", "3"],
    ["derive", "--sc-file", "t.json", "--nmax", "30", "--dmax", "2"],
    ["verify-case", "--case", "co-I", "--samples", "2", "--seed", "3", "--nmax", "8"],
    ["verify-case", "--case", "I", *MAIN_FLAGS, "--format", "json"],
    ["sweep", "--case", "I", "--case=co-II", "--jobs", "2", "--samples", "1"],
    ["sweep"],
    ["-h"],
    ["--help"],
    *([command, "-h"] for command in cli._COMMANDS),
    ["sweep", "--samples", "2", "--help"],
    [],
    ["decomp"],
    ["decomp", "--nmax", "5"],
    ["Sweep"],
    ["--nmax", "5", "decompose"],
    ["decompose", "--nm", "5", "--fam", "main"],
    ["sweep", "--s", "3"],
    ["sweep", "--sam=3", "--se", "4"],
    ["decompose", "--dmax", "3"],
    ["decompose", "--dmax=1\nerror: 2"],
    ["derive", "--samples", "2", "--family", "main"],
    ["sweep", "--tau", "1"],
    ["verify-case"],
    ["verify-case", "--nmax", "5"],
    ["decompose", "--output", "sweep", "--family", "main", *MAIN_FLAGS],
    ["analyze", "--output=derive", "--sc-file", "verify-case"],
    ["sweep", "--case", "decompose", "--case", "analyze"],
    ["decompose", "analyze"],
    ["decompose", "--format", "sweep"],
    ["verify-case", "--case", "I", "--", "sweep"],
    ["--", "decompose", "--family", "main", *MAIN_FLAGS],
    ["decompose", "--nmax", "x"],
    ["sweep", "--jobs", "1.5"],
    ["analyze", "--beta", "1/0"],
]


# the sha256 of repr((exit code, stdout, stderr, sorted namespace items))
# of each PARSER_CORPUS argv at COLUMNS=80, in corpus order: recorded when
# each set of subcommands an argv named had a parser of its own with only
# their flags, and the same for the parser with every subcommand's flags
PARSER_PINS = [
    "ab7b119798d4719bf05160b28b486d60c226524ecd89c37f1d66b2964b634452",
    "6e551c0c83694f2175dab5e08582e17a1a6899f65e0995b71b4e208ed5b7c4b8",
    "149475341f8856afa96215c4501af19bbb15df25f6202b789f177ded6ba2c877",
    "a97bdca03204680f919acb16dc5f6c15769512615b117cd23c1b2b765afa6fea",
    "75241b2c21108cd1dac2aad76284bce6246a47af9db026d5417ddd8ee0943fdb",
    "e64cc4c1fee35eb33a06c3152a7b32567f1f109993ad602889d8f120cfb91461",
    "6c98f11f9b08b7485e222e72273586c68d64f5fd998ff6362b847a8fcba7966c",
    "556a16cb13e6ab078455342194b65827c0cd08bbd180a27a2a45db25881adf7e",
    "bbad6678164d94d1ade1f9bc3eba24a51d41556809d2a54685497460e7c49879",
    "bbad6678164d94d1ade1f9bc3eba24a51d41556809d2a54685497460e7c49879",
    "e066fb5a8f7962873bca218db927e44566de578c6abf4a91498bbcecc332bbf9",
    "9750d99eb5c7cf9db4b10b36d664c37203a30110d13cfb7d39584419599cb8d1",
    "dbf650cdd9b51af7cdb7881f90d9b9f74d30e3a71c3eec8f41669d532730c24e",
    "a367a6a0882959eee3089c9a79d5d978b89851c2a5f14766e8e5424f9e5662af",
    "be1ad10af93deda5de6f373fd77ab1aa4eb841591647b64c433949c1451216fd",
    "be1ad10af93deda5de6f373fd77ab1aa4eb841591647b64c433949c1451216fd",
    "0c7fc25f4367709fe7240c79d6136e5557e7850a47cb489e58825b93facf5b5e",
    "f894b07fc74c988d8281738a7d87ca6589acd93498d0e70e241ec1990f959280",
    "f894b07fc74c988d8281738a7d87ca6589acd93498d0e70e241ec1990f959280",
    "b332746b9611ddebd9c9a21d2036b6a1a88aab6588d083b141f86b580c6284a3",
    "223446d22d7e4170f028d263ecccd28cfa1de57947c71d2e5a65649d2ccfa812",
    "ffd7639b87210870c04add1fc4814dcd47dfa8c3ac6ef882cb9705c047febbc1",
    "33a9ee01c9668afd09ad5a0628bee5f7eafe8d0e90654dcdcc1b440608c5caa5",
    "5742b5f8f6acdbfaed59d2eea421c21a19572cfea361ef5e38b9c75d7988f73f",
    "004a1fd94c2167ff6d48249773ca78aa405e61af442987098188ce26bb8ac95e",
    "beb4db5575e049f2f32c71926d2a2a16f4735a24fd6734943e87987bd1ce45bd",
    "95e2bb192b1f7f105073a5edbe965f8e121c545e744081e185a036f4b15a2e84",
    "a2a20bcc3ae445553aebc4cb4830b7c52c04114bab24245fe89f7bfc5cee0684",
    "2ea260239383f71f2eac4affb7e261fea97a42d21039d8257f2feff618d66dbb",
    "2ea260239383f71f2eac4affb7e261fea97a42d21039d8257f2feff618d66dbb",
    "94f3ae0b349abcfcd048725d6a67aab4e1fd749464da335d84d945ef7446fba5",
    "92bb9c066440354b257417451addeff999dc81a1873aedca7b6c47f8915aa10e",
    "b11b59bb76d3717b6fd51a10b356219d769dc5129c2dc214a07434a905146472",
    "3a39ad977ab351c9923c5c7bc9f020c48616b79237ad821310b17f960543b074",
    "1781949455754eaab2ce5b1e7647419d619c578cd024c3b3b5d68603c55d38fa",
    "fd05a2cf58c5b623bd027f4bb4408e4dad48a9abff20ba88c36c0d22406b776f",
    "987cf0c0ccb150854ec2c48f481c280e79c00138173b830ae4044955778761e6",
    "4229ae8ba4c6728e1b3465fbd4e344d751669fb367dbb61584b9c2f8fc5519c0",
    "4fa39a3f7284b557b2e3f7621112e5a6eb5ba7870d471b167c6132912026e482",
    "31badc9626daa86b1dab30229ceb9ccca3b527baa75cd2fb7d612fc25c3da77e",
]


def outcome(argv):
    code, out, err, namespace = parse(cli._parser(), argv)
    fields = None if namespace is None else sorted(vars(namespace).items())
    return sha256(repr((code, out, err, fields)).encode()).hexdigest()


class TestParserPerSubcommand:
    """The parser parses, prints and fails on each argv of the corpus as
    the pin records: as the parser with all five subcommands' flags."""

    @pytest.mark.parametrize(
        "argv, pin",
        zip(PARSER_CORPUS, PARSER_PINS),
        ids=[" ".join(argv) for argv in PARSER_CORPUS],
    )
    def test_outcome_matches_its_pin(self, monkeypatch, argv, pin):
        monkeypatch.setenv("COLUMNS", "80")
        assert outcome(argv) == pin

    def test_main_reads_sys_argv_without_argv(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr("sys.argv", ["quadmps", "sweep", "-h"])
        assert cli.main() == 0
        assert capsys.readouterr().out.startswith("usage: quadmps sweep [-h] ")


class TestParserReuse:
    """The parser is built once per process and reused, so nothing one
    parse or help text leaves behind may reach the next."""

    @pytest.mark.parametrize(
        "rejected",
        [["decompose", "--nmax", "x"], ["decompose", "--bogus"],
         ["decompose", "--family", "nope"], ["decompose"]],
        ids=" ".join,
    )
    def test_a_rejected_argv_leaves_no_trace(self, capsys, rejected):
        argv = ["decompose", "--family", "main", *MAIN_FLAGS, "--nmax", "6"]
        cli._parser.cache_clear()
        fresh = run(capsys, argv)
        code, out, err = run(capsys, rejected)
        assert (code, out) == (2, "")
        assert err.count("error:") == 1
        assert run(capsys, argv) == fresh

    def test_an_appended_case_starts_fresh(self):
        argv = ["sweep", "--case", "I", "--case", "II"]
        assert cli._parser().parse_args(argv).case == ["I", "II"]
        assert cli._parser().parse_args(["sweep"]).case is None
        assert cli._parser().parse_args(argv).case == ["I", "II"]

    def test_help_reads_columns_when_it_prints(self, capsys, monkeypatch):
        cli._parser.cache_clear()  # build the parser under COLUMNS=200
        monkeypatch.setenv("COLUMNS", "200")
        wide = digest(capsys, ["decompose", "-h"])
        monkeypatch.setenv("COLUMNS", "80")
        assert digest(capsys, ["decompose", "-h"]) == HELP["decompose"] != wide


# text that needs every kind of escape, and plain text that needs none
escaped_text = st.text(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\xe9", "\u2028",
                     "\U0001f600", "a", " ", "/"])
    | st.characters(),
    max_size=6,
)
plain_text = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=6)
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | escaped_text | plain_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(plain_text, max_size=4)
    | st.lists(escaped_text | plain_text, min_size=1, max_size=4)
    | st.dictionaries(escaped_text | plain_text, inner, max_size=4),
    max_leaves=16,
)


class TestJsonWriter:
    @settings(max_examples=100, deadline=None)
    @given(tree=json_trees)
    def test_matches_json_dumps(self, tree):
        out = io.StringIO()
        cli._write_json(tree, out)
        assert out.getvalue() == json.dumps(tree, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "strings",
        [["x", "-3/4", "~", " "], ["1", "\xe9"], ["1", "\x7f"], ["1", "\x00"],
         ["1", '"'], ["1", "\\"], ("1", "2"), ["1", 2], ["1", None]],
    )
    def test_string_lists_escape_as_json_does(self, strings):
        tree = {"b": strings, "a": [], "c": {}, "d": [strings]}
        out = io.StringIO()
        cli._write_json(tree, out)
        assert out.getvalue() == json.dumps(tree, indent=2, sort_keys=True)


def dumped(components) -> str:
    return json.dumps(components.to_json(), indent=2, sort_keys=True) + "\n"


def flag_list(values: dict) -> list[str]:
    return [f"--{k}={format_rational(v)}" for k, v in values.items() if v is not None]


class TestStreamedReport:
    """decompose writes its JSON one polynomial at a time, with the bytes
    of json.dumps over the whole to_json payload."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_bytes_are_the_dumped_payload(self, capsys, family, seed):
        case_id = next(c for c in CASE_IDS if case_claims(c).family == family)
        params = verification.sample_params(case_id, random.Random(seed))
        nmax = 10 + 10 * seed
        values = {name: getattr(params, name) for name in cli._PARAMS}
        argv = ["decompose", "--family", family, *flag_list(values), f"--nmax={nmax}"]
        expected = decompose(
            build_family(family, params).table(2 * nmax),
            QuadMap(params.p, params.q, params.a),
            nmax,
        )
        assert run(capsys, argv) == (0, dumped(expected), "")

    @pytest.mark.parametrize("kind", ["zero-row", "integer", "negative"])
    @pytest.mark.parametrize("nmax", [4, 12, 30])
    def test_stored_table_bytes_are_the_dumped_payload(self, capsys, tmp_path, kind, nmax):
        rng = random.Random(f"{kind}-{nmax}")
        if kind == "zero-row":
            sc = with_random_zeros(rng, random_dense_sc(rng, 2 * nmax))
        else:
            den = 1 if kind == "integer" else 5
            entry = lambda: rational(rng, den=den, nonzero=True)  # noqa: E731
            if kind == "negative":
                entry = lambda: -abs(rational(rng, den=den, nonzero=True))  # noqa: E731
            sc = StructureCoefficients(
                [entry() for _ in range(2 * nmax + 1)],
                [[entry() for _ in range(n + 1)] for n in range(2 * nmax)],
            )
        path = tmp_path / "table.json"
        path.write_text(json.dumps(sc.to_json()))
        qmap = QuadMap(rational(rng), rational(rng), rational(rng))
        flags = flag_list({"p": qmap.p, "q": qmap.q, "a": qmap.a})
        argv = ["decompose", "--sc-file", str(path), *flags, f"--nmax={nmax}"]
        assert run(capsys, argv) == (0, dumped(decompose(sc, qmap, nmax)), "")

    def test_peak_memory_stays_near_the_components(self, tmp_path):
        # the report's strings are never all alive at once: at nmax 80 the
        # traced peak of a whole run was 2.75 times the components it wrote
        # when the payload was formatted first, and is about 1.2 times now
        target = str(tmp_path / "report.json")
        argv = ["decompose", "--family", "main", *MAIN_FLAGS, "--output", target]
        assert cli.main([*argv, "--nmax=4"]) == 0  # parser and imports are warm
        params = CaseParams(beta=1, alpha1=2, alpha2=3, gamma=1, p=0, q=0, a=0)
        tracemalloc.start()
        try:
            components = decompose(family_main(params).table(160), QuadMap(0, 0, 0), 80)
            size = tracemalloc.get_traced_memory()[0]
            del components
            tracemalloc.stop()
            tracemalloc.start()
            assert cli.main([*argv, "--nmax=80"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * size, (peak, size)


# a decompose report whose coefficients grow to about 1.2k bits at nmax
# 120 (CI pins its digest)
SPLIT_ARGV = ["decompose", "--family", "main", "--beta=1/3", "--alpha1=2/5",
              "--alpha2=3/7", "--gamma=5/11", *MAP_FLAGS]


def dense_table(path: Path) -> Path:
    """The seeded dense table of the CI step: limit 60, entries num/den
    with |num| <= 9 and 1 <= den <= 9, the size of the bench's dense ones."""
    rng = random.Random(27)

    def entry(nonzero):
        while True:
            value = F(rng.randint(-9, 9), rng.randint(1, 9))
            if value or not nonzero:
                return str(value)

    table = {"beta": [entry(False) for _ in range(61)],
             "chi": [[entry(True) for _ in range(n + 1)] for n in range(60)]}
    path.write_text(json.dumps(table))
    return path


class TestSerialSide:
    """Every report is formatted and written in this process, by the one
    serial writer, whatever its size, its format or the machine."""

    @pytest.fixture
    def no_fork(self, monkeypatch):
        def fork():
            pytest.fail("os.fork called")

        monkeypatch.setattr(os, "fork", fork)

    def test_a_large_json_report_is_written_in_this_process(self, capsys, no_fork):
        # a 670 kB report, formatted and written here, with no child left
        code, out, err = run(capsys, [*SPLIT_ARGV, "--nmax=56"])
        assert (code, err) == (0, "")
        assert sha256(out.encode()).hexdigest() == (
            "ca2230013d8ad9d69670e734afffa7606e7fe29d450bdafe6e650cc13e68be7c"
        )
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_dense_report_at_nmax_30_is_under_the_threshold(
        self, capsys, tmp_path, no_fork
    ):
        path = dense_table(tmp_path / "dense.json")
        argv = ["decompose", "--sc-file", str(path), "--p=1/2", "--q=1/3", "--a=0",
                "--nmax=30"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert sha256(out.encode()).hexdigest() == (
            "9959b61bba772b6f3e3b42a737c829ef05fe91bebd0e7ac49f0bef15686872f0"
        )

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_the_report_path_reduces_no_part(
        self, capsys, monkeypatch, tmp_path, no_fork, fmt
    ):
        # each part is read off its row, and each coefficient is reduced
        # only as it is formatted: no polynomial is reduced in the writer
        real_reduced, real_write = polynomials._reduced, cli._write_report
        calls, inside = [], []

        def reduced(num, den):
            calls.append(bool(inside))
            return real_reduced(num, den)

        def write_report(args, payload):
            inside.append(True)
            try:
                real_write(args, payload)
            finally:
                inside.clear()

        for module in list(sys.modules.values()):
            if module.__name__.startswith("quadmps") and (
                getattr(module, "_reduced", None) is real_reduced
            ):
                monkeypatch.setattr(module, "_reduced", reduced)
        monkeypatch.setattr(cli, "_write_report", write_report)
        path = dense_table(tmp_path / "dense.json")
        argv = ["decompose", "--sc-file", str(path), "--p=1/2", "--q=1/3", "--a=0",
                "--nmax=30", f"--format={fmt}"]
        assert run(capsys, argv)[0] == 0
        # the recurrence reduced each of its 60 rows, the writer none
        assert calls.count(False) >= 60
        assert calls.count(True) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            [*SPLIT_ARGV, "--nmax=12", "--format=table"],
            ["derive", "--family", "main", *MAIN_FLAGS, "--nmax=12"],
            ["analyze", "--family", "main", *MAIN_FLAGS, "--nmax=12"],
            ["verify-case", "--case", "I", *MAIN_FLAGS, "--nmax=8"],
            ["sweep", "--case", "I", "--samples=2", "--nmax=8", "--jobs=1"],
        ],
        ids=["table", "derive", "analyze", "verify-case", "sweep"],
    )
    def test_other_reports_never_fork(self, capsys, no_fork, argv):
        assert run(capsys, argv)[0] == 0


# the exit contract ---------------------------------------------------------

class Breaks:
    """How a stream fails: each write that would take it past `keep` of the
    healthy report's characters raises OSError(code), or with `at_flush`
    only a flush does. A failing stream has a descriptor, which main must
    leave as it is, unless `fd` is False."""

    def __init__(self, code, keep=0.0, at_flush=False, fd=True):
        self.code, self.keep, self.at_flush, self.fd = code, keep, at_flush, fd

    def stream(self, healthy: str, spare: int) -> io.StringIO:
        spec, budget = self, int(self.keep * len(healthy))

        class Failing(io.StringIO):
            def write(self, text):
                if not spec.at_flush and self.tell() + len(text) > budget:
                    raise OSError(spec.code, os.strerror(spec.code))
                return super().write(text)

            def flush(self):
                if spec.at_flush:
                    raise OSError(spec.code, os.strerror(spec.code))

            def fileno(self):
                if spec.fd:
                    return spare
                raise io.UnsupportedOperation("fileno")

        return Failing()


OK = "ok"
# stream state -> (stdout, stderr, --output, exit code, the error line's
# reason or None, what stdout holds: "" nothing, "all" the healthy report,
# "prefix" a proper prefix of it); None is a stream the process started
# without, and "{dir}" the test's directory
STREAMS = {
    "healthy": (OK, OK, None, 0, None, "all"),
    "stdout-none": (None, OK, None, 2, os.strerror(errno.EBADF), ""),
    "stdout-first-write": (Breaks(errno.EPIPE), OK, None, 2, os.strerror(errno.EPIPE), ""),
    "stdout-mid-report": (
        Breaks(errno.EPIPE, keep=0.5), OK, None, 2, os.strerror(errno.EPIPE), "prefix"
    ),
    "stdout-full": (Breaks(errno.ENOSPC), OK, None, 2, os.strerror(errno.ENOSPC), ""),
    "stdout-flush": (
        Breaks(errno.EIO, at_flush=True), OK, None, 2, os.strerror(errno.EIO), "all"
    ),
    "stderr-none": (OK, None, None, 0, None, "all"),
    "stderr-ebadf": (OK, Breaks(errno.EBADF, fd=False), None, 0, None, "all"),
    "stderr-full": (OK, Breaks(errno.ENOSPC), None, 0, None, "all"),
    "output-directory": (OK, OK, "{dir}", 2, os.strerror(errno.EISDIR), ""),
    "output-missing-parent": (
        OK, OK, "{dir}/absent/r.json", 2, os.strerror(errno.ENOENT), ""
    ),
    # only an in-process argv holds a NUL
    "output-nul-byte": (OK, OK, "{dir}/r\x00.json", 2, "embedded null byte", ""),
    "output-newline": (
        OK, OK, "{dir}/absent/x\nerror: y", 2, os.strerror(errno.ENOENT), ""
    ),
}
STDERR_STATES = ["healthy", "stderr-none", "stderr-ebadf", "stderr-full"]

MAIN_ARGV = ["--family", "main", *MAIN_FLAGS, "--nmax=4"]
# each report a subcommand writes, healthy, in under 0.1 s
REPORTS = {
    "decompose-json": [*SPLIT_ARGV, "--nmax=12"],
    "decompose-table": [*SPLIT_ARGV, "--nmax=12", "--format=table"],
    "analyze": ["analyze", "--family", "main", *MAIN_FLAGS, "--nmax=8"],
    "derive": ["derive", "--family", "main", *MAIN_FLAGS, "--nmax=8"],
    "verify-case-explicit": ["verify-case", "--case", "I", *MAIN_FLAGS, "--nmax=6"],
    "verify-case-sampled": [
        "verify-case", "--case", "co-II", "--samples=2", "--seed=1", "--nmax=6"
    ],
    "sweep": ["sweep", "--case", "I", "--samples=2", "--nmax=6"],
}
# an input each error kind rejects, and a tuple whose verdict fails -> exit code
FAILURES = {
    "parse-error": (["analyze", "--sc-file", "{dir}/absent.json"], 2),
    "range-error": ([*SPLIT_ARGV, "--nmax=3"], 3),
    "dispatch-error": (["verify-case", "--case", "co-II", *MAIN_FLAGS, "--nmax=6"], 4),
    "failed-verdict": (REPORTS["verify-case-explicit"], 1),
}
CONTRACT = [
    pytest.param(command, state, id=f"{command}-{state}")
    for command in REPORTS
    for state in STREAMS
] + [
    pytest.param(command, state, id=f"{command}-{state}")
    for command in FAILURES
    for state in STDERR_STATES
]


def open_descriptors() -> int | None:
    fds = Path("/proc/self/fd")
    return len(list(fds.iterdir())) if fds.is_dir() else None


# in place of an error reason: stderr holds the help that stdout would
HELP_ON_STDERR = "help on stderr"


class TestExitContract:
    """Every way out of main, as one table: each report of each subcommand
    under each state of its streams, and each error kind and a failed
    verdict under each state of stderr. A cell gives the exit code, the
    number of error lines on stderr and what stdout holds; a lost error
    line never changes the code, and main never raises."""

    @pytest.fixture
    def fail_verdicts(self, monkeypatch):
        real = cli.verify_case

        def failing(case_id, params, nmax, dmax):
            verdict = real(case_id, params, nmax=nmax, dmax=dmax)
            first, *rest = verdict.identities
            return verdict._replace(identities=(first._replace(ok=False), *rest))

        monkeypatch.setattr(cli, "verify_case", failing)

    @pytest.mark.parametrize("command, state", CONTRACT)
    def test_each_cell(self, request, tmp_path, command, state):
        stdout, stderr, output, code, reason, holds = STREAMS[state]
        # the exit code of the command on healthy streams
        argv, base = FAILURES[command] if command in FAILURES else (REPORTS[command], 0)
        argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
        if command == "failed-verdict":
            request.getfixturevalue("fail_verdicts")
        healthy = io.StringIO()
        with redirect_stdout(healthy), redirect_stderr(io.StringIO()):
            assert cli.main(argv) == base
        healthy = healthy.getvalue()
        code, holds = code or base, holds if base < 2 else ""
        if output is not None:
            output = output.replace("{dir}", str(tmp_path))
            argv = [*argv, "--output", output]

        spare = os.open(tmp_path / "spare", os.O_WRONLY | os.O_CREAT)
        try:
            out, err = (
                s.stream(healthy, spare) if isinstance(s, Breaks)
                else None if s is None else io.StringIO()
                for s in (stdout, stderr)
            )
            before = open_descriptors()
            with redirect_stdout(out), redirect_stderr(err):
                assert cli.main(argv) == code
            assert open_descriptors() == before
            # no descriptor is redirected, not even a failed stdout's: a
            # failed write leaves the exit flush nothing to fail on
            assert not os.path.samestat(os.fstat(spare), os.stat(os.devnull))
        finally:
            os.close(spare)

        written = "" if out is None else out.getvalue()
        assert {
            "": written == "",
            "all": written == healthy,
            "prefix": healthy.startswith(written) and len(written) < len(healthy),
        }[holds], written[-200:]
        text = err.getvalue() if type(err) is io.StringIO else ""
        lines = text.splitlines(keepends=True)
        assert len(lines) == (code > 1 and stderr is OK)
        assert all(line.startswith("error: ") and line.endswith("\n") for line in lines)
        if reason is not None:
            name = "stdout" if output is None else output.replace("\n", "\\n")
            assert text == f"error: cannot write {name}: {reason}\n"

    # what only a real descriptor shows; the closed pipe and the full
    # stdout rows are TestOutputModes' subprocess tests
    @pytest.mark.parametrize(
        "redirect, argv, code, error",
        [
            (">&-", ["analyze", *MAIN_ARGV], 2, os.strerror(errno.EBADF)),
            ("2>&-", ["analyze", *MAIN_ARGV], 0, None),
            ("2>&-", ["analyze", "--sc-file", "absent.json"], 2, None),
            ("2>/dev/full", ["analyze", "--sc-file", "absent.json"], 2, None),
            ("2>&-", FAILURES["dispatch-error"][0], 4, None),
            # before 3.11 argparse itself raises on a closed or full stderr
            ("2>&-", ["decomp"], 2, None),
            ("2>/dev/full", ["decomp"], 2, None),
            (">/dev/full 2>&-", ["analyze", *MAIN_ARGV], 2, None),
            # help is no report: argparse prints it on stderr instead
            (">&-", ["-h"], 0, HELP_ON_STDERR),
        ],
        ids=["stdout-closed", "stderr-closed", "stderr-closed-parse-error",
             "stderr-full-parse-error", "stderr-closed-dispatch-error",
             "stderr-closed-usage-error", "stderr-full-usage-error",
             "stdout-full-stderr-closed", "stdout-closed-help"],
    )
    def test_a_real_descriptor(self, tmp_path, redirect, argv, code, error):
        if "/dev/full" in redirect and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run(
            ["sh", "-c", f'exec "$@" {redirect}', "sh",
             sys.executable, "-m", "quadmps.cli", *argv],
            capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
        )
        assert proc.returncode == code
        # what stdout holds on healthy streams
        out = io.StringIO()
        if code == 0:
            with redirect_stdout(out):
                assert cli.main(argv) == 0
        if error is HELP_ON_STDERR:
            assert (proc.stdout, proc.stderr) == ("", out.getvalue())
            return
        assert proc.stdout == out.getvalue()
        lines = proc.stderr.splitlines()
        if error is None:
            assert lines == []
        else:
            assert lines == [f"error: cannot write stdout: {error}"]


# hand-typed flag values: canonical or odd rationals, or any text
flag_texts = st.one_of(
    canonical,
    st.sampled_from(
        ["2/4", "+1", " 1", "-0", "01", "1/-2", "1/0", "0/0", "1.5", "1e3", "",
         "x", "1/2/3", "\uff11", "1\nerror: 2", "--beta", "7" * 5000]
    ),
    st.integers().map(str),
    st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
        max_size=8,
    ),
)
BASE_NAMES = cli._BASE_PARAMS


@st.composite
def param_flags(draw):
    """--name=value flags: the base parameters canonical, then up to two
    of them dropped and up to two values of any name replaced by text,
    and any perturbation parameters."""
    values = {name: draw(canonical) for name in BASE_NAMES}
    for name in draw(st.sets(st.sampled_from(BASE_NAMES), max_size=2)):
        del values[name]
    for name in draw(st.sets(st.sampled_from(PERTURBATION_FIELDS), max_size=4)):
        values[name] = draw(canonical)
    names = BASE_NAMES + PERTURBATION_FIELDS
    for name in draw(st.sets(st.sampled_from(names), max_size=2)):
        values[name] = draw(flag_texts)
    return [f"--{name}={text}" for name, text in sorted(values.items())]


def run_fuzzed(argv, seed=None):
    """cli.main(argv) with QUADMPS_SEED set to seed (unset for None);
    returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if seed is None:
            mp.delenv("QUADMPS_SEED", raising=False)
        else:
            mp.setenv("QUADMPS_SEED", seed)
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_exit_contract(code, out, err, table=False):
    """Exit 0-4, no traceback, and at most one error line; a report (in
    JSON, or in lines with `table`) exactly on exit 0 or 1."""
    event(f"exit {code}")
    assert code in range(5)
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) <= 1, err
    if code in (0, 1):
        if table:
            assert out.endswith("\n")
        else:
            json.loads(out)
    else:
        assert out == ""


class TestParamFlagFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILY_FLAGS)),
        flags=param_flags(),
        seed=st.none() | flag_texts,
    )
    def test_decompose(self, family, flags, seed):
        argv = ["decompose", "--family", family, *flags, "--nmax", "4"]
        assert_exit_contract(*run_fuzzed(argv, seed))

    @settings(max_examples=150, deadline=None)
    @given(
        case_id=st.sampled_from(CASE_IDS),
        flags=param_flags() | st.just([]),
        seed=st.none() | flag_texts,
    )
    def test_verify_case(self, case_id, flags, seed):
        argv = ["verify-case", "--case", case_id, *flags,
                "--samples", "1", "--nmax", "4"]
        assert_exit_contract(*run_fuzzed(argv, seed))


# values of the knobs, valid and hostile: an integer just or far out of
# range, text int() rejects or reads oddly, an unknown choice or case, a
# path that cannot be written. Valid --samples stay at most 2 and --nmax
# is 4, so that every run is small.
odd_ints = st.sampled_from(
    ["", "x", "1.5", "1e3", "0x10", " 1", "+1", "-0", "1_0", "\uff11", "--nmax",
     "1\nerror: 2", str(10**30), str(-(10**30)), "9" * 5000]
) | st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8)


def int_knob(lo, hi):
    """(valid, hostile) values of an integer flag whose range is lo..hi:
    integers in it, and integers outside it or text."""
    outside = st.integers(max_value=lo - 1) | st.integers(min_value=hi + 1)
    return st.integers(lo, hi), outside.map(str) | odd_ints


# file names in the run's own directory: one that exists as a directory,
# one under a missing directory (one of them with a newline), an overlong
# one, one with a NUL byte or a lone surrogate
bad_outputs = st.sampled_from(
    ["", ".", "..", "taken", "taken/", "missing/report.json", "missing/x\nerror: y",
     "x" * 300, "a\x00b", "\ud800"]
)
KNOBS = {
    "dmax": int_knob(1, 4),
    "samples": (st.integers(1, 2), int_knob(1, cli.SAMPLES_LIMIT)[1]),
    "jobs": (st.integers(), odd_ints),  # any integer runs on at most cpu_count workers
    "format": (
        st.sampled_from(["json", "table"]),
        st.sampled_from(["JSON", "tab", "json ", ""]) | st.text(max_size=6),
    ),
    "case": (
        st.sampled_from(CASE_IDS),
        st.sampled_from(["i", "co-i", "case-X", "I ", "", "--case"]) | st.text(max_size=8),
    ),
    "output": (
        st.just("report.json")
        | st.text(st.characters(blacklist_characters="/"), min_size=1, max_size=8),
        bad_outputs,
    ),
}


@st.composite
def knob_flags(draw, *names):
    """--name=value flags: each knob valid or left out, then up to two
    of them given a hostile value."""
    values = {name: draw(st.none() | KNOBS[name][0]) for name in names}
    for name in draw(st.sets(st.sampled_from(names), max_size=2)):
        values[name] = draw(KNOBS[name][1])
    return [f"--{name}={value}" for name, value in values.items() if value is not None]


@pytest.fixture(scope="module")
def knob_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("knobs")
    (path / "taken").mkdir()
    return path


def assert_knob_run(knob_dir, argv):
    """The exit contract of cli.main(argv) run in knob_dir, with a report
    written to --output checked in place of stdout. A sweep's pool runs
    on threads here, so that --jobs starts no process."""
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(knob_dir)
        mp.setattr(verification, "ProcessPoolExecutor", ThreadPoolExecutor)
        code, out, err = run_fuzzed(argv)
        output = [a[len("--output="):] for a in argv if a.startswith("--output=")]
        if output and code in (0, 1):
            assert out == ""
            out = Path(output[0]).read_text()
    assert_exit_contract(code, out, err, table="--format=table" in argv)


class TestKnobFlagFuzz:
    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(["decompose", "analyze", "derive"]),
        flags=knob_flags("dmax", "format", "output"),
    )
    def test_report_commands(self, knob_dir, command, flags):
        argv = [command, "--family=main", *MAIN_FLAGS, "--nmax=4", *flags]
        assert_knob_run(knob_dir, argv)

    @settings(max_examples=60, deadline=None)
    @given(flags=knob_flags("case", "samples", "dmax", "format", "output"))
    def test_verify_case(self, knob_dir, flags):
        # --samples defaults to 20; a drawn --samples comes later and wins
        assert_knob_run(knob_dir, ["verify-case", "--nmax=4", "--samples=1", *flags])

    @settings(max_examples=60, deadline=None)
    @given(flags=knob_flags("case", "jobs", "samples", "dmax", "format", "output"))
    def test_sweep(self, knob_dir, flags):
        # a drawn --case adds a second case to co-II
        argv = ["sweep", "--nmax=4", "--samples=1", "--case=co-II", *flags]
        assert_knob_run(knob_dir, argv)
