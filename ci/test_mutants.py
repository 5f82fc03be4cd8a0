"""The mutant gate of the test suite, and the probe that keeps it honest.

Each row of MUTANTS is one deliberate defect: a file under `src`, a
fragment that occurs there exactly once, its replacement, and the tests
that must fail on it. A check copies `src`, `tests` and `pyproject.toml`
to a temp dir, applies the replacement there, and runs only that row's
killers; they must report a failure. The three travel together because
pytest puts the `src` beside `pyproject.toml` first on the path: a
mutated `src` reached through PYTHONPATH alone would lose to the
unmutated one, and every mutant would survive.

Two more checks keep the table honest: every killer passes on the
unmutated source, and an engine defect fails tests rather than the
collection of a test module, which would stop pytest before any test
ran. The probe checks that a failing `@given` test is reported and does
not end the session before the tests after it run.

Run with `python -m pytest -q ci/`. A test deleted from `tests/` must
leave every row killed by a test that remains.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    fragment: str
    replacement: str
    killers: tuple[str, ...]


SEQ = "src/quadmps/sequences.py"
DEC = "src/quadmps/decomposition.py"
POL = "src/quadmps/polynomials.py"
CLI = "src/quadmps/cli.py"
WIRE = "src/quadmps/wire.py"
TD = "tests/test_decomposition.py"
TS = "tests/test_sequences.py"
TC = "tests/test_cli.py"
TJ = "tests/test_json_fuzz.py"
TP = "tests/test_polynomials.py"
TO = "tests/test_poly_oracle.py"

MUTANTS = [
    # the walk of the MPS recurrence (`sequences._walk`)
    Mutant(
        "walk-u-v-swap", SEQ,
        "out[1::2] = [k * x + cv * y for x, y in zip(u, v)]",
        "out[1::2] = [k * y + cv * x for x, y in zip(u, v)]",
        (f"{TD}::TestDecompose::test_rows_at_the_monomial_map_are_the_reference_sequence",),
    ),
    Mutant(
        "walk-drop-last-term", SEQ,
        "for cn, d, num in terms:",
        "for cn, d, num in terms[:-1]:",
        (f"{TS}::TestGenerate::test_matches_per_index_reference",),
    ),
    Mutant(
        "walk-chi-row-short", SEQ,
        "for chi, w in zip(chi_row, rows):",
        "for chi, w in zip(chi_row[:-1], rows):",
        (f"{TS}::TestGenerate::test_matches_per_index_reference",),
    ),
    Mutant(
        "walk-chi-shift", SEQ,
        "for chi, w in zip(chi_row, rows):",
        "for chi, w in zip(chi_row, rows[1:]):",
        (f"{TS}::TestGenerate::test_matches_per_index_reference",),
    ),
    Mutant(
        "walk-chi-sign", SEQ,
        "out[: len(num)] = [o - t * b for o, b in zip(out, num)]",
        "out[: len(num)] = [o + t * b for o, b in zip(out, num)]",
        (f"{TS}::TestGenerate::test_matches_per_index_reference",),
    ),
    Mutant(
        "walk-omega-anchor-sign", SEQ,
        "cu * x - cw * y + k * z",
        "cu * x + cw * y + k * z",
        (f"{TD}::TestDecompose::test_oracle_equivalence",),
    ),
    Mutant(
        "walk-scale-drops-omega-den", SEQ,
        "k = lcm(c.denominator, wa.denominator, s.denominator)",
        "k = lcm(c.denominator, s.denominator)",
        (f"{TD}::TestDecompose::test_oracle_equivalence",),
    ),
    # the oracle's change of basis and the relation loop (`decomposition`)
    Mutant(
        "anchor-sign", DEC,
        "row += ((s * ad + t * an) * w, t * ad * w)",
        "row += ((s * ad - t * an) * w, t * ad * w)",
        (f"{TD}::TestDecompose::test_oracle_equivalence",),
    ),
    Mutant(
        "relation-wrong-part", DEC,
        "if any(left[k::2])",
        "if any(left[1 - k::2])",
        (f"{TD}::TestMixedRelations::test_tampering_pins_label_and_index",),
    ),
    Mutant(
        "relation-short-range", DEC,
        "for m in range(5, len(rows) - 1):",
        "for m in range(5, len(rows) - 2):",
        (f"{TD}::TestMixedRelations::test_the_last_row_is_flagged_at_the_top_relation",),
    ),
    # the component views of `QdComponents`
    Mutant(
        "view-a-keeps-sentinel", DEC,
        "tuple(v for _, v in self.pairs[2::2])",
        "tuple(v for _, v in self.pairs[0::2])",
        (f"{TD}::TestDecompose::test_views_are_canonical_and_the_layout_writes_them",),
    ),
    Mutant(
        "view-r-reads-u", DEC,
        "r_seq = cached_property(lambda self: tuple(v for _, v in self.pairs[1::2]))",
        "r_seq = cached_property(lambda self: tuple(u for u, _ in self.pairs[1::2]))",
        (f"{TD}::TestDecompose::test_views_are_canonical_and_the_layout_writes_them",),
    ),
    # extraction (`polynomials._back_substitute`, `sequences._sc_rows`)
    Mutant(
        "back-substitute-multiplier", POL,
        "s = c.numerator * (g // h)",
        "s = c.numerator * g",
        (f"{TS}::TestExtract::test_round_trip_on_dense_tables",),
    ),
    Mutant(
        "sc-rows-off-by-one", SEQ,
        "yield coeffs[-2], tuple(coeffs[:-2])",
        "yield coeffs[-2], tuple(coeffs[1:-1])",
        (f"{TS}::TestExtract::test_round_trip_all_spec_shapes",),
    ),
    # the normalized derivatives (`sequences._derivatives`)
    Mutant(
        "derivative-scale", SEQ,
        "w._den * w.degree)",
        "w._den * len(w._num))",
        (f"{TS}::TestDerivative::test_matches_per_index_reference",),
    ),
    # the table reader `StructureCoefficients.from_json` and its per-read memo
    Mutant(
        "memo-non-str", SEQ,
        "if type(value) is not str:",
        "if type(value) is list:",
        (f"{TJ}::test_a_bool_or_float_in_a_chi_row_is_a_parse_error",),
    ),
    Mutant(
        "memo-failed-parse", SEQ,
        "q = parsed[value] = parse_rational(value)",
        "try:\n"
        "                    q = parsed[value] = parse_rational(value)\n"
        "                except ParseError:\n"
        "                    q = parsed[value] = ZERO",
        (f"{TJ}::test_a_repeated_bad_entry_is_reported_at_its_first_occurrence",),
    ),
    Mutant(
        "memo-across-calls", SEQ,
        "parsed: dict[str, Fraction] = {}",
        'parsed = globals().setdefault("_parsed", {})',
        (f"{TJ}::test_a_read_shares_no_entry_with_another_read",),
    ),
    Mutant(
        "reader-bool-nmax", SEQ,
        'if "nmax" in data and type(data["nmax"]) is not int:',
        'if "nmax" in data and not isinstance(data["nmax"], int):',
        (f"{TS}::TestStructureCoefficients::test_json_rejects_non_canonical_shapes",),
    ),
    # the CLI: exit codes, one-line errors, the report's last write, the
    # parser table and the printable-bound pass
    Mutant(
        "cli-dispatch-exit-3", "src/quadmps/errors.py",
        "exit_code = 4",
        "exit_code = 3",
        (f"{TC}::TestVerifyCase::test_case_mismatch_exits_four",),
    ),
    Mutant(
        "cli-one-line-noop", CLI,
        'return text.replace("\\n", "\\\\n")',
        "return text",
        (f"{TC}::TestOutputModes::test_a_name_with_a_newline_stays_on_the_error_line",),
    ),
    Mutant(
        "cli-final-newline", CLI,
        '_write_json(payload, out)\n                out.write("\\n")',
        "_write_json(payload, out)",
        (f"{TC}::TestOutputModes::test_the_last_write_of_a_report_is_one_newline",),
    ),
    Mutant(
        "cli-derive-no-dmax", CLI,
        'its derivative",\n         (source, params, knobs, dmax)),',
        'its derivative",\n         (source, params, knobs)),',
        (f"{TC}::TestAnalyzeAndDerive::test_derive_main_family_is_not_classical",),
    ),
    Mutant(
        "cli-printable-bound", CLI,
        "limit * 332 // 100",
        "limit * 333 // 100",
        (f"{TC}::TestDecompose::test_a_coefficient_just_past_the_bit_bound_is_formatted_first",),
    ),
    Mutant(
        "cli-rational-flag-raises", CLI,
        "raise argparse.ArgumentTypeError(str(exc)) from exc",
        "raise",
        (f"{TC}::TestVerifyCase::test_malformed_rational_exits_two",),
    ),
    Mutant(
        "cli-write-lets-valueerror-out", CLI,
        "except (OSError, ValueError) as exc:",
        "except OSError as exc:",
        (f"{TC}::TestExitContract::test_each_cell[analyze-output-nul-byte]",),
    ),
    # the codec (`wire`) and the polynomial strings it reads
    Mutant(
        "codec-typed-isinstance", WIRE,
        "if type(value) is not kind:",
        "if not isinstance(value, kind):",
        (f"{TJ}::test_wrong_field_types_are_rejected",),
    ),
    Mutant(
        "codec-object-unchecked", WIRE,
        "if not isinstance(value, dict):",
        "if False:",
        (f"{TJ}::test_wrong_field_types_are_rejected",),
    ),
    Mutant(
        "codec-no-form-check", WIRE,
        "if format_rational(out) != value:",
        "if False:",
        (f"{TP}::test_poly_strings_load_only_what_they_write",),
    ),
    Mutant(
        "codec-missing-key-ok", WIRE,
        " | (set(keys) - data.keys())",
        "",
        (f"{TS}::TestStructureCoefficients::test_json_rejects_inconsistency",),
    ),
    Mutant(
        "codec-summary-unchecked", WIRE,
        "if data[key] != want or type(data[key]) is not type(want):",
        "if False:",
        (f"{TJ}::test_verdict_passed_must_follow_its_identities",),
    ),
    Mutant(
        "codec-list-takes-str", WIRE,
        "if not isinstance(value, (list, tuple)):",
        "if not isinstance(value, (list, tuple, str)):",
        (f"{TP}::test_poly_strings_reject_malformed",),
    ),
    Mutant(
        "poly-strings-trailing-zero", POL,
        "if cs and not cs[-1]:",
        "if False:",
        (f"{TP}::test_poly_strings_load_only_what_they_write",),
    ),
    # `Poly`'s canonical form and its one linear-combination kernel
    Mutant(
        "poly-lincomb-unreduced", POL,
        "return _reduced(out, den)",
        "return _make(tuple(out), den)",
        (f"{TO}::test_lincomb_edge_cases",),
    ),
    Mutant(
        "poly-lincomb-longest-not-first", POL,
        "parts[0], parts[first] = parts[first], parts[0]",
        "pass",
        (f"{TO}::test_lincomb_matches_sympy_and_a_fold",),
    ),
    Mutant(
        "poly-reduced-keeps-zeros", POL,
        "while num and not num[-1]:",
        "while False:",
        (f"{TO}::test_lincomb_edge_cases",),
    ),
    Mutant(
        "poly-reduced-negative-den", POL,
        "g = gcd(den, *num)",
        "g = -gcd(den, *num)",
        (f"{TP}::test_arithmetic_examples",),
    ),
    Mutant(
        "poly-neg-noop", POL,
        "return _make(tuple([-c for c in self._num]), self._den)",
        "return self",
        (f"{TP}::test_arithmetic_examples",),
    ),
]


def checkout_copy(dest: Path) -> Path:
    """The parts of the checkout a test run reads, copied to dest."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)
    return dest


def run_pytest(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def apply(mutant: Mutant, root: Path) -> None:
    """Put the mutant into the copy at root; its fragment must occur once."""
    target = root / mutant.path
    text = target.read_text()
    count = text.count(mutant.fragment)
    assert count == 1, f"{mutant.name}: fragment occurs {count} times in {mutant.path}"
    target.write_text(text.replace(mutant.fragment, mutant.replacement))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_the_killers_fail_on_the_mutant(mutant, tmp_path):
    root = checkout_copy(tmp_path)
    apply(mutant, root)
    proc = run_pytest(root, "-x", "-q", *mutant.killers)
    # 1 is "tests failed"; 2-5 (interrupted, internal error, usage error,
    # nothing collected) would count a broken run as a kill
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_the_killers_pass_on_the_source(tmp_path):
    # so that a killer that fails on a mutant fails because of the mutant
    killers = dict.fromkeys(k for m in MUTANTS for k in m.killers)
    proc = run_pytest(checkout_copy(tmp_path), "-q", *killers)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_an_engine_mutant_fails_tests_not_collection(tmp_path):
    # a test module that ran the engine at import would turn an engine
    # defect into a collection error, and pytest would then stop before
    # running a single test
    root = checkout_copy(tmp_path)
    apply(next(m for m in MUTANTS if m.name == "walk-u-v-swap"), root)
    proc = run_pytest(root, "-x", "-q", "tests")
    summary = proc.stdout.strip().splitlines()[-1]
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "failed" in summary and "error" not in summary, summary


PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    # with every warning an error, the warning that hypothesis's failure
    # report raises would end the session in an INTERNALERROR before the
    # tests after it run; pyproject.toml ignores that one warning
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = run_pytest(tmp_path, "-q", "test_probe.py")
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]
