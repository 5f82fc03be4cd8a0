"""Command-line interface.

Five subcommands cover the public workflows:

* decompose    split a sequence through the quadratic map and emit the
               four component sequences
* analyze      detect the orthogonality order of a sequence
* derive       detect whether the derivative sequence keeps the same
               orthogonality order (the classical character)
* verify-case  check every claim of one case at explicit or seeded
               random parameter tuples
* sweep        run seeded verification across one or all cases and
               aggregate the outcome

Each subcommand takes only the flags it reads: --dmax is not a flag of
decompose, and only verify-case and sweep take --samples and --seed.
With --sc-file, decompose reads only the parameter flags --p/--q/--a
and analyze and derive read none; any other one is malformed input.
--nmax is bounded by NMAX_LIMIT and --samples by SAMPLES_LIMIT; a value
outside its range is a RangeError (exit 3).

Exit codes: 0 success, 1 verification mismatch, 2 malformed input or a
report that cannot be written, 3 mathematical domain error (degenerate
parameters, range too small), 4 case or family dispatch mismatch. Past
the usage errors of argparse, every failure leaves main through one path
that writes one `error:` line to stderr. A stderr that is closed or full
loses that line, never the code. All randomness flows from --seed
(default: the QUADMPS_SEED environment variable, else 0), and reports
with the same configuration and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from collections.abc import Iterator
from contextlib import nullcontext, suppress
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .analysis import check_hahn_classical, detect_orthogonality_order
from .decomposition import QuadMap, decompose
from .errors import DispatchError, ParseError, QuadmpsError, RangeError
from .families import (
    CASE_IDS,
    FAMILIES,
    CaseParams,
    build_family,
    case_claims,
    field_mismatches,
)
from .polynomials import Poly, format_poly, poly_to_strings
from .rationals import parse_rational
from .sequences import StructureCoefficients
from .verification import CHECKS, checks_ok, verify_case, verify_sampled

# every field of CaseParams, in the order of its flags; the required
# ones are the base parameters
_PARAMS = CaseParams._fields
_BASE_PARAMS = tuple(n for n in _PARAMS if n in CaseParams._required)


# upper bounds on the resource knobs: cost grows steeply with nmax (exact
# coefficients grow with it) and linearly with samples
NMAX_LIMIT = 400
SAMPLES_LIMIT = 10_000


def _rational(text: str):
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    for name in _PARAMS:
        sub.add_argument(f"--{name}", type=_rational, default=None)


def _one_line(text: str) -> str:
    # an error is one line on stderr, whatever newlines the input it quotes holds
    return text.replace("\n", "\\n")


def _say(stream, text: str) -> None:
    """Write text to a stream of messages; one that is None or fails loses it."""
    with suppress(AttributeError, OSError, ValueError):
        stream.write(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # the usage and the message, on one line, in one write to stderr
        self.exit(2, f"{self.format_usage()}{self.prog}: error: {_one_line(message)}\n")

    def _print_message(self, message, file=None):
        # before 3.11 argparse lets a stream that is None or fails raise
        _say(file or sys.stderr, message)


_HELP = {
    "decompose": "emit the four component sequences of one input",
    "analyze": "detect the orthogonality order of one input",
    "derive": "compare the orthogonality of a sequence and its derivative",
    "verify-case": "check the claims of one case at parameter tuples",
    "sweep": "seeded verification across one or all cases",
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of all five subcommands, built once per process and
    reused by later `main` calls, since building one costs more than a
    parse. Reuse is safe: parse_args leaves the parser as it was, an
    `append` flag starts from its default (None) on each parse, and help
    reads COLUMNS when it is formatted."""
    parser = _Parser(
        prog="quadmps",
        description="quadratic decomposition of 2-orthogonal polynomial sequences",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    decomp, analyze, derive, verify, sweep = (
        commands.add_parser(name, help=text) for name, text in _HELP.items()
    )
    for sub in (decomp, analyze, derive):
        sub.add_argument("--family", choices=sorted(FAMILIES), default=None)
        sub.add_argument("--sc-file", default=None)
        _add_param_flags(sub)
    verify.add_argument("--case", required=True)
    _add_param_flags(verify)
    sweep.add_argument(
        "--case", action="append", default=None, help="repeatable; default all cases"
    )
    sweep.add_argument("--jobs", type=int, default=1)

    # each subcommand takes only the knobs it reads
    for sub in (decomp, analyze, derive, verify, sweep):
        sub.add_argument(
            "--nmax", type=int, default=12, help=f"depth, 4..{NMAX_LIMIT} (default 12)"
        )
        sub.add_argument("--format", choices=("json", "table"), default="json")
        sub.add_argument("--output", default=None)
    for sub in (analyze, derive, verify, sweep):
        sub.add_argument(
            "--dmax",
            type=int,
            default=None,
            help="largest band order tried, 1..nmax (default nmax)",
        )
    for sub in (verify, sweep):
        sub.add_argument(
            "--samples",
            type=int,
            default=20,
            help=f"random tuples per case, 1..{SAMPLES_LIMIT} (default 20)",
        )
        sub.add_argument("--seed", type=int, default=None)

    return parser


def _resolve_knobs(args: argparse.Namespace) -> None:
    """Bound the resource knobs the subcommand takes, and fill in the
    defaults of --dmax (nmax) and --seed (QUADMPS_SEED, else 0)."""
    if "seed" in args and args.seed is None:
        raw = os.environ.get("QUADMPS_SEED", "0")
        try:
            args.seed = int(raw)
        except ValueError:
            raise ParseError(f"QUADMPS_SEED must be an integer, got {raw!r}") from None
    if not 4 <= args.nmax <= NMAX_LIMIT:
        raise RangeError(f"nmax must lie in 4..{NMAX_LIMIT}, got {args.nmax}")
    if "dmax" in args:
        if args.dmax is None:
            args.dmax = args.nmax
        if not 1 <= args.dmax <= args.nmax:
            raise RangeError(
                f"dmax must lie in 1..nmax, got {args.dmax} (nmax {args.nmax})"
            )
    if "samples" in args and not 1 <= args.samples <= SAMPLES_LIMIT:
        raise RangeError(
            f"samples must lie in 1..{SAMPLES_LIMIT}, got {args.samples}"
        )


def _explicit_params(args: argparse.Namespace) -> CaseParams:
    missing = [f"--{n}" for n in _BASE_PARAMS if getattr(args, n) is None]
    if missing:
        raise ParseError(f"missing parameter flags: {' '.join(missing)}")
    return CaseParams(**{n: getattr(args, n) for n in _PARAMS})


def _family_input(args: argparse.Namespace, reads: tuple[str, ...] = ()):
    """Resolve --family/--sc-file into a sequence spec for the engine.
    With --sc-file the command reads only the parameter flags in `reads`,
    and any other one is a ParseError."""
    if (args.family is None) == (args.sc_file is None):
        raise ParseError("give exactly one of --family or --sc-file")
    if args.family is not None:
        params = _explicit_params(args)
        mismatches = field_mismatches(args.family, params)
        if mismatches:
            name, missing = mismatches[0]
            verb = "requires" if missing else "takes no"
            raise DispatchError(f"family {args.family} {verb} --{name}")
        return build_family(args.family, params)
    unread = [f"--{n}" for n in _PARAMS if n not in reads and getattr(args, n) is not None]
    if unread:
        raise ParseError(f"{args.command} --sc-file does not read {' '.join(unread)}")
    path = Path(args.sc_file)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or a number past the digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{path} nests deeper than the JSON decoder reaches") from None
    return StructureCoefficients.from_json(data)


def _map_from_args(args: argparse.Namespace) -> QuadMap:
    missing = [f"--{n}" for n in ("p", "q", "a") if getattr(args, n) is None]
    if missing:
        raise ParseError(f"missing quadratic-map flags: {' '.join(missing)}")
    return QuadMap(args.p, args.q, args.a)


def _check_printable(polys) -> None:
    """Format, in report order, each of polys whose largest bit length
    does not clear the interpreter's integer-string limit (0: none), so
    that a coefficient too long to print is a RangeError before the
    first byte; a reduced coefficient is never longer than the stored
    one that cleared it. An int of b bits has under 0.30103 b + 1
    digits: b <= 3.32 * limit."""
    # an interpreter without the limit (before 3.10.7) prints any int
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    for f in polys:
        if max(map(int.bit_length, (f._den, *f._num))) > limit * 332 // 100:
            poly_to_strings(f)  # raises the RangeError of the writer


def _cmd_decompose(args: argparse.Namespace):
    spec = _family_input(args, reads=("p", "q", "a"))
    c = decompose(spec, _map_from_args(args), args.nmax)
    # parts read off their rows unreduced, each formatted when a writer reaches it
    layout = c._layout()
    parts = (r[key] for r in layout["components"] for key in ("P", "a_prev", "b", "R"))
    _check_printable(parts)
    return layout, False


def _cmd_analyze(args: argparse.Namespace):
    table = _family_input(args).table(max(args.nmax, args.dmax + 2))
    return detect_orthogonality_order(table, args.dmax).to_json(), False


def _cmd_derive(args: argparse.Namespace):
    base, derived = check_hahn_classical(_family_input(args), args.nmax, args.dmax)
    payload = {
        "base": base.to_json(),
        "derivative": derived.to_json(),
        "classical": base.classical,
    }
    return payload, False


def _cmd_verify_case(args: argparse.Namespace):
    if any(getattr(args, n) is not None for n in _PARAMS):
        params = _explicit_params(args)
        verdict = verify_case(args.case, params, nmax=args.nmax, dmax=args.dmax)
        return verdict.to_json(), not verdict.passed
    result = verify_sampled(
        args.case, args.samples, args.seed, nmax=args.nmax, dmax=args.dmax
    )
    return result.to_json(), not result.passed


def _cmd_sweep(args: argparse.Namespace):
    # a case named twice is verified once, in first-seen order
    cases = list(dict.fromkeys(args.case)) if args.case else list(CASE_IDS)
    for case_id in cases:
        case_claims(case_id)  # an unknown id fails before any sweep runs
    jobs = max(1, args.jobs)
    summary = {}
    failed = False
    for case_id in cases:
        result = verify_sampled(
            case_id, args.samples, args.seed, nmax=args.nmax, dmax=args.dmax, jobs=jobs
        )
        failed = failed or not result.passed
        counts = result.summary()
        del counts["excluded_verdicts"]  # a sweep lists only exceptional tuples
        summary[case_id] = {
            **counts,
            "exceptional": [
                v.params.to_json() for v in result.verdicts if not v.passed
            ],
        }
    knobs = {name: getattr(args, name) for name in ("nmax", "dmax", "samples", "seed")}
    return {**knobs, "passed": not failed, "cases": summary}, failed


_COMMANDS = {
    "decompose": _cmd_decompose,
    "analyze": _cmd_analyze,
    "derive": _cmd_derive,
    "verify-case": _cmd_verify_case,
    "sweep": _cmd_sweep,
}


# table rendering ------------------------------------------------------------

def _render_ortho(report: dict, indent: str = "") -> Iterator[str]:
    yield f"{indent}detected order : {report['detected_d']}"
    yield f"{indent}scanned range  : n <= {report['range']}"
    yield f"{indent}regularity ok  : {report['regularity_ok']}"
    if report["regularity_fail"] is not None:
        fail = report["regularity_fail"]
        yield f"{indent}regularity fail: band d={fail['d']} vanishes at n={fail['n']}"
    for w in report["witnesses"]:
        yield f"{indent}rejected d={w['d']}: chi[{w['n']}][{w['nu']}] = {w['value']}"


def _render_table(command: str, payload: dict) -> Iterator[str]:
    """The lines of the table form, each formatted when it is reached."""
    if command == "decompose":
        qmap = payload["map"]
        yield f"map: x^2 + ({qmap['p']}) x + ({qmap['q']}), anchor a = {qmap['a']}"
        for record in payload["components"]:
            yield f"n = {record['n']}"
            yield f"  P      = {format_poly(record['P'])}"
            yield f"  a_prev = {format_poly(record['a_prev'])}"
            yield f"  b      = {format_poly(record['b'])}"
            yield f"  R      = {format_poly(record['R'])}"
    elif command == "analyze":
        yield from _render_ortho(payload)
    elif command == "derive":
        yield "base sequence:"
        yield from _render_ortho(payload["base"], "  ")
        yield "derivative sequence:"
        yield from _render_ortho(payload["derivative"], "  ")
        yield f"classical: {payload['classical']}"
    elif command == "verify-case":
        if "verdicts" in payload:
            for k, verdict in enumerate(payload["verdicts"]):
                yield f"tuple {k}: {'PASS' if verdict['passed'] else 'FAIL'}"
                yield from _verdict_lines(verdict, only_failures=True)
            yield (
                f"case {payload['case']}: {payload['passes']} passed, "
                f"{payload['failures']} failed, {payload['excluded']} excluded"
            )
        else:
            yield f"case {payload['case']}: {'PASS' if payload['passed'] else 'FAIL'}"
            yield from _verdict_lines(payload, only_failures=False)
    elif command == "sweep":
        for case_id, entry in payload["cases"].items():
            yield (
                f"{case_id}: {'PASS' if entry['passed'] else 'FAIL'} "
                f"({entry['passes']} passed, {entry['failures']} failed, "
                f"{entry['excluded']} excluded)"
            )
        yield f"overall: {'PASS' if payload['passed'] else 'FAIL'}"


# each check of a component report, in the order of `CHECKS`: its note when
# its flag is true and when it is false; a null flag gives no note
_NOTES = tuple(zip(CHECKS, (
    ("table ok", "TABLE MISMATCH"),
    ("== {coincides_with}", "!= {coincides_with}"),
    ("offset {offset} ok", "OFFSET MISMATCH"),
    ("leadings ok", "LEADINGS MISMATCH"),
    ("all orders rejected", "REJECTION GAP"),
)))


def _verdict_lines(verdict: dict, only_failures: bool) -> Iterator[str]:
    for name, report in verdict["components"].items():
        notes = [] if report["orthogonal_d"] is None else [f"d={report['orthogonal_d']}"]
        notes += [
            (good if report[flag] else bad).format(**report)
            for flag, (good, bad) in _NOTES
            if report[flag] is not None
        ]
        if not only_failures or not checks_ok(report):
            yield f"  {name}: {', '.join(notes)}"
        if report["first_mismatch"]:
            m = report["first_mismatch"]
            where = f"beta_{m['n']}" if m["kind"] == "beta" else (
                f"chi[{m['n']}][{m['nu']}]"
            )
            yield (
                f"    first mismatch at {where}: "
                f"computed {m['computed']}, expected {m['expected']}"
            )
    for entry in verdict["identities"]:
        if not only_failures or not entry["ok"]:
            yield f"  identity {entry['name']}: {'ok' if entry['ok'] else 'FAILED'}"


def _write_json(obj, out, indent: str = "\n") -> None:
    """Write json.dumps(obj, indent=2, sort_keys=True) to `out`, one
    container at a time. Under an indent json encodes in pure Python;
    here each key is one C-level call, and each Poly one join.

    Lists and tuples are alike and dict keys are str. A Poly is written
    as the list poly_to_strings gives, formatted only when the writer
    reaches it and joined with no escaping check, since digits, "-" and
    "/" need none. So a decompose report is never built whole as strings
    before the first byte: those strings took about twice the memory of
    the components they were read from (1.8-2.1 times at nmax 80 and
    160), and one polynomial's strings are alive at a time. Any other
    value goes through json.dumps.
    """
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        sep = "{" + inner
        for key in sorted(obj):
            out.write(sep + encode_basestring_ascii(key) + ": ")
            _write_json(obj[key], out, inner)
            sep = "," + inner
        out.write(indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.write("[]")
            return
        sep = "[" + inner
        for item in obj:
            out.write(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.write(indent + "]")
    elif isinstance(obj, Poly):
        strings = poly_to_strings(obj)
        if not strings:
            out.write("[]")
            return
        # digits, "-" and "/" need no escaping: the coefficients are one join
        out.write(f'[{inner}"')
        out.write(f'",{inner}"'.join(strings))
        out.write(f'"{indent}]')
    else:
        out.write(json.dumps(obj))


def _write_report(args: argparse.Namespace, payload) -> None:
    """Write the report to --output, or to stdout, as it is formatted, and
    its closing newline as a write of its own: a long write can end short
    with no error on a closed pipe, a short one cannot, so the last write
    of a report is short. A stream that cannot be written is exit 2."""
    stdout = args.output is None
    name = "stdout" if stdout else _one_line(args.output)
    try:
        if stdout and sys.stdout is None:  # started with its descriptor closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        with nullcontext(sys.stdout) if stdout else open(args.output, "w") as out:
            if args.format == "table":
                for line in _render_table(args.command, payload):
                    out.write(line)
                    out.write("\n")
            else:
                _write_json(payload, out)
                out.write("\n")
            out.flush()
    except (OSError, ValueError) as exc:  # ValueError: a NUL or unencodable name
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(f"cannot write {name}: {reason}") from None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _resolve_knobs(args)
        # both formats stream; a decompose coefficient too long to print
        # raised in _check_printable already, so it is exit 3 with nothing written
        payload, failed = _COMMANDS[args.command](args)
        _write_report(args, payload)
    except QuadmpsError as exc:
        _say(sys.stderr, f"error: {_one_line(str(exc))}\n")
        return exc.exit_code
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
