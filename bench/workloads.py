"""Seeded inputs, timed operations and output checks of each workload.

A workload is built once per set-up from the bench seed alone; the
program only ever sees the generated flags and files. One pass runs
every operation of the workload once, in order, through the public
surface (`quadmps.cli.main` in-process, plus `generate_mps` and
`decompose_oracle` for the oracle cross-check). Passes repeat the same
operations, so every pass must produce the same report bytes.

Checks run outside the timed region. `check` returns one message per
failed operation; an empty list means every output was verified.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import evalcheck

CATALOGUE_NMAX = 12
CATALOGUE_SAMPLES = 5  # per case, 45 verdicts per pass; the sweep size ROADMAP records
DEEP_NMAX = 80  # W up to index 161
DERIVE_NMAX = 30
DENSE_TABLES = 4
DENSE_NMAX = 30  # components to index 30, table to index 60
EVAL_POINTS = 2

FAMILY_EXTRAS = {
    "main": (),
    "corecursive": ("tau",),
    "pert2-I": ("tau", "eta1", "eta2", "xi"),
    "pert2-II": ("tau1", "tau2"),
}
BASE_PARAMS = ("beta", "alpha1", "alpha2", "gamma", "p", "q", "a")
# denominator of each drawn parameter: its height class
PARAM_DENOMINATORS = {
    "beta": 3, "alpha1": 4, "alpha2": 5, "gamma": 2, "p": 2, "q": 3, "a": 4,
    "tau": 5, "eta1": 3, "eta2": 2, "xi": 3, "tau1": 5, "tau2": 4,
}


def cli_call(qm, argv: list[str]) -> tuple[int, str]:
    """Run `quadmps <argv>` in-process; returns (exit code, stdout).
    Error messages go to stderr, which is dropped: exit codes carry them."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qm.cli.main(argv)
    return code, out.getvalue()


def fmt(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def draw(rng: random.Random, nonzero: bool = False) -> Fraction:
    """A small rational num/den with |num| <= 9 and 1 <= den <= 9."""
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if value or not nonzero:
            return value


def draw_sized(rng: random.Random, den: int) -> Fraction:
    """A rational with denominator exactly `den` and 1 < |value| <= 3.

    Coefficient growth, and so the cost of deep decompositions, follows
    the height of the parameters. Fixing each parameter's height keeps
    that cost alike across seeds while the values still vary.
    """
    nums = [k for k in range(den + 1, 3 * den + 1) if math.gcd(k, den) == 1]
    return Fraction(rng.choice(nums) * rng.choice((-1, 1)), den)


@dataclass
class Op:
    kind: str  # sweep, decompose, derive or oracle
    label: str
    call: Callable[[], object]
    inputs: object  # what the program receives: argv, or the oracle's table and map


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # checks the first pass's outputs; one message per failed operation
    check: Callable[[list[object]], list[str]]
    tuples: Callable[[list[object]], int]  # work items in one pass
    # run once after timing; their reports must equal the first pass's
    reference: list[Op] = field(default_factory=list)


def digest(outputs: list[object]) -> str:
    """SHA-256 over the report bytes of every CLI operation, in order
    (oracle results carry no report)."""
    h = hashlib.sha256()
    for out in outputs:
        if isinstance(out, tuple):
            blob = out[1].encode()
            h.update(len(blob).to_bytes(8, "big"))
            h.update(blob)
    return h.hexdigest()


# catalogue ------------------------------------------------------------------

def sweep_argv(case_id: str, seed: int, jobs: int) -> list[str]:
    return [
        "sweep",
        f"--case={case_id}",
        f"--nmax={CATALOGUE_NMAX}",
        f"--samples={CATALOGUE_SAMPLES}",
        f"--jobs={jobs}",
        f"--seed={seed}",
    ]


def check_sweep(code: int, text: str) -> str | None:
    """The defect of a sweep report, or None when it exited 0 with
    `"passed": true` and counts that agree with each other."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return f"sweep exit {code} without a JSON report"
    if code != 0 or not report["passed"]:
        failing = [case_id for case_id, entry in report["cases"].items() if not entry["passed"]]
        return f"sweep exit {code}, passed={report['passed']}, failing cases {failing}"
    for case_id, entry in report["cases"].items():
        if entry["passes"] != report["samples"] or entry["failures"]:
            return f"{case_id}: {entry['passes']} passes, {entry['failures']} failures"
        if len(entry["exceptional"]) != entry["excluded"]:
            return f"{case_id}: exceptional list does not match the counts"
    return None


def sweep_counts(text: str) -> tuple[int, int]:
    """(verdicts, excluded draws) of a sweep report."""
    cases = json.loads(text)["cases"].values()
    return sum(e["passes"] + e["failures"] for e in cases), sum(e["excluded"] for e in cases)


def catalogue(qm, seed: int, workdir: Path, jobs: int) -> Workload:
    """One sweep per case, so a pass has op boundaries about a second
    apart for the speed calibration; each case draws from the same seed,
    so the nine reports hold what one all-case sweep holds."""

    def sweeps(jobs: int) -> list[Op]:
        ops = []
        for case_id in qm.verification.CASE_IDS:
            argv = sweep_argv(case_id, seed, jobs)
            ops.append(Op("sweep", f"{case_id}, jobs {jobs}", lambda argv=argv: cli_call(qm, argv), argv))
        return ops

    def check(outputs: list[object]) -> list[str]:
        problems = (check_sweep(*out) for out in outputs)
        return [problem for problem in problems if problem is not None]

    def tuples(outputs: list[object]) -> int:
        return sum(sum(sweep_counts(text)) for _, text in outputs)

    name = "catalogue" if jobs == 1 else f"catalogue-j{jobs}"
    reference = sweeps(1) if jobs != 1 else []
    return Workload(name, sweeps(jobs), check, tuples, reference=reference)


# deep-banded ----------------------------------------------------------------

def draw_family_params(rng: random.Random, family: str) -> dict[str, Fraction]:
    return {
        name: draw_sized(rng, PARAM_DENOMINATORS[name])
        for name in BASE_PARAMS + FAMILY_EXTRAS[family]
    }


def family_flags(family: str, params: dict[str, Fraction]) -> list[str]:
    # --flag=value, since argparse reads "--q -3/4" as two options
    return ["--family", family] + [f"--{k}={fmt(v)}" for k, v in params.items()]


def eval_points(rng: random.Random) -> list[Fraction]:
    return [draw(rng, nonzero=True) for _ in range(EVAL_POINTS)]


def deep_banded(qm, seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"deep-banded/{seed}")
    tuples_ = []
    for family in FAMILY_EXTRAS:
        while True:
            params = draw_family_params(rng, family)
            flags = family_flags(family, params)
            # redraw a tuple the program rejects (exit 3 or 4) before timing
            codes = {cli_call(qm, [cmd, "--nmax=4", *flags])[0] for cmd in ("decompose", "derive")}
            if codes == {0}:
                break
            if codes - {0, 3, 4}:
                raise RuntimeError(f"{family} {flags}: unexpected exit codes {codes}")
        tuples_.append((family, params, flags))
    points = eval_points(rng)

    ops = []
    for family, params, flags in tuples_:
        dec = ["decompose", f"--nmax={DEEP_NMAX}", *flags]
        der = ["derive", f"--nmax={DERIVE_NMAX}", *flags]
        ops.append(Op("decompose", family, lambda argv=dec: cli_call(qm, argv), dec))
        ops.append(Op("derive", family, lambda argv=der: cli_call(qm, argv), der))

    def check(outputs: list[object]) -> list[str]:
        problems = []
        for k, (family, params, _) in enumerate(tuples_):
            (dcode, dtext), (vcode, vtext) = outputs[2 * k], outputs[2 * k + 1]
            if dcode != 0:
                problems.append(f"decompose {family}: exit {dcode}")
            else:
                beta, chi_row = evalcheck.family_coefficients(family, params)
                qmap = (params["p"], params["q"], params["a"])
                defect = evalcheck.check_components(json.loads(dtext), beta, chi_row, qmap, points)
                if defect:
                    problems.append(f"decompose {family}: {defect}")
            if vcode != 0:
                problems.append(f"derive {family}: exit {vcode}")
            elif json.loads(vtext)["base"]["detected_d"] != 2:
                problems.append(f"derive {family}: base sequence not detected 2-orthogonal")
        return problems

    return Workload("deep-banded", ops, check, lambda outputs: len(tuples_))


# dense ----------------------------------------------------------------------

def draw_dense_table(rng: random.Random, nmax: int) -> dict:
    return {
        "nmax": nmax,
        "beta": [fmt(draw(rng)) for _ in range(nmax + 1)],
        "chi": [[fmt(draw(rng, nonzero=True)) for _ in range(n + 1)] for n in range(nmax)],
    }


def dense(qm, seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"dense/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    tables = []
    for k in range(DENSE_TABLES):
        while True:
            table = draw_dense_table(rng, 2 * DENSE_NMAX)
            map_values = tuple(draw_sized(rng, PARAM_DENOMINATORS[n]) for n in "pqa")
            path = workdir / f"table-{k}.json"
            path.write_text(json.dumps(table))
            flags = ["--sc-file", str(path)] + [f"--{n}={fmt(v)}" for n, v in zip("pqa", map_values)]
            code, _ = cli_call(qm, ["decompose", "--nmax=4", *flags])
            if code == 0:
                break
            if code not in (3, 4):
                raise RuntimeError(f"table {k}: unexpected exit code {code}")
        sc = qm.sequences.StructureCoefficients(
            tuple(Fraction(b) for b in table["beta"]),
            tuple(tuple(Fraction(c) for c in row) for row in table["chi"]),
        )
        tables.append((table, map_values, flags, sc, qm.decomposition.QuadMap(*map_values)))
    points = eval_points(rng)

    def oracle(sc, qmap):
        polys = qm.sequences.generate_mps(sc, 2 * DENSE_NMAX + 1)
        return qm.decomposition.decompose_oracle(polys, qmap)

    ops = []
    for k, (table, map_values, flags, sc, qmap) in enumerate(tables):
        argv = ["decompose", f"--nmax={DENSE_NMAX}", *flags]
        ops.append(Op("decompose", f"table {k}", lambda argv=argv: cli_call(qm, argv), argv))
        ops.append(
            Op("oracle", f"table {k}", lambda sc=sc, qmap=qmap: oracle(sc, qmap), (table, map_values))
        )

    def check(outputs: list[object]) -> list[str]:
        problems = []
        for k, (table, map_values, _, sc, qmap) in enumerate(tables):
            (code, text), components = outputs[2 * k], outputs[2 * k + 1]
            if code != 0:
                problems.append(f"decompose table {k}: exit {code}")
            else:
                beta, chi_row = evalcheck.table_coefficients(table)
                defect = evalcheck.check_components(json.loads(text), beta, chi_row, map_values, points)
                if defect:
                    problems.append(f"decompose table {k}: {defect}")
            if components != qm.decomposition.decompose(sc, qmap, DENSE_NMAX):
                problems.append(f"oracle table {k}: differs from decompose")
        return problems

    return Workload("dense", ops, check, lambda outputs: len(tables))


BUILDERS = {
    "catalogue": lambda qm, seed, workdir: catalogue(qm, seed, workdir, jobs=1),
    "catalogue-j2": lambda qm, seed, workdir: catalogue(qm, seed, workdir, jobs=2),
    "deep-banded": deep_banded,
    "dense": dense,
}
