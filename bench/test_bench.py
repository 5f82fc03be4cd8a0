"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Covers seeded input generation, the independent point-evaluation
check, and a short run of every workload (plus one traced run) whose
output line must match BENCHMARK.json.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import evalcheck  # noqa: E402
import quadmps  # noqa: E402
import quadmps.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

F = Fraction
PARAMS = {
    "beta": F(-3, 4), "alpha1": F(2, 3), "alpha2": F(5, 7), "gamma": F(-4, 9),
    "p": F(1, 2), "q": F(3, 8), "a": F(-5, 6),
    "tau": F(1, 3), "eta1": F(2), "eta2": F(-3, 4), "xi": F(5, 2),
    "tau1": F(1, 7), "tau2": F(-2, 5),
}


def family_params(family: str) -> dict[str, Fraction]:
    names = workloads.BASE_PARAMS + workloads.FAMILY_EXTRAS[family]
    return {k: PARAMS[k] for k in names}


def inputs_of(name: str, seed: int, workdir: Path) -> list:
    workload = workloads.BUILDERS[name](quadmps, seed, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.glob("*.json"))}
    ops = workload.ops + workload.reference
    return [op.inputs for op in ops] + [files]


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    first = inputs_of(name, 5, tmp_path)
    assert inputs_of(name, 5, tmp_path) == first
    assert inputs_of(name, 6, tmp_path) != first


@pytest.mark.parametrize("family", sorted(workloads.FAMILY_EXTRAS))
def test_family_coefficients_match_the_package(family):
    params = family_params(family)
    constructor = {
        "main": quadmps.family_main,
        "corecursive": quadmps.family_corecursive,
        "pert2-I": quadmps.family_pert2_I,
        "pert2-II": quadmps.family_pert2_II,
    }[family]
    table = constructor(quadmps.CaseParams(**params)).table(12)
    beta, chi_row = evalcheck.family_coefficients(family, params)
    assert [beta(n) for n in range(13)] == list(table.beta)
    for n, row in enumerate(table.chi):
        assert chi_row(n) == [(nu, c) for nu, c in enumerate(row) if c][::-1]


@pytest.mark.parametrize("family", sorted(workloads.FAMILY_EXTRAS))
def test_point_check_rejects_one_altered_coefficient(family):
    params = family_params(family)
    argv = ["decompose", "--nmax=8", *workloads.family_flags(family, params)]
    code, text = workloads.cli_call(quadmps, argv)
    assert code == 0
    payload = json.loads(text)
    beta, chi_row = evalcheck.family_coefficients(family, params)
    qmap = (params["p"], params["q"], params["a"])
    points = [F(1, 3), F(-2, 5)]
    assert evalcheck.check_components(payload, beta, chi_row, qmap, points) is None
    for component in ("P", "a_prev", "b", "R"):
        for power in (0, 2):
            altered = copy.deepcopy(payload)
            coeffs = altered["components"][5][component]
            if coeffs:
                k = min(power, len(coeffs) - 1)
                coeffs[k] = workloads.fmt(F(coeffs[k]) + F(1, 7))
            else:  # a null component gains a constant term
                coeffs.append("1/7")
            defect = evalcheck.check_components(altered, beta, chi_row, qmap, points)
            assert defect is not None, (component, power)


def test_point_check_on_a_dense_table(tmp_path):
    workload = workloads.BUILDERS["dense"](quadmps, 3, tmp_path)
    argv = workload.ops[0].inputs
    table, qmap = workload.ops[1].inputs
    payload = json.loads(workloads.cli_call(quadmps, [*argv[:1], "--nmax=6", *argv[2:]])[1])
    beta, chi_row = evalcheck.table_coefficients(table)
    assert evalcheck.check_components(payload, beta, chi_row, qmap, [F(2, 3)]) is None
    payload["components"][4]["b"][1] = workloads.fmt(F(payload["components"][4]["b"][1]) * 2 + 1)
    assert evalcheck.check_components(payload, beta, chi_row, qmap, [F(2, 3)]) is not None


def test_a_failing_sweep_verdict_is_a_defect():
    argv = workloads.sweep_argv("I", 0, 1)
    argv[argv.index("--samples=5")] = "--samples=1"
    code, text = workloads.cli_call(quadmps, argv)
    assert workloads.check_sweep(code, text) is None
    report = json.loads(text)
    entry = report["cases"]["I"]
    entry.update(passed=False, passes=0, failures=1)
    report["passed"] = False
    assert workloads.check_sweep(1, json.dumps(report)) is not None


def test_rescale_to_the_reference_speed():
    ref = run.REFERENCE_KERNEL_S
    assert run.rescale([1.0, 3.0], [ref, 3 * ref, ref]) == pytest.approx([0.5, 1.5])


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 15) is None
    assert run.tail([float(k) for k in range(1, 101)]) == (90, 90.0)


def bench(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# every workload, also the sweeps that BENCHMARK.json does not list
@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_smoke_run_of_every_workload(name):
    code, result = bench("--workload", name, "--seed", "0", "--seconds", "1", "--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_smoke_traced_run():
    code, result = bench("--workload", "deep-banded", "--seed", "0", "--seconds", "1", "--trace", "1")
    assert code == 0 and result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert [v["unit"] for v in result["metrics"].values()] == [m["unit"] for m in SPEC["per_layer"]]
    assert result["metrics"]["decomposition.decompose.calls"]["value"] == 4
    assert result["metrics"]["polynomials.Poly.init.calls"]["value"] > 0


def test_per_layer_names():
    others = run.per_layer_names(sweep=False)
    assert [name for name, _ in others] == [m["name"] for m in SPEC["per_layer"]]
    sweeps = dict(run.per_layer_names(sweep=True))
    assert set(others) < set(sweeps.items())
    assert "verification.verify_case.self_s" in sweeps and "verification.pool_starts" in sweeps


def test_exits_nonzero_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "bench" / "digests.json").write_bytes((HERE / "digests.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
