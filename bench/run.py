"""quadmps benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. Every input is drawn from `--seed`. The run sets up once
untimed, which fills a bytecode cache of its own, then several times
more (import plus input generation; `setup_s` is the median). It then
runs the workload's operations in pass order, cycling, for about
`--seconds`, closed loop with a single client; `wall_s` is the sum
over the operations of their median times. Outputs are checked
outside the timed region. Human-readable lines come first; the last
line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.

The gated times are calibrated: a fixed pure-Python kernel is timed
just before and just after every set-up and every operation, and each
step's time is rescaled to the machine speed at which the kernel takes
REFERENCE_KERNEL_S. On a machine whose cores are shared, speed drifts
by tens of percent over seconds; the rescaled times follow the work
done, not the drift. The measured times are printed beside them.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1`
the run alternates untraced passes and passes under the span tracer
for about `--seconds`, then runs one pass counting `Poly` operations,
then the depth ladder, and reports the per-layer metrics; the untraced
passes are the base for the tracing overhead. The exit code is 0 only
when every check and the report digest pass.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 25
DIGESTS = HERE / "digests.json"
REFERENCE_KERNEL_S = 0.0018  # the kernel's median on an idle 2-vCPU Intel Xeon, CPython 3.11
clock = time.perf_counter


def kernel() -> Fraction:
    """Fixed exact Fraction recurrence, independent of the package."""
    a, b = Fraction(1), Fraction(3, 7)
    for k in range(1, 150):
        a, b = b, (b * Fraction(2 * k + 1, k + 3) - a * Fraction(k, 5)) / 3
    return b


def kernel_time() -> float:
    """Median time of five runs of the kernel."""
    times = []
    for _ in range(5):
        start = clock()
        kernel()
        times.append(clock() - start)
    return statistics.median(times)


def rescale(took: list[float], kernels: list[float]) -> list[float]:
    """Each step's time at the reference speed; kernels[k] and
    kernels[k + 1] were measured just before and just after step k."""
    return [t * 2 * REFERENCE_KERNEL_S / (a + b) for t, a, b in zip(took, kernels, kernels[1:])]


def purge_package() -> None:
    for name in [n for n in sys.modules if n == "quadmps" or n.startswith("quadmps.")]:
        del sys.modules[name]


def set_up(name: str, seed: int, workdir: Path):
    """Fresh import of the package plus the workload's inputs, timed."""
    purge_package()
    start = clock()
    qm = importlib.import_module("quadmps")
    importlib.import_module("quadmps.cli")
    workload = workloads.BUILDERS[name](qm, seed, workdir)
    return clock() - start, qm, workload


class Runner:
    """Closed-loop operations over one workload, in pass order, with
    per-operation latencies."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.first: list[object] = []  # each operation's first output
        self.attempted = 0
        self.problems: list[str] = []
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.kernel: float | None = None  # kernel time right after the last step

    def call(self, index: int) -> tuple[float, float]:
        """Run operation `index` once; (measured, calibrated) time."""
        op = self.workload.ops[index]
        before = self.kernel if self.kernel is not None else kernel_time()
        began = clock()
        output = op.call()
        took = clock() - began
        self.kernel = kernel_time()
        self.attempted += 1
        self.latency[op.kind].append(took)
        if index == len(self.first):
            self.first.append(output)
        elif output != self.first[index]:
            self.problems.append(f"{op.kind} {op.label}: output differs from the first pass")
        return took, rescale([took], [before, self.kernel])[0]

    def one_pass(self) -> tuple[float, float]:
        """(measured, calibrated) time of one pass."""
        times = [self.call(index) for index in range(len(self.workload.ops))]
        return sum(m for m, _ in times), sum(c for _, c in times)

    def run_for(self, seconds: float) -> tuple[float, float, float]:
        """Operations in pass order, cycling, until the next one would end
        past `seconds` (at least one pass). Returns the sums over the
        operations of their median measured and calibrated times, and the
        number of passes made (a partial pass counts its share)."""
        n = len(self.workload.ops)
        measured: list[list[float]] = [[] for _ in range(n)]
        calibrated: list[list[float]] = [[] for _ in range(n)]
        deadline = clock() + seconds
        k = 0
        while k < n or clock() + measured[k % n][-1] <= deadline:
            took, cal = self.call(k % n)
            measured[k % n].append(took)
            calibrated[k % n].append(cal)
            k += 1
        return (
            sum(statistics.median(v) for v in measured),
            sum(statistics.median(v) for v in calibrated),
            k / n,
        )


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile above the median with at least ten samples
    beyond it (nearest rank); None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 50, -1):
        rank = -(-pct * n // 100)  # ceil
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def describe(name: str, values: list[float], unit: str) -> str:
    line = f"{name:<14} median {statistics.median(values):.6g} {unit}"
    hi = tail(values)
    if hi is not None:
        line += f", p{hi[0]} {hi[1]:.6g} {unit}"
    return line + f" (n={len(values)})"


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def compare_reference(runner: Runner, workload: workloads.Workload) -> None:
    """Run the reference operations; each report must equal the first pass's."""
    for op, want in zip(workload.reference, runner.first):
        runner.attempted += 1
        if op.call() != want:
            runner.problems.append(f"{op.label}: report bytes differ from the timed pass")


def finish_checks(runner: Runner, workload: workloads.Workload, seed: int) -> str:
    """Run every output check; returns the report digest."""
    runner.problems.extend(workload.check(runner.first))
    digest = workloads.digest(runner.first)
    expected = json.loads(DIGESTS.read_text())
    if seed == expected["seed"]:
        runner.attempted += 1
        recorded = expected["digests"].get(workload.name)
        if digest != recorded:
            runner.problems.append(f"report digest {digest} differs from the recorded {recorded}")
    return digest


# Metrics of the verification path. Only the sweeps enter it, so the
# other workloads do not report them.
SWEEP_ONLY = (
    "verification.",
    "families.",
    "decomposition.check_reconstruction.",
    "polynomials.Poly.compose.",
)


def per_layer_names(sweep: bool) -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run of a sweep workload
    (`sweep`) or of another workload reports, in order."""
    names = []
    for module, qualname in tracing.LAYERS:
        key = tracing.layer_key(module, qualname)
        names += [(f"{key}.calls", "count"), (f"{key}.busy_s", "s"), (f"{key}.self_s", "s")]
    names += [(f"polynomials.Poly.{op}.calls", "count") for op, _ in tracing.POLY_OPS]
    names += [("polynomials.coeff_bits_max", "bits")]
    names += [
        ("verification.pool_starts", "count"),
        ("verification.pool_overhead_s", "s"),
        ("verification.useful_ratio", "ratio"),
        ("trace.untraced_wall_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    for n in tracing.LADDER_DEPTHS:
        for layer in ("generate_mps", "extract_sc", "decompose", "decompose_oracle"):
            if layer == "decompose_oracle" and n not in tracing.ORACLE_DEPTHS:
                continue
            names += [(f"ladder.{layer}.n{n}.busy_s", "s"), (f"ladder.{layer}.n{n}.coeff_bits_max", "bits")]
    if sweep:
        return names
    return [(name, unit) for name, unit in names if not name.startswith(SWEEP_ONLY)]


def useful_ratio(workload: workloads.Workload, outputs: list[object]) -> float:
    """Verdicts over verdicts plus excluded draws; 1 when nothing is verified."""
    if workload.ops[0].kind != "sweep":
        return 1.0
    counts = [workloads.sweep_counts(text) for _, text in outputs]
    verdicts = sum(v for v, _ in counts)
    return verdicts / (verdicts + sum(e for _, e in counts))


def untraced_run(args, workdir: Path) -> tuple[Runner, dict]:
    set_up(args.workload, args.seed, workdir)  # untimed: writes the bytecode cache
    setups, kernels = [], [kernel_time()]
    for _ in range(SETUP_REPEATS):
        took, qm, workload = set_up(args.workload, args.seed, workdir)
        setups.append(took)
        kernels.append(kernel_time())
    runner = Runner(workload)
    measured, wall, passes = runner.run_for(args.seconds)
    rss = peak_rss_mb()
    compare_reference(runner, workload)
    digest = finish_checks(runner, workload, args.seed)

    tuples = workload.tuples(runner.first)
    print(f"workload {workload.name}: seed {args.seed}, {passes:.3g} passes, {tuples} tuples per pass")
    print(describe("setup_s", rescale(setups, kernels), "s") + " calibrated")
    print(describe("setup_s", setups, "s") + " measured")
    print(f"{'wall_s':<14} {wall:.6g} s calibrated, {measured:.6g} s measured (sum of per-operation medians)")
    print(f"kernel         median {statistics.median(kernels) * 1000:.4g} ms during set-up")
    for kind, values in runner.latency.items():
        print(describe(f"{kind}_s", values, "s"))
    print(f"{'tuples_per_s':<14} {tuples / wall:.6g} 1/s (tuples per pass / calibrated wall_s)")
    print(f"{'peak_rss_mb':<14} {rss:.6g} MB")
    print(f"{'failed_frac':<14} {len(runner.problems) / runner.attempted:.6g} ({len(runner.problems)}/{runner.attempted})")
    print(f"digest sha256 {digest}")
    return runner, {
        "wall_s": metric(wall, "s"),
        "setup_s": metric(statistics.median(rescale(setups, kernels)), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }


def traced_run(args, workdir: Path) -> tuple[Runner, dict]:
    _, qm, workload = set_up(args.workload, args.seed, workdir)
    runner = Runner(workload)
    tracer = tracing.SpanTracer()
    untraced, traced = [], []
    deadline = clock() + args.seconds
    # alternate untraced and traced passes, so drift in machine speed
    # does not show up as tracing overhead
    while not untraced or clock() + untraced[-1][0] + traced[-1][0] <= deadline:
        untraced.append(runner.one_pass())
        with tracer:
            traced.append(runner.one_pass())
    counter = tracing.PolyCounter()
    with counter:
        runner.one_pass()
    values: dict[str, float] = {}
    passes = len(traced)
    for module, qualname in tracing.LAYERS:
        key = tracing.layer_key(module, qualname)
        calls, busy, self_time = tracer.stats.get(key, (0, 0.0, 0.0))
        values[f"{key}.calls"] = calls / passes
        values[f"{key}.busy_s"] = busy / passes
        values[f"{key}.self_s"] = self_time / passes
    for op, count in counter.counts.items():
        values[f"polynomials.Poly.{op}.calls"] = count
    values["polynomials.coeff_bits_max"] = counter.bits_max

    pool_overhead = 0.0
    if workload.reference:
        # the traced serial sweeps are also the byte-identity reference
        serial = tracing.SpanTracer()
        with serial:
            compare_reference(runner, workload)
        busy = serial.stats.get("verification.verify_case", (0, 0.0, 0.0))[1]
        pool_overhead = statistics.median(wall for wall, _ in untraced) - busy / 2
    values["verification.pool_starts"] = tracer.pool_starts / passes
    values["verification.pool_overhead_s"] = pool_overhead
    values["verification.useful_ratio"] = useful_ratio(workload, runner.first)
    # calibrated, like the gated times
    untraced_wall = statistics.median(cal for _, cal in untraced)
    traced_wall = statistics.median(cal for _, cal in traced)
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall

    ladder_params = workloads.draw_family_params(
        random.Random(f"ladder/{args.seed}"), "main"
    )
    ladder, disagreements = tracing.depth_ladder(qm, ladder_params)
    runner.attempted += 1
    runner.problems.extend(disagreements)
    values.update(ladder)
    digest = finish_checks(runner, workload, args.seed)

    print(f"workload {workload.name}: seed {args.seed}, traced run, {len(untraced)} untraced + {passes} traced passes")
    for name in tracer.absent + counter.absent:
        print(f"absent: {name}")
    names = per_layer_names(sweep=workload.ops[0].kind == "sweep")
    for name, unit in names:
        print(f"{name:<46} {values[name]:.6g} {unit}")
    print(f"digest sha256 {digest}")
    return runner, {name: metric(values[name], unit) for name, unit in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "quadmps" / "__init__.py").is_file():
        # measure the checkout's own sources, never an installed copy
        print(f"error: no quadmps package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    # Import the package through a bytecode cache of this run's own, so
    # set-up time never depends on what an earlier run or a test left in
    # src/quadmps/__pycache__.
    sys.pycache_prefix = str(workdir / "pycache")
    sys.dont_write_bytecode = False
    try:
        run = traced_run if args.trace else untraced_run
        runner, metrics = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run still uses it
    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    failed = len(runner.problems)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
