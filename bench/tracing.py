"""Per-layer tracing installed from outside the package.

`SpanTracer` wraps the public functions listed in LAYERS and records,
for each, the number of calls, the busy time (wall time inside the
call) and the self time (busy time minus the time covered by the
wrapped calls it made). Spans are aggregated as they close; nothing is
written until the run ends.

The package imports names with `from .x import y`, so one function can
be reachable from several module namespaces. Each wrapper replaces the
original wherever it is bound, in every loaded `quadmps` module, and
`restore()` puts every original back. A name the package no longer
defines is skipped and listed in `absent`.

Work done in forked pool workers cannot be gathered from the parent,
so every wrapper checks the process id and passes straight through in
any process other than the one that installed it.

`PolyCounter` counts `Poly` operations and tracks the largest
coefficient bit-length of every polynomial built. It is a separate
pass, so its cost never inflates the span times.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

# (module, qualified name) of every function the traced run measures
LAYERS = (
    ("cli", "main"),
    ("verification", "verify_case"),
    ("verification", "verify_sampled"),
    ("verification", "sample_params"),
    ("families", "require_case"),
    ("families", "expected_sc"),
    ("sequences", "generate_mps"),
    ("sequences", "extract_sc"),
    ("sequences", "derivative_sequence"),
    ("sequences", "BandedRule.table"),
    ("decomposition", "decompose"),
    ("decomposition", "decompose_oracle"),
    ("decomposition", "check_reconstruction"),
    ("analysis", "detect_orthogonality_order"),
    ("analysis", "check_hahn_classical"),
    ("rationals", "format_rational"),
    ("rationals", "parse_rational"),
)

# metric name -> Poly attribute
POLY_OPS = (
    ("init", "__init__"),
    ("mul", "__mul__"),
    ("add", "__add__"),
    ("sub", "__sub__"),
    ("compose", "compose"),
    ("divmod_by", "divmod_by"),
    ("divmod_linear", "divmod_linear"),
)


def layer_key(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


def coeff_bits(values) -> int:
    """Largest numerator or denominator bit-length among Fractions."""
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


class _Patcher:
    """Replace attributes and put the originals back on restore()."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.pid = os.getpid()

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original, replacement) -> None:
        """Rebind every module-level name bound to `original`."""
        for name, module in list(sys.modules.items()):
            if name != "quadmps" and not name.startswith("quadmps."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _resolve(module: str, qualname: str):
    """(owner, attribute, original) for a layer, None when it is gone."""
    owner = importlib.import_module(f"quadmps.{module}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class SpanTracer:
    """Aggregated spans for every function in LAYERS, plus pool starts."""

    def __init__(self):
        self.stats: dict[str, list[float]] = {}  # key -> [calls, busy, self]
        self.absent: list[str] = []
        self.pool_starts = 0
        self._stack: list[float] = []  # child time of each open span
        self._patch = _Patcher()

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        pid = self._patch.pid
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += took
                stats[2] += took - child
                if stack:
                    stack[-1] += took

        return traced

    def install(self) -> "SpanTracer":
        """Wrap every layer; stats accumulate over repeated installs."""
        self.absent = []
        for module, qualname in LAYERS:
            key = layer_key(module, qualname)
            found = _resolve(module, qualname)
            if found is None:
                self.absent.append(key)
                continue
            owner, attr, original = found
            wrapper = self._wrap(key, original)
            if isinstance(owner, type):
                self._patch.set(owner, attr, wrapper)
            else:
                self._patch.rebind(original, wrapper)
        verification = importlib.import_module("quadmps.verification")
        if getattr(verification, "ProcessPoolExecutor", None) is ProcessPoolExecutor:
            tracer = self

            class CountingPool(ProcessPoolExecutor):
                def __init__(self, *args, **kwargs):
                    if os.getpid() == tracer._patch.pid:
                        tracer.pool_starts += 1
                    super().__init__(*args, **kwargs)

            self._patch.set(verification, "ProcessPoolExecutor", CountingPool)
        return self

    def restore(self) -> None:
        self._patch.restore()

    def __enter__(self) -> "SpanTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


class PolyCounter:
    """Call counts of Poly operations and the largest coefficient built."""

    def __init__(self):
        self.counts = {name: 0 for name, _ in POLY_OPS}
        self.bits_max = 0
        self.absent: list[str] = []
        self._patch = _Patcher()

    def install(self) -> "PolyCounter":
        poly = importlib.import_module("quadmps.polynomials").Poly
        pid = self._patch.pid
        counts = self.counts
        for name, attr in POLY_OPS:
            original = getattr(poly, attr, None)
            if original is None:
                self.absent.append(f"polynomials.Poly.{name}")
                continue
            if attr == "__init__":
                counter = self

                @functools.wraps(original)
                def counted(self, *args, _fn=original, **kwargs):
                    _fn(self, *args, **kwargs)
                    if os.getpid() == pid:
                        counts["init"] += 1
                        bits = coeff_bits(self.coeffs)
                        if bits > counter.bits_max:
                            counter.bits_max = bits

            else:

                @functools.wraps(original)
                def counted(*args, _fn=original, _name=name, **kwargs):
                    if os.getpid() == pid:
                        counts[_name] += 1
                    return _fn(*args, **kwargs)

            self._patch.set(poly, attr, counted)
        return self

    def restore(self) -> None:
        self._patch.restore()

    def __enter__(self) -> "PolyCounter":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


LADDER_DEPTHS = (12, 20, 40, 80)
ORACLE_DEPTHS = (12, 20, 40)  # depth 80 takes ~9 s


def depth_ladder(qm, params) -> tuple[dict[str, float], list[str]]:
    """Busy time of the main family's layers at several depths, each with
    the largest coefficient bit-length of the polynomials it handles
    (W_0..W_{2n+1} for generate_mps, the structure coefficients that
    extract_sc returns, the components for the two engines). Also returns the depths at which the engines
    disagree."""
    rule = qm.families.family_main(qm.families.CaseParams(**params))
    qmap = qm.decomposition.QuadMap(params["p"], params["q"], params["a"])
    out: dict[str, float] = {}
    disagreements: list[str] = []

    def record(name: str, n: int, took: float, values) -> None:
        out[f"ladder.{name}.n{n}.busy_s"] = took
        out[f"ladder.{name}.n{n}.coeff_bits_max"] = coeff_bits(values)

    def poly_coeffs(polys):
        return (c for f in polys for c in f.coeffs)

    def sc_coeffs(sc):
        return (*sc.beta, *(c for row in sc.chi for c in row))

    def component_coeffs(comp):
        return poly_coeffs(comp.p_seq + comp.a_seq + comp.b_seq + comp.r_seq)

    clock = time.perf_counter
    for n in LADDER_DEPTHS:
        start = clock()
        polys = qm.sequences.generate_mps(rule, 2 * n + 1)
        record("generate_mps", n, clock() - start, poly_coeffs(polys))

        start = clock()
        sc = qm.sequences.extract_sc(polys)
        record("extract_sc", n, clock() - start, sc_coeffs(sc))

        table = rule.table(2 * n)
        start = clock()
        comp = qm.decomposition.decompose(table, qmap, n)
        record("decompose", n, clock() - start, component_coeffs(comp))

        if n in ORACLE_DEPTHS:
            start = clock()
            oracle = qm.decomposition.decompose_oracle(polys, qmap)
            record("decompose_oracle", n, clock() - start, component_coeffs(oracle))
            if oracle != comp:
                disagreements.append(f"ladder: engines disagree at nmax {n}")
    return out, disagreements
