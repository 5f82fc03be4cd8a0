"""Running the decomposition engine against the per-case expectations.

`verify_case` takes one admissible parameter tuple, decomposes the
family deeply enough to compare structure coefficients up to the
requested index, and passes once over its case's claims, one checker
per claim kind. Secondary offsets and leading rules, closed-form tables,
coincidences, and orthogonality orders with rejection witnesses set
fields of a component's report; reconstruction, nullity, the even terms,
the odd rebuild, non-classical derivatives, the co-recursive pair and
the third-order recurrences are identities, each set by one rule,
`Identity(name, not left)`, from what its check leaves over. The three
rebuilds are one check (`_unrebuilt`) of the oracle's rows of the
materialized W_m. All arithmetic is exact: a claim holds on the
compared range or the verdict records its failure.

`sample_params` draws tuples off the degeneracy hyperplanes of the case,
so a fixed seed gives byte-identical reports. `verify_sampled` runs them
on a `ProcessPoolExecutor` only when it has more than one worker, and
the module imports that class on its first use (a module `__getattr__`),
so no other run loads `multiprocessing`. Every secondary has a
leading-coefficient rule, so a secondary that drops degree fails its
offset and leading checks. A claim reads only a built component (P and
R, a secondary that normalized, the derivative of a built one), decided
once per tuple: a secondary that never normalizes keeps only those two
checks, its derivative gets no entry, and a not-classical claim on that
derivative fails.
"""

from __future__ import annotations

import os
import random
import sys
from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, Iterable

from .analysis import BandWitness, OrthoReport, detect_orthogonality_order
from .decomposition import (
    QdComponents,
    QuadMap,
    _row,
    decompose,
    decompose_oracle,
    normalize_secondary,
    third_order_violations,
)
from .errors import (
    DegenerateCaseError,
    DispatchError,
    NotNormalizableError,
    RangeError,
)
from .families import (
    CASE_IDS,
    FAMILIES,
    CaseParams,
    case_claims,
    expected_sc,
    require_case,
)
from .polynomials import ZERO, Poly
from .sequences import (
    BandedRule,
    StructureCoefficients,
    derivative_sequence,
    extract_sc,
    generate_mps,
)
from .wire import Record, Wire


class TableMismatch(Record):
    """The first entry at which a computed table leaves its closed form:
    beta_n (nu is None) or chi_{n,nu}."""

    kind: str
    n: int
    nu: int | None
    computed: Fraction
    expected: Fraction

    def __post_init__(self):
        if self.kind not in ("beta", "chi"):
            raise ValueError(f"kind must be beta or chi, got {self.kind!r}")
        if (self.nu is None) != (self.kind == "beta"):
            raise ValueError("nu is null exactly for a beta entry")


class ComponentReport(Wire):
    """Verification outcome for one component of the decomposition."""

    orthogonal_d: int | None = None
    matches_expected: bool | None = None
    first_mismatch: TableMismatch | None = None
    coincides_with: str | None = None
    coincidence_ok: bool | None = None
    offset: int | None = None
    offset_ok: bool | None = None
    leadings_ok: bool | None = None
    rejections: tuple[BandWitness, ...] | None = None
    rejections_complete: bool | None = None

    def __post_init__(self):
        if self.first_mismatch is not None and self.matches_expected is not False:
            raise ValueError("a first mismatch needs matches_expected false")

    ok = property(lambda self: checks_ok(vars(self)))


# the flags of a component report's checks, each null when it is not made
CHECKS = ("matches_expected", "coincidence_ok", "offset_ok", "leadings_ok",
          "rejections_complete")


def checks_ok(flags) -> bool:
    """Whether no check failed, read off a report's fields or its payload."""
    return not any(flags[flag] is False for flag in CHECKS)


class Identity(Record):
    """One named claim of a verdict and whether it held."""

    name: str
    ok: bool


class EarlyViolation(Record):
    """A third-order recurrence violation below the grace index."""

    component: str
    n: int


class CaseVerdict(Wire):
    """Full outcome of verifying one parameter tuple against one case."""

    _wire_keys = {"case_id": "case"}

    case_id: str
    params: CaseParams
    nmax: int
    dmax: int
    components: tuple[tuple[str, ComponentReport], ...]
    identities: tuple[Identity, ...]
    # third-order recurrence violations below the grace index: tolerated
    # for perturbed inputs, but reported rather than swallowed.
    early_violations: tuple[EarlyViolation, ...] = ()

    def __post_init__(self):
        if self.case_id not in CASE_IDS:
            raise ValueError(f"unknown case {self.case_id!r}")

    @cached_property
    def passed(self) -> bool:
        """Every identity and component report ok, and every closed-form
        table of the case matched by a 2-orthogonal component."""
        reports = dict(self.components)
        tables = [reports.get(name) for name in case_claims(self.case_id).tables]
        return (
            all(i.ok for i in self.identities)
            and all(report.ok for report in reports.values())
            and all(
                r is not None and r.matches_expected is True and r.orthogonal_d == 2
                for r in tables
            )
        )

    def summary(self) -> dict:
        """The derived keys a verdict payload carries next to its fields;
        `excluded` is kept in the format and is always null."""
        return {"passed": self.passed, "excluded": None}

    def component(self, name: str) -> ComponentReport:
        return dict(self.components)[name]

    def identity(self, name: str) -> bool:
        return next(i.ok for i in self.identities if i.name == name)


def _first_table_mismatch(
    got: StructureCoefficients, rule: BandedRule, upto: int
) -> TableMismatch | None:
    table = rule.table(upto + 1)
    for n in range(upto + 1):
        have, want = got.beta[n], table.beta[n]
        if have != want:
            return TableMismatch("beta", n, None, have, want)
    for n in range(min(upto + 1, len(got.chi))):
        for nu, (have, want) in enumerate(zip(got.chi[n], table.chi[n])):
            if have != want:
                return TableMismatch("chi", n, nu, have, want)
    return None


class _Components:
    """One tuple's decomposition: each named monic list and its structure
    coefficients, built on first use. A trailing 1 names the normalized
    derivative sequence of the name before it."""

    def __init__(self, comp: QdComponents, params: CaseParams, nmax: int, dmax: int):
        self.comp, self.params, self.nmax, self.dmax = comp, params, nmax, dmax
        self.lists = {"P": list(comp.p_seq), "R": list(comp.r_seq)}
        self._sc: dict[str, StructureCoefficients] = {}
        self._orders: dict[str, OrthoReport | None] = {}

    def raw(self, name: str) -> tuple[Poly, ...]:
        """The secondary sequence a secondary name reads, before normalizing."""
        return self.comp.a_seq if name in ("A", "a") else self.comp.b_seq

    def polys(self, name: str) -> list[Poly] | None:
        """The monic list, or None for a component that never normalized."""
        if name not in self.lists and name.endswith("1"):
            base = self.polys(name[:-1])
            if base is not None:
                self.lists[name] = derivative_sequence(base)
        return self.lists.get(name)

    def sc(self, name: str) -> StructureCoefficients:
        if name not in self._sc:
            self._sc[name] = extract_sc(self.polys(name))
        return self._sc[name]

    def order(self, name: str) -> OrthoReport | None:
        """The sweep of band orders up to dmax; None without rows to sweep."""
        if name not in self._orders:
            sc = self.sc(name)
            top = min(self.dmax, sc.nmax - 2)
            self._orders[name] = detect_orthogonality_order(sc, top) if top >= 1 else None
        return self._orders[name]


# one checker per claim kind: each returns the fields it sets on its
# component's report, or its identity's name and what that leaves over

def _check_secondary(
    comps: _Components,
    name: str,
    want_offset: int,
    leading: Callable[[CaseParams, int], Fraction],
) -> dict:
    """Offset and leading coefficients; the monic list joins `comps`."""
    try:
        norm = normalize_secondary(list(comps.raw(name)), role=name)
    except NotNormalizableError:
        return {"offset_ok": False, "leadings_ok": False}
    if norm is None:
        return {"offset_ok": False}
    if name not in ("a", "b"):
        comps.lists[name] = list(norm.mps)
    offset_ok = norm.offset == want_offset
    leadings_ok = offset_ok and all(
        lead == leading(comps.params, j) for j, lead in enumerate(norm.leadings)
    )
    return {"offset": norm.offset, "offset_ok": offset_ok, "leadings_ok": leadings_ok}


def _check_order(comps: _Components, name: str, sweep: bool) -> dict:
    report = comps.order(name)
    if report is None:
        return {}
    fields = {"orthogonal_d": report.detected_d}
    if sweep:
        # the detector stores at most one witness per order, in ascending
        # order, so every order up to dmax is rejected iff it stores dmax
        complete = report.detected_d is None and len(report.witnesses) == comps.dmax
        fields.update(rejections=report.witnesses, rejections_complete=complete)
    return fields


def _check_table(comps: _Components, case_id: str, name: str) -> dict:
    sc = comps.sc(name)
    table = expected_sc(case_id, name, comps.params)
    mismatch = _first_table_mismatch(sc, table, min(comps.nmax, sc.nmax))
    return {"matches_expected": mismatch is None, "first_mismatch": mismatch}


def _check_coincidence(comps: _Components, left: str, right: str) -> dict:
    same = all(x == y for x, y in zip(comps.polys(left), comps.polys(right)))
    return {"coincides_with": right, "coincidence_ok": same}


def _check_corecursive(comps: _Components, left: str, right: str) -> tuple[str, bool]:
    """What is left is False only when beta_0 differs and the rest agrees."""
    sl, sr = comps.sc(left), comps.sc(right)
    upto = min(comps.nmax, sl.nmax, sr.nmax)
    return f"{left} co-recursive of {right}", (
        sl.beta[0] == sr.beta[0]
        or sl.beta[1 : upto + 1] != sr.beta[1 : upto + 1]
        or sl.chi[:upto] != sr.chi[:upto]
    )


def _unrebuilt(split: QdComponents, rows: Iterable[Poly], first=0, step=1) -> list[int]:
    """Every m = first + i step at which the oracle's row of the materialized
    W_m is not rows[i]; the split is unique, so none proves each rebuild."""
    ms = range(first, len(split.rows), step)
    return [m for m, row in zip(ms, rows) if split.rows[m] != row]


def verify_case(
    case_id: str,
    params: CaseParams,
    nmax: int = 12,
    dmax: int | None = None,
) -> CaseVerdict:
    """Check every claim of `case_id` at one parameter tuple."""
    require_case(case_id, params)
    if nmax < 4:
        raise RangeError(f"nmax must be at least 4, got {nmax}")
    dmax = nmax if dmax is None else dmax
    if not 1 <= dmax <= nmax:
        raise RangeError(f"dmax must lie in 1..nmax, got {dmax}")
    claims = case_claims(case_id)

    # depth covers structure-coefficient rows up to nmax for every
    # component, derivative rows up to nmax, and rejection witnesses up
    # to order dmax, with a margin of spare rows past each bound.
    depth = max(nmax + 3, dmax + 5)
    table = claims.constructor(params).table(2 * depth)
    qmap = QuadMap(params.p, params.q, params.a)
    comp = decompose(table, qmap, depth)
    split = decompose_oracle(generate_mps(table, 2 * depth + 1), qmap)
    comps = _Components(comp, params, nmax, dmax)

    # each identity's name and what its check leaves over
    leftovers = [("reconstruction", _unrebuilt(split, comp.rows))]
    for name in claims.null_components:
        leftovers.append((f"{name} null", [f for f in comps.raw(name) if f]))
    if "a" in claims.null_components:
        # W_2n = P_n(omega)
        even = [_row(f, ZERO) for f in comp.p_seq]
        leftovers.append(("even terms carry no secondary part", _unrebuilt(split, even, 0, 2)))
    # the fields of each component's report, built once at the end
    fields: defaultdict[str, dict] = defaultdict(dict)
    for name, offset, leading in claims.secondaries:
        fields[name].update(_check_secondary(comps, name, offset, leading))
    # the one rule of which components a claim may read
    named = {*fields, *claims.tables, *(left for left, _ in claims.coincide),
             *claims.not_classical, *claims.sweeps}
    built = {name for name in named if comps.polys(name) is not None}
    for name in claims.tables:
        if name in built:
            fields[name].update(_check_table(comps, case_id, name))
    for left, right in claims.coincide:
        if left in built:
            fields[left].update(_check_coincidence(comps, left, right))
    for name in claims.not_classical:
        # an unbuilt component has no order, so it proves nothing
        order = comps.order(name) if name in built else None
        leftovers.append((f"{name} not 2-orthogonal", order is None or order.detected_d == 2))
    # each gets its orthogonality order, the swept ones also their rejections
    for name in sorted(built):
        fields[name].update(_check_order(comps, name, name in claims.sweeps))
    if claims.odd_rebuild_with_gamma:
        # W_2n+1 = (x - a) R_n(omega) + gamma R_n-1(omega), with R_-1 = 0
        rs = comp.r_seq
        odd = [_row(params.gamma * r0, r) for r0, r in zip((ZERO, *rs), rs)]
        name = "odd terms rebuild from the first kind alone"
        leftovers.append((name, _unrebuilt(split, odd, 1, 2)))
    if claims.corecursive_pair is not None:
        leftovers.append(_check_corecursive(comps, *claims.corecursive_pair))
    violations = third_order_violations(
        comp, params.beta, params.alpha1, params.alpha2, params.gamma
    )
    grace = claims.third_order_grace
    early = [EarlyViolation(*v) for v in violations if v[1] < grace]
    leftovers.append(("third-order recurrences", [v for v in violations if v[1] >= grace]))

    return CaseVerdict(
        case_id=case_id,
        params=params,
        nmax=nmax,
        dmax=dmax,
        components=tuple(
            (name, ComponentReport(**entry)) for name, entry in sorted(fields.items())
        ),
        identities=tuple(Identity(name, not left) for name, left in leftovers),
        early_violations=tuple(early),
    )


# seeded sampling ------------------------------------------------------------

# drawn off zero: a zero gamma breaks regularity, and a zero alpha2, eta
# or xi lands on a hyperplane the cases pin or exclude
_NONZERO = ("gamma", "alpha2", "eta1", "eta2", "xi")


def _draw(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _draw_nonzero(rng: random.Random) -> Fraction:
    while True:
        v = _draw(rng)
        if v != 0:
            return v


def sample_params(case_id: str, rng: random.Random) -> CaseParams:
    """Draw one admissible parameter tuple for the case, rejecting draws
    that land on any of its degeneracy hyperplanes. The case's pins set
    their fields after the draws; p is drawn even where "p = -beta - a"
    then sets it, since the draw order fixes the sweep bytes."""
    claims = case_claims(case_id)
    pinned = claims.pinned_fields
    names = ("beta", "p", "q", "a", "alpha1", "gamma") + tuple(
        name for name in ("alpha2",) + FAMILIES[claims.family].fields if name not in pinned
    )
    for _ in range(10000):
        values = {n: (_draw_nonzero if n in _NONZERO else _draw)(rng) for n in names}
        drawn = SimpleNamespace(**values)
        values.update((name, value(drawn)) for name, value in pinned.items())
        params = CaseParams(**values)
        try:
            require_case(case_id, params)
        except DispatchError:
            continue
        return params
    raise DegenerateCaseError(
        f"could not sample admissible parameters for case {case_id}"
    )


class SweepResult(Wire):
    """Seeded batch of verdicts for one case."""

    _wire_keys = {"case_id": "case"}

    case_id: str
    nmax: int
    dmax: int
    seed: int
    samples: int
    verdicts: tuple[CaseVerdict, ...]

    def __post_init__(self):
        # a sweep writes `samples` verdicts, each of its own case, nmax and dmax
        if len(self.verdicts) != self.samples:
            raise ValueError(f"{len(self.verdicts)} verdicts for {self.samples} samples")
        for v in self.verdicts:
            if (v.case_id, v.nmax, v.dmax) != (self.case_id, self.nmax, self.dmax):
                raise ValueError(
                    f"a verdict of case {v.case_id} at nmax {v.nmax}, dmax {v.dmax}"
                    f" in a sweep of case {self.case_id} at nmax {self.nmax}, dmax {self.dmax}"
                )

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def summary(self) -> dict:
        """The counts a sweep payload carries next to its verdicts;
        `excluded_verdicts` and `excluded` are kept in the format and are
        always empty."""
        return {
            "passed": self.passed,
            "passes": sum(1 for v in self.verdicts if v.passed),
            "failures": sum(1 for v in self.verdicts if not v.passed),
            "excluded_verdicts": [],
            "excluded": 0,
        }


def _verify_one(task: tuple[str, CaseParams, int, int | None]) -> CaseVerdict:
    case_id, params, nmax, dmax = task
    return verify_case(case_id, params, nmax=nmax, dmax=dmax)


def verify_sampled(
    case_id: str,
    samples: int,
    seed: int,
    nmax: int = 12,
    dmax: int | None = None,
    jobs: int = 1,
) -> SweepResult:
    """Verify `samples` seeded tuples, on at most `jobs` worker processes."""
    if samples < 1:
        raise RangeError(f"samples must be at least 1, got {samples}")
    rng = random.Random(seed)
    tasks = [(case_id, sample_params(case_id, rng), nmax, dmax) for _ in range(samples)]
    workers = min(jobs, samples, os.cpu_count() or 1)
    if workers <= 1:
        verdicts = [_verify_one(t) for t in tasks]
    else:
        # read off the module at call time, where a test or a tracer may replace it
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=workers) as pool:
            verdicts = list(pool.map(_verify_one, tasks))
    return SweepResult(
        case_id=case_id,
        nmax=nmax,
        dmax=nmax if dmax is None else dmax,
        seed=seed,
        samples=samples,
        verdicts=tuple(verdicts),
    )


def __getattr__(name: str):
    # PEP 562: ProcessPoolExecutor is imported when it is first read
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
