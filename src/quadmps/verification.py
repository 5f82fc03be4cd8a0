"""Running the decomposition engine against the per-case expectations.

`verify_case` takes one admissible parameter tuple, decomposes the
family deeply enough to compare structure coefficients up to the
requested index, and checks every claim the case makes: closed-form
tables, nullity, coincidences between components, degree offsets and
leading coefficients of the secondary pair, orthogonality rejections
with stored witnesses, and the constant-coefficient third-order
recurrences. All arithmetic is exact; a claim either holds on the
compared range or the verdict records the first mismatch.

Parameter tuples are drawn by `sample_params` with rejection off the
degeneracy hyperplanes of the case, so a fixed seed reproduces the
same tuples and therefore byte-identical reports. A tuple that defeats
a claim for which no closed form exists (a coincidental degree drop in
a secondary component) is excluded rather than failed, and the sweep
driver replaces it with a fresh draw.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace
from typing import NamedTuple

from .analysis import BandWitness, detect_orthogonality_order
from .decomposition import (
    QuadMap,
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
from .polynomials import Poly
from .sequences import (
    BandedRule,
    StructureCoefficients,
    derivative_sequence,
    extract_sc,
    generate_mps,
)
from .wire import Wire


@dataclass(frozen=True)
class TableMismatch:
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


@dataclass(frozen=True)
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

    @property
    def ok(self) -> bool:
        return not any(
            flag is False
            for flag in (
                self.matches_expected,
                self.coincidence_ok,
                self.offset_ok,
                self.leadings_ok,
                self.rejections_complete,
            )
        )


class Identity(NamedTuple):
    """One named claim of a verdict and whether it held."""

    name: str
    ok: bool


class EarlyViolation(NamedTuple):
    """A third-order recurrence violation below the grace index."""

    component: str
    n: int


@dataclass(frozen=True)
class CaseVerdict(Wire):
    """Full outcome of verifying one parameter tuple against one case."""

    case_id: str = field(metadata={"json": "case"})
    params: CaseParams
    nmax: int
    dmax: int
    excluded: str | None
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
        """Not excluded, every identity and component report ok, and every
        closed-form table of the case matched by a 2-orthogonal component."""
        reports = dict(self.components)
        tables = [reports.get(name) for name in case_claims(self.case_id).tables]
        return (
            self.excluded is None
            and all(ok for _, ok in self.identities)
            and all(report.ok for report in reports.values())
            and all(
                r is not None and r.matches_expected is True and r.orthogonal_d == 2
                for r in tables
            )
        )

    def summary(self) -> dict:
        """The derived key a verdict payload carries next to its fields."""
        return {"passed": self.passed}

    def component(self, name: str) -> ComponentReport:
        for key, report in self.components:
            if key == name:
                return report
        raise KeyError(name)

    def identity(self, name: str) -> bool:
        for key, ok in self.identities:
            if key == name:
                return ok
        raise KeyError(name)


def _first_table_mismatch(
    got: StructureCoefficients, rule: BandedRule, beta_upto: int, row_upto: int
) -> TableMismatch | None:
    for n in range(beta_upto + 1):
        have, want = got.beta[n], rule.beta(n)
        if have != want:
            return TableMismatch("beta", n, None, have, want)
    for n in range(row_upto + 1):
        for nu in range(n + 1):
            have, want = got.chi[n][nu], rule.chi_at(n, nu)
            if have != want:
                return TableMismatch("chi", n, nu, have, want)
    return None


_REPORT_FIELDS = tuple(f.name for f in fields(ComponentReport))


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
    rule = claims.constructor(params)
    qmap = QuadMap(params.p, params.q, params.a)
    polys = generate_mps(rule, 2 * depth + 1)
    comp = decompose(rule.table(2 * depth), qmap, depth)

    identities: list[tuple[str, bool]] = []
    reports: dict[str, dict] = {}
    early: list[tuple[str, int]] = []

    def rep(name: str) -> dict:
        return reports.setdefault(name, {k: None for k in _REPORT_FIELDS})

    def finish(excluded: str | None) -> CaseVerdict:
        return CaseVerdict(
            case_id=case_id,
            params=params,
            nmax=nmax,
            dmax=dmax,
            excluded=excluded,
            components=tuple(
                (name, ComponentReport(**reports[name])) for name in sorted(reports)
            ),
            identities=tuple(map(Identity._make, identities)),
            early_violations=tuple(map(EarlyViolation._make, early)),
        )

    # the split W_2n = P_n(omega) + (x - a) a_n-1(omega),
    # W_2n+1 = b_n(omega) + (x - a) R_n(omega) is unique, so the oracle's
    # components of the materialized W_m prove every rebuild identity
    split = decompose_oracle(polys, qmap)
    identities.append(("reconstruction", split == comp))

    for name in claims.null_components:
        seq = comp.a_seq if name == "a" else comp.b_seq
        identities.append((f"{name} null", all(f.is_zero for f in seq)))
    if "a" in claims.null_components:
        even_ok = split.p_seq == comp.p_seq and all(f.is_zero for f in split.a_seq)
        identities.append(("even terms carry no secondary part", even_ok))

    lists: dict[str, list[Poly]] = {
        "P": list(comp.p_seq),
        "R": list(comp.r_seq),
    }

    # secondary components: degree offset, leading coefficients, and
    # (when they are monic polynomial sequences after normalization)
    # their polynomial lists for the later claims.
    for name, want_offset, leading in claims.secondaries:
        raw = list(comp.a_seq) if name in ("A", "a") else list(comp.b_seq)
        lead_rule = None if leading is None else leading(params)
        r = rep(name)
        try:
            norm = normalize_secondary(raw, role=name)
        except NotNormalizableError as exc:
            if lead_rule is None:
                # coincidental degree drop with no closed form to blame:
                # the tuple is excluded rather than failed.
                return finish(str(exc))
            r["offset_ok"] = False
            r["leadings_ok"] = False
            continue
        if norm is None:
            r["offset_ok"] = False
            continue
        r["offset"] = norm.offset
        r["offset_ok"] = norm.offset == want_offset
        if lead_rule is not None:
            r["leadings_ok"] = norm.offset == want_offset and all(
                norm.leadings[j] == lead_rule(j) for j in range(len(norm.leadings))
            )
        if name not in ("a", "b"):
            lists[name] = list(norm.mps)

    sc_cache: dict[str, StructureCoefficients] = {}

    def polys_for(name: str) -> list[Poly] | None:
        if name in lists:
            return lists[name]
        if name.endswith("1") and not name.endswith("11"):
            base = polys_for(name[:-1])
            if base is None:
                return None
            der = derivative_sequence(base, sc_of(name[:-1]))
            lists[name] = der
            return der
        return None

    def sc_of(name: str) -> StructureCoefficients:
        if name not in sc_cache:
            sc_cache[name] = extract_sc(lists[name])
        return sc_cache[name]

    referenced: set[str] = {"P", "R"}
    referenced.update(claims.tables)
    referenced.update(claims.sweeps)
    referenced.update(claims.not_classical)
    for left, right in claims.coincide:
        referenced.update((left, right))

    for name in sorted(referenced):
        seq = polys_for(name)
        if seq is None:
            continue
        sc = sc_of(name)
        effective = min(dmax, sc.nmax - 2)
        r = rep(name)
        if effective >= 1:
            report = detect_orthogonality_order(sc, effective)
            r["orthogonal_d"] = report.detected_d
            if name in claims.sweeps:
                witnessed: dict[int, BandWitness] = {}
                for w in report.witnesses:
                    genuine = (
                        w.n - w.nu >= w.d
                        and w.n < len(sc.chi)
                        and sc.chi[w.n][w.nu] == w.value
                        and w.value != 0
                    )
                    if genuine:
                        witnessed[w.d] = w
                r["rejections"] = tuple(witnessed[d] for d in sorted(witnessed))
                r["rejections_complete"] = report.detected_d is None and all(
                    d in witnessed for d in range(1, dmax + 1)
                )

    for name in claims.tables:
        if polys_for(name) is None:
            # the component never normalized into an MPS, so there is
            # nothing to compare against its closed form
            rep(name)["matches_expected"] = False
            continue
        sc = sc_of(name)
        table = expected_sc(case_id, name, params)
        mismatch = _first_table_mismatch(
            sc, table, min(nmax, sc.nmax), min(nmax, sc.nmax - 1)
        )
        r = rep(name)
        r["matches_expected"] = mismatch is None
        r["first_mismatch"] = mismatch

    for name in claims.not_classical:
        identities.append(
            (f"{name} not 2-orthogonal", rep(name)["orthogonal_d"] != 2)
        )

    for left, right in claims.coincide:
        ls, rs = polys_for(left), polys_for(right)
        r = rep(left)
        r["coincides_with"] = right
        if ls is None or rs is None:
            r["coincidence_ok"] = False
            continue
        m = min(len(ls), len(rs))
        r["coincidence_ok"] = m > 0 and all(ls[i] == rs[i] for i in range(m))

    if claims.odd_rebuild_with_gamma:
        # W_2n+1 = (x - a) R_n(omega) + gamma R_n-1(omega), with R_-1 = 0
        ok = split.r_seq == comp.r_seq and all(
            split.b_at(n) == params.gamma * comp.r_at(n - 1) for n in range(depth + 1)
        )
        identities.append(("odd terms rebuild from the first kind alone", ok))

    if claims.corecursive_pair is not None:
        left, right = claims.corecursive_pair
        sl, sr = sc_of(left), sc_of(right)
        upto = min(nmax, sl.nmax, sr.nmax)
        differs = sl.beta[0] != sr.beta[0]
        rest = all(sl.beta[n] == sr.beta[n] for n in range(1, upto + 1)) and all(
            sl.chi[n][nu] == sr.chi[n][nu]
            for n in range(upto)
            for nu in range(n + 1)
        )
        identities.append((f"{left} co-recursive of {right}", differs and rest))

    violations = third_order_violations(
        comp, params.beta, params.alpha1, params.alpha2, params.gamma, start=1
    )
    early.extend(v for v in violations if v[1] < claims.third_order_grace)
    identities.append(
        (
            "third-order recurrences",
            all(n < claims.third_order_grace for _, n in violations),
        )
    )

    return finish(None)


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
        name for name in ("alpha2",) + FAMILIES[claims.family][1] if name not in pinned
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


@dataclass(frozen=True)
class SweepResult(Wire):
    """Seeded batch of verdicts for one case."""

    case_id: str = field(metadata={"json": "case"})
    nmax: int
    dmax: int
    seed: int
    samples: int
    verdicts: tuple[CaseVerdict, ...]
    excluded: tuple[CaseVerdict, ...] = field(metadata={"json": "excluded_verdicts"})

    @property
    def passed(self) -> bool:
        return len(self.verdicts) == self.samples and all(
            v.passed for v in self.verdicts
        )

    def summary(self) -> dict:
        """The counts a sweep payload carries next to its verdicts."""
        return {
            "passed": self.passed,
            "passes": sum(1 for v in self.verdicts if v.passed),
            "failures": sum(1 for v in self.verdicts if not v.passed),
            "excluded": len(self.excluded),
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
    """Verify `samples` seeded tuples; excluded tuples are replaced so the
    result always carries `samples` usable verdicts (unless exclusions
    dominate pathologically, which the caller sees as a short verdict list)."""
    if samples < 1:
        raise RangeError(f"samples must be at least 1, got {samples}")
    rng = random.Random(seed)
    verdicts: list[CaseVerdict] = []
    excluded: list[CaseVerdict] = []
    budget = 20 * samples + 50
    drawn = 0
    while len(verdicts) < samples and drawn < budget:
        need = samples - len(verdicts)
        batch = [sample_params(case_id, rng) for _ in range(need)]
        drawn += need
        tasks = [(case_id, pr, nmax, dmax) for pr in batch]
        workers = min(jobs, len(tasks), os.cpu_count() or 1)
        if workers <= 1:
            results = [_verify_one(t) for t in tasks]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_verify_one, tasks))
        for verdict in results:
            (excluded if verdict.excluded else verdicts).append(verdict)
    return SweepResult(
        case_id=case_id,
        nmax=nmax,
        dmax=nmax if dmax is None else dmax,
        seed=seed,
        samples=samples,
        verdicts=tuple(verdicts),
        excluded=tuple(excluded),
    )
