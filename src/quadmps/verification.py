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
from dataclasses import dataclass, fields
from fractions import Fraction

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
    ParseError,
    RangeError,
)
from .families import (
    CASE_IDS,
    CaseParams,
    case_claims,
    expected_leading,
    expected_sc,
    require_case,
)
from .polynomials import Poly
from .rationals import format_rational, parse_rational
from .sequences import (
    BandedRule,
    StructureCoefficients,
    _json_list,
    _json_object,
    _json_typed,
    derivative_sequence,
    extract_sc,
    generate_mps,
)


_MISMATCH_KEYS = ("kind", "n", "nu", "computed", "expected")


def _json_mismatch(value) -> dict | None:
    """null, or a first table mismatch in the form `_first_table_mismatch`
    writes: a beta entry has a null nu, a chi entry an int one."""
    if value is None:
        return None
    what = "first mismatch"
    if _json_object(value, what).keys() != set(_MISMATCH_KEYS):
        raise ParseError(f"{what} must have the keys {', '.join(_MISMATCH_KEYS)}")
    kind = _json_typed(value, "kind", str, what)
    if kind not in ("beta", "chi"):
        raise ParseError(f"{what}: kind must be beta or chi, got {kind!r}")
    _json_typed(value, "n", int, what)
    if kind == "chi":
        _json_typed(value, "nu", int, what)
    elif value["nu"] is not None:
        raise ParseError(f"{what}: a beta entry has no nu, got {value['nu']!r}")
    for key in ("computed", "expected"):
        parse_rational(_json_typed(value, key, str, what))
    return value


@dataclass(frozen=True)
class ComponentReport:
    """Verification outcome for one component of the decomposition."""

    orthogonal_d: int | None = None
    matches_expected: bool | None = None
    first_mismatch: dict | None = None
    coincides_with: str | None = None
    coincidence_ok: bool | None = None
    offset: int | None = None
    offset_ok: bool | None = None
    leadings_ok: bool | None = None
    rejections: tuple[BandWitness, ...] | None = None
    rejections_complete: bool | None = None

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

    def to_json(self) -> dict:
        return {
            "orthogonal_d": self.orthogonal_d,
            "matches_expected": self.matches_expected,
            "first_mismatch": self.first_mismatch,
            "coincides_with": self.coincides_with,
            "coincidence_ok": self.coincidence_ok,
            "offset": self.offset,
            "offset_ok": self.offset_ok,
            "leadings_ok": self.leadings_ok,
            "rejections": None
            if self.rejections is None
            else [w.to_json() for w in self.rejections],
            "rejections_complete": self.rejections_complete,
        }

    @staticmethod
    def from_json(data: dict) -> "ComponentReport":
        _json_object(data, "component report")

        def field(key: str, kind: type):
            return _json_typed(data, key, kind, "component report", optional=True)

        try:
            rejections = data["rejections"]
            return ComponentReport(
                orthogonal_d=field("orthogonal_d", int),
                matches_expected=field("matches_expected", bool),
                first_mismatch=_json_mismatch(data["first_mismatch"]),
                coincides_with=field("coincides_with", str),
                coincidence_ok=field("coincidence_ok", bool),
                offset=field("offset", int),
                offset_ok=field("offset_ok", bool),
                leadings_ok=field("leadings_ok", bool),
                rejections=None
                if rejections is None
                else tuple(
                    BandWitness.from_json(w)
                    for w in _json_list(rejections, "rejections")
                ),
                rejections_complete=field("rejections_complete", bool),
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed component report: {exc}") from exc


def _json_pairs(value, what: str, keys: tuple[tuple[str, type], ...]) -> tuple:
    """A JSON list of objects, each read as the tuple of its typed keys."""
    return tuple(
        tuple(
            _json_typed(_json_object(entry, what), key, kind, what)
            for key, kind in keys
        )
        for entry in _json_list(value, what)
    )


@dataclass(frozen=True)
class CaseVerdict:
    """Full outcome of verifying one parameter tuple against one case."""

    case_id: str
    params: CaseParams
    nmax: int
    dmax: int
    passed: bool
    excluded: str | None
    components: tuple[tuple[str, ComponentReport], ...]
    identities: tuple[tuple[str, bool], ...]
    # third-order recurrence violations below the grace index: tolerated
    # for perturbed inputs, but reported rather than swallowed.
    early_violations: tuple[tuple[str, int], ...] = ()

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

    def to_json(self) -> dict:
        return {
            "case": self.case_id,
            "params": self.params.to_json(),
            "nmax": self.nmax,
            "dmax": self.dmax,
            "passed": self.passed,
            "excluded": self.excluded,
            "components": {name: rep.to_json() for name, rep in self.components},
            "identities": [
                {"name": name, "ok": ok} for name, ok in self.identities
            ],
            "early_violations": [
                {"component": name, "n": n} for name, n in self.early_violations
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "CaseVerdict":
        _json_object(data, "case verdict")
        try:
            return CaseVerdict(
                case_id=_json_typed(data, "case", str, "case verdict"),
                params=CaseParams.from_json(data["params"]),
                nmax=_json_typed(data, "nmax", int, "case verdict"),
                dmax=_json_typed(data, "dmax", int, "case verdict"),
                passed=_json_typed(data, "passed", bool, "case verdict"),
                excluded=_json_typed(
                    data, "excluded", str, "case verdict", optional=True
                ),
                components=tuple(
                    (name, ComponentReport.from_json(rep))
                    for name, rep in sorted(
                        _json_object(data["components"], "components").items()
                    )
                ),
                identities=_json_pairs(
                    data["identities"], "identity", (("name", str), ("ok", bool))
                ),
                early_violations=_json_pairs(
                    data["early_violations"],
                    "early violation",
                    (("component", str), ("n", int)),
                ),
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed case verdict: {exc}") from exc


def _first_table_mismatch(
    got: StructureCoefficients, rule: BandedRule, beta_upto: int, row_upto: int
) -> dict | None:
    for n in range(beta_upto + 1):
        have, want = got.beta[n], rule.beta(n)
        if have != want:
            return {
                "kind": "beta",
                "n": n,
                "nu": None,
                "computed": format_rational(have),
                "expected": format_rational(want),
            }
    for n in range(row_upto + 1):
        for nu in range(n + 1):
            have, want = got.chi[n][nu], rule.chi_at(n, nu)
            if have != want:
                return {
                    "kind": "chi",
                    "n": n,
                    "nu": nu,
                    "computed": format_rational(have),
                    "expected": format_rational(want),
                }
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
        components = tuple(
            (name, ComponentReport(**reports[name])) for name in sorted(reports)
        )
        passed = (
            excluded is None
            and all(ok for _, ok in identities)
            and all(report.ok for _, report in components)
            and all(
                dict(components)[name].matches_expected is True
                and dict(components)[name].orthogonal_d == 2
                for name in claims.tables
            )
        )
        return CaseVerdict(
            case_id=case_id,
            params=params,
            nmax=nmax,
            dmax=dmax,
            passed=passed,
            excluded=excluded,
            components=components,
            identities=tuple(identities),
            early_violations=tuple(early),
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
    for name, want_offset in claims.secondary_offsets:
        raw = list(comp.a_seq) if name in ("A", "a") else list(comp.b_seq)
        lead_rule = expected_leading(case_id, name, params)
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

def _draw(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _draw_nonzero(rng: random.Random) -> Fraction:
    while True:
        v = _draw(rng)
        if v != 0:
            return v


def sample_params(case_id: str, rng: random.Random) -> CaseParams:
    """Draw one admissible parameter tuple for the case, rejecting draws
    that land on any of its degeneracy hyperplanes."""
    if case_id not in CASE_IDS:
        raise DispatchError(
            f"unknown case {case_id!r}; expected one of {', '.join(CASE_IDS)}"
        )
    for _ in range(10000):
        beta = _draw(rng)
        p = _draw(rng)
        q = _draw(rng)
        a = _draw(rng)
        alpha1 = _draw(rng)
        gamma = _draw_nonzero(rng)
        if case_id in ("I-alpha2zero", "II-alpha2zero"):
            alpha2 = Fraction(0)
        else:
            alpha2 = _draw_nonzero(rng)
        if case_id in ("II", "II-alpha2zero"):
            p = -(beta + a)
        extra: dict[str, Fraction] = {}
        if case_id in ("co-I", "pert2-I"):
            extra["tau"] = _draw(rng)
        elif case_id in ("co-II", "pert2-I-tau-a"):
            extra["tau"] = a
        if case_id in ("pert2-I", "pert2-I-tau-a"):
            extra["eta1"] = _draw_nonzero(rng)
            extra["eta2"] = _draw_nonzero(rng)
            extra["xi"] = _draw_nonzero(rng)
        if case_id == "pert2-II":
            extra["tau1"] = _draw(rng)
            extra["tau2"] = _draw(rng)
        params = CaseParams(beta, alpha1, alpha2, gamma, p, q, a, **extra)
        try:
            require_case(case_id, params)
        except DispatchError:
            continue
        return params
    raise DegenerateCaseError(
        f"could not sample admissible parameters for case {case_id}"
    )


@dataclass(frozen=True)
class SweepResult:
    """Seeded batch of verdicts for one case."""

    case_id: str
    nmax: int
    dmax: int
    seed: int
    samples: int
    verdicts: tuple[CaseVerdict, ...]
    excluded: tuple[CaseVerdict, ...]

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

    def to_json(self) -> dict:
        return {
            "case": self.case_id,
            "nmax": self.nmax,
            "dmax": self.dmax,
            "seed": self.seed,
            "samples": self.samples,
            **self.summary(),
            "verdicts": [v.to_json() for v in self.verdicts],
            "excluded_verdicts": [v.to_json() for v in self.excluded],
        }

    @staticmethod
    def from_json(data: dict) -> "SweepResult":
        """Load a payload in the form to_json writes: exact field types,
        and counts that agree with the verdicts they summarize."""
        _json_object(data, "sweep result")

        def field(key: str, kind: type):
            return _json_typed(data, key, kind, "sweep result")

        def verdicts(key: str) -> tuple[CaseVerdict, ...]:
            return tuple(CaseVerdict.from_json(v) for v in _json_list(data[key], key))

        try:
            result = SweepResult(
                case_id=field("case", str),
                nmax=field("nmax", int),
                dmax=field("dmax", int),
                seed=field("seed", int),
                samples=field("samples", int),
                verdicts=verdicts("verdicts"),
                excluded=verdicts("excluded_verdicts"),
            )
            for key, want in result.summary().items():
                if data[key] != want or type(data[key]) is not type(want):
                    raise ParseError(
                        f"sweep result: {key!r} is {data[key]!r}, "
                        f"but its verdicts give {want!r}"
                    )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed sweep result: {exc}") from exc
        return result


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
