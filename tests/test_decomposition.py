import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    components_of_pairs,
    compose,
    random_spec,
    random_two_orthogonal,
    rational,
    three_term,
    times,
    with_random_zeros,
)
from quadmps import decomposition
from quadmps.decomposition import (
    QdComponents,
    QuadMap,
    anchor_split,
    decompose,
    decompose_oracle,
    mixed_relation_violations,
    normalize_secondary,
    third_order_violations,
)
from quadmps.errors import (
    InvalidSequenceError,
    NotNormalizableError,
    ParseError,
    RangeError,
)
from quadmps.families import CASE_IDS, case_claims, family_main
from quadmps.polynomials import (
    ONE,
    X,
    ZERO,
    Poly,
    _times_x,
    lincomb,
    poly_to_strings,
)
from quadmps.sequences import (
    BandedRule,
    StructureCoefficients,
    extract_sc,
    generate_mps,
)
from quadmps.verification import sample_params

F = Fraction


def random_map(rng) -> QuadMap:
    return QuadMap(rational(rng), rational(rng), rational(rng))


def sample_family() -> BandedRule:
    # alternating-coefficient family at beta=1, alpha1=2, alpha2=3, gamma=1,
    # built for maps with p = 0 (the even betas carry -(p + beta))
    return BandedRule.two_orthogonal(
        beta=lambda n: F(1) if n % 2 else F(-1),
        alpha=lambda m: F(2) if m % 2 else F(3),
        gamma=lambda m: F(-1) if m % 2 else F(1),
    )


def sample_family_map(rng) -> QuadMap:
    # p is pinned by the family; q and the anchor stay free
    return QuadMap(F(0), rational(rng), rational(rng))


def reference_decompose(sc, qmap: QuadMap, nmax: int) -> QdComponents:
    """decompose as a per-index loop: every chi entry is read by
    index and negated on its own, and each (x - omega(a)) factor is a
    product by the reference `times`."""
    a = qmap.a
    shift = X - Poly.constant(qmap.omega_at_anchor)
    p_seq, r_seq = [ONE], [ONE]
    b_seq = [Poly.constant(a - sc.beta[0])]
    a_seq = []

    def a_prev(i):
        return ZERO if i < 0 else a_seq[i]

    for n in range(nmax):
        beta = sc.beta[2 * n + 1]
        p_terms = [(1, times(shift, r_seq[n])), (a - beta, b_seq[n])]
        a_terms = [(1, b_seq[n]), (-(a + qmap.p + beta), r_seq[n])]
        for nu in range(n + 1):
            c = -sc.chi[2 * n][2 * nu]
            p_terms.append((c, p_seq[nu]))
            a_terms.append((c, a_prev(nu - 1)))
        for nu in range(n):
            c = -sc.chi[2 * n][2 * nu + 1]
            p_terms.append((c, b_seq[nu]))
            a_terms.append((c, r_seq[nu]))
        p_seq.append(lincomb(p_terms))
        a_seq.append(lincomb(a_terms))
        beta = sc.beta[2 * n + 2]
        b_terms = [(a - beta, p_seq[-1]), (1, times(shift, a_seq[-1]))]
        r_terms = [(1, p_seq[-1]), (-(a + qmap.p + beta), a_seq[-1])]
        for nu in range(n + 1):
            c = -sc.chi[2 * n + 1][2 * nu + 1]
            b_terms.append((c, b_seq[nu]))
            r_terms.append((c, r_seq[nu]))
            c = -sc.chi[2 * n + 1][2 * nu]
            b_terms.append((c, p_seq[nu]))
            r_terms.append((c, a_prev(nu - 1)))
        b_seq.append(lincomb(b_terms))
        r_seq.append(lincomb(r_terms))
    pairs = [
        pair
        for n in range(nmax + 1)
        for pair in ((p_seq[n], a_prev(n - 1)), (b_seq[n], r_seq[n]))
    ]
    return components_of_pairs(qmap, pairs)


def pair_recurrence(sc, qmap: QuadMap, nmax: int) -> list[tuple[Poly, Poly]]:
    """decompose as it was on the pairs (u_m, v_m): by x W = (a u +
    (omega - omega(a)) v)(omega) + (x - a)(u - (a + p) v)(omega), each
    step builds the two parts of W_{m+2} as two `lincomb`s over the same
    chi row."""
    a, wa = qmap.a, qmap.omega_at_anchor
    ap = a + qmap.p
    pairs = [(ONE, ZERO), (Poly.constant(a - sc.beta[0]), ONE)]
    for m in range(2 * nmax):
        u, v = pairs[-1]
        beta = sc.beta[m + 1]
        u_terms = [(beta - a, u), (-1, _times_x(v)), (wa, v)]
        v_terms = [(-1, u), (ap + beta, v)]
        for c, (f, g) in zip(sc.chi[m], pairs):
            if c:
                u_terms.append((c, f))
                v_terms.append((c, g))
        pairs.append((-lincomb(u_terms), -lincomb(v_terms)))
    return pairs


@st.composite
def special_maps(draw) -> QuadMap:
    """A map that is free or has a = 0, p + 2a = 0 or omega(a) = 0: each
    pin removes one correction term of the x-operator on rows."""
    small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    p, q, a = draw(small), draw(small), draw(small)
    pin = draw(st.sampled_from(["free", "a", "p + 2a", "omega(a)"]))
    if pin == "a":
        a = F(0)
    elif pin == "p + 2a":
        p = -2 * a
    elif pin == "omega(a)":
        q = -a * a - p * a
    return QuadMap(p, q, a)


@st.composite
def tables_with_zeros(draw):
    """(table, nmax) with chi zeros at an even and at an odd nu, and more
    zeros drawn at random."""
    nmax = draw(st.integers(1, 6))
    entry = st.one_of(
        st.just(F(0)), st.fractions(min_value=-9, max_value=9, max_denominator=9)
    )
    beta = [draw(entry) for _ in range(2 * nmax + 1)]
    chi = [[draw(entry) for _ in range(n + 1)] for n in range(2 * nmax)]
    n = draw(st.integers(1, 2 * nmax - 1))
    chi[n][draw(st.integers(0, n // 2)) * 2] = F(0)
    chi[n][draw(st.integers(0, (n - 1) // 2)) * 2 + 1] = F(0)
    return StructureCoefficients(beta, chi), nmax


def reference_relation_violations(components: QdComponents, scalars):
    """The relation loop over the four component sequences: each row
    offsets the indices of X_{n+1} and Y_+ above n + 1, and index -1
    reads the zero sentinel."""

    def at(seq, n, what):
        if n < 0:
            return ZERO
        if n >= len(seq):
            raise RangeError(f"{what}_{n} not computed (limit {len(seq) - 1})")
        return seq[n]

    c = components
    seqs = {"P": c.p_seq, "a": c.a_seq, "b": c.b_seq, "R": c.r_seq}
    # primary X against partner Y, k - 2n, and how far the indices of
    # X_{n+1} and of Y_+ sit above n + 1
    rows = (
        ("a", "R", 2, 0, 0),
        ("R", "a", 1, 0, -1),
        ("b", "P", 1, 0, 0),
        ("P", "b", 2, 1, 0),
    )
    bad = []
    for xn, yn, k_off, x_up, y_up in rows:
        xs, ys = seqs[xn], seqs[yn]
        for n in range(1, min(len(xs) - 1 - x_up, len(ys) - 1 - y_up)):
            x = [at(xs, n + 1 + x_up - i, xn) for i in range(4)]
            y = [at(ys, n + 1 + y_up - i, yn) for i in range(3)]
            terms = [(1, x[0]), (-1, times(X, x[1]))]
            terms += [
                (s(), f)
                for s, f in zip(scalars(2 * n + k_off), x[1:] + y)
                if not f.is_zero
            ]
            if not lincomb(terms).is_zero:
                bad.append((xn, yn, n))
    return bad


class TestQuadMap:
    def test_omega(self):
        qmap = QuadMap(F(2), F(-3), F(1))
        assert qmap.omega == Poly((-3, 2, 1))
        at_anchor = compose(qmap.omega, Poly.constant(qmap.a))
        assert at_anchor == Poly.constant(qmap.omega_at_anchor) == ZERO

    def test_json_round_trip(self):
        qmap = QuadMap(F(1, 2), F(-3), F(0))
        assert QuadMap.from_json(qmap.to_json()) == qmap
        with pytest.raises(ParseError):
            QuadMap.from_json({"p": "1"})


class TestAnchorSplit:
    def test_pure_odd_power(self):
        qmap = QuadMap(F(0), F(0), F(0))
        u, v = anchor_split(Poly((0, 0, 0, 1)), qmap)  # x^3 = x * (x^2)
        assert u.is_zero
        assert v == X

    def test_split_identity_random(self, rng):
        for _ in range(25):
            qmap = random_map(rng)
            f = Poly([rational(rng) for _ in range(rng.randint(0, 9))])
            u, v = anchor_split(f, qmap)
            anchor = X - Poly.constant(qmap.a)
            assert compose(u, qmap.omega) + times(anchor, compose(v, qmap.omega)) == f
            # each part lives below half the original degree
            assert 2 * u.degree <= max(f.degree, 0)
            assert 2 * v.degree + 1 <= max(f.degree, 1)


class TestDecompose:
    def test_b0_is_anchor_minus_beta0(self, rng):
        for kind in range(4):
            spec = random_spec(rng, kind, depth=10)
            qmap = random_map(rng)
            table = spec.table(8)
            components = decompose(table, qmap, 4)
            assert components.b_seq[0] == Poly.constant(qmap.a - table.beta[0])

    def test_oracle_equivalence(self, rng):
        for kind in range(12):
            spec = random_spec(rng, kind, depth=18)
            qmap = random_map(rng)
            engine = decompose(spec.table(16), qmap, 8)
            polys = generate_mps(spec, 17)
            oracle = decompose_oracle(polys, qmap)
            assert engine == oracle

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_index_reference(self, seed):
        # banded d = 1, 2, 3 and dense, with zeros at random positions
        rng = random.Random(seed)
        for kind in range(4):
            table = with_random_zeros(rng, random_spec(rng, kind, depth=18).table(16))
            qmap = random_map(rng)
            components = decompose(table, qmap, 8)
            assert components == reference_decompose(table, qmap, 8)
            assert list(components.pairs) == pair_recurrence(table, qmap, 8)

    def test_matches_per_index_reference_with_a_null_component(self, rng):
        # a is null on this family, so every x * a_n is x * 0
        table = sample_family().table(20)
        qmap = sample_family_map(rng)
        components = decompose(table, qmap, 10)
        assert all(f.is_zero for f in components.a_seq)
        assert components == reference_decompose(table, qmap, 10)
        assert list(components.pairs) == pair_recurrence(table, qmap, 10)

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_pairs_match_the_two_lincomb_recurrence_on_each_case(self, case_id):
        pr = sample_params(case_id, random.Random(11))
        table = case_claims(case_id).constructor(pr).table(24)
        qmap = QuadMap(pr.p, pr.q, pr.a)
        assert list(decompose(table, qmap, 12).pairs) == pair_recurrence(table, qmap, 12)

    @settings(max_examples=60, deadline=None)
    @given(drawn=tables_with_zeros(), qmap=special_maps())
    def test_rows_equal_the_oracle_rows(self, drawn, qmap):
        table, nmax = drawn
        rows = decompose(table, qmap, nmax).rows
        assert rows == decompose_oracle(generate_mps(table, 2 * nmax + 1), qmap).rows

    def test_views_are_canonical_and_the_layout_writes_them(self, rng):
        table = with_random_zeros(rng, random_spec(rng, 3, depth=14).table(12))
        components = decompose(table, random_map(rng), 6)
        for row, (u, v) in zip(components.rows, components.pairs):
            assert row == Poly(row.coeffs)
            assert (u, v) == (Poly(row.coeffs[0::2]), Poly(row.coeffs[1::2]))
        views = (components.p_seq, components.a_seq, components.b_seq, components.r_seq)
        assert all(f == Poly(f.coeffs) for seq in views for f in seq)
        records = components.to_json()["components"]
        for key, seq in zip(("P", "a_prev", "b", "R"), views):
            first = 1 if key == "a_prev" else 0
            assert [r[key] for r in records[first:]] == [poly_to_strings(f) for f in seq]

    def test_depth_guard(self, rng):
        spec = random_spec(rng, 3, depth=10)
        with pytest.raises(RangeError):
            decompose(spec, random_map(rng), 6)

    def test_symmetric_three_term_decomposes_diagonally(self):
        # beta = 0 keeps W_n parity-alternating, so with omega = x^2 and
        # anchor 0 both secondary components vanish.
        rule = three_term(beta=lambda n: F(0), gamma=lambda n: F(n, 2))
        qmap = QuadMap(F(0), F(0), F(0))
        components = decompose(rule.table(12), qmap, 6)
        assert all(f.is_zero for f in components.a_seq)
        assert all(f.is_zero for f in components.b_seq)

    def test_reconstruction_and_tampering(self, rng):
        spec = random_two_orthogonal(rng, depth=14)
        qmap = random_map(rng)
        components = decompose(spec.table(12), qmap, 6)
        polys = generate_mps(spec, 13)
        assert decompose_oracle(polys, qmap) == components
        b_last, r_last = components.pairs[-1]
        tampered = components_of_pairs(
            qmap, components.pairs[:-1] + ((b_last, r_last + ONE),),
        )
        assert decompose_oracle(polys, qmap) != tampered

    def test_json_round_trip(self, rng):
        spec = random_two_orthogonal(rng, depth=14)
        components = decompose(spec.table(12), random_map(rng), 6)
        assert QdComponents.from_json(components.to_json()) == components
        # one entry of record 0 out of shape: P_0 = R_0 = 1, deg b_0 <= 0
        # and a_-1 = 0
        for key, entry in (("P", ["2"]), ("a_prev", ["1"]), ("b", ["0", "1"]),
                           ("R", ["0", "1"])):
            bad = components.to_json()
            bad["components"][0][key] = entry
            with pytest.raises(ParseError, match=f"record 0: .*{key}"):
                QdComponents.from_json(bad)

    def test_from_json_round_trips_a_real_decomposition(self, rng):
        components = decompose(sample_family().table(16), sample_family_map(rng), 8)
        payload = json.loads(json.dumps(components.to_json()))
        assert QdComponents.from_json(payload) == components
        shuffled = dict(payload, components=payload["components"][::-1])
        assert QdComponents.from_json(shuffled) == components

    def test_from_json_rejects_gapped_records(self, rng):
        # records n = 0 and n = 5 used to load as nmax 1
        components = decompose(sample_family().table(10), sample_family_map(rng), 5)
        payload = components.to_json()
        payload["components"] = [payload["components"][0], payload["components"][5]]
        del payload["nmax"]
        with pytest.raises(ParseError, match="n = 0..nmax"):
            QdComponents.from_json(payload)

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda p: p["components"].append(dict(p["components"][2])),
            lambda p: p["components"].pop(0),
            lambda p: p["components"].clear(),
            lambda p: p["components"][1].update(n=True),
            lambda p: p["components"][1].update(n="1"),
            lambda p: p.update(nmax=3),
            lambda p: p.update(nmax=4.0),
            lambda p: p["components"][2].update(P=["1", "0", "2"]),
            lambda p: p["components"][2].update(R=["1", "1"]),
            lambda p: p["components"][3].update(P=["0", "0", "0", "0", "1"]),
            lambda p: p["components"][2].update(b=["1", "0", "0", "1"]),
            lambda p: p["components"][2].update(a_prev=["1", "0", "1"]),
            lambda p: p["components"][0].update(a_prev=["1"]),
            lambda p: p.update(components="0123"),
            lambda p: p.update(extra=1),
            lambda p: p["components"][1].update(extra=1),
        ],
        ids=[
            "n-twice", "no-record-0", "no-records", "bool-n", "string-n",
            "nmax-mismatch", "float-nmax", "P-not-monic", "R-wrong-degree",
            "P-too-high", "b-too-high", "a-too-high", "a-sentinel", "string-records",
            "extra-key", "extra-record-key",
        ],
    )
    def test_from_json_rejects_non_canonical_payloads(self, rng, tamper):
        spec = random_two_orthogonal(rng, depth=10)
        components = decompose(spec.table(8), random_map(rng), 4)
        payload = components.to_json()
        assert QdComponents.from_json(payload) == components
        tamper(payload)
        with pytest.raises(ParseError):
            QdComponents.from_json(payload)


class TestShapeRule:
    def test_oracle_rejects_a_split_of_the_wrong_shape(self, rng, monkeypatch):
        spec = random_two_orthogonal(rng, depth=10)
        polys = generate_mps(spec, 9)
        real = decomposition._anchor_digits

        def swapped(f, qmap):
            # u_i and v_i trade slots, as if the parts were swapped
            row, den = real(f, qmap)
            row[0::2], row[1::2] = row[1::2], row[0::2]
            return row, den

        monkeypatch.setattr(decomposition, "_anchor_digits", swapped)
        with pytest.raises(InvalidSequenceError, match="W_0 has wrong shape"):
            decompose_oracle(polys, random_map(rng))

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_components_need_an_even_count_of_at_least_two_pairs(self, count):
        with pytest.raises(InvalidSequenceError):
            components_of_pairs(QuadMap(0, 0, 0), [(ONE, ZERO)] * count)

    def test_components_need_a_zero_v0(self):
        with pytest.raises(InvalidSequenceError, match="v_0"):
            components_of_pairs(QuadMap(0, 0, 0), [(ONE, ONE), (ZERO, ONE)])


class TestNormalizeSecondary:
    def test_all_zero_is_none(self):
        assert normalize_secondary([Poly(()), Poly(())]) is None

    def test_offset_and_leadings(self):
        mps = [ONE, X + ONE, Poly((-1, 0, 1))]
        leadings = [F(2), F(-1, 3), F(5)]
        seq = [Poly(()), *(lam * f for lam, f in zip(leadings, mps))]
        norm = normalize_secondary(seq)
        assert norm.offset == 1
        assert norm.leadings == tuple(leadings)
        assert list(norm.mps) == mps

    def test_degree_break_rejected(self):
        with pytest.raises(NotNormalizableError):
            normalize_secondary([ONE, Poly.constant(F(3)), Poly((0, 0, 1))])


class TestThirdOrder:
    def test_family_satisfies(self, rng):
        qmap = sample_family_map(rng)
        components = decompose(sample_family().table(24), qmap, 12)
        assert third_order_violations(components, F(1), F(2), F(3), F(1)) == []

    def test_specialized_recurrence_rebuilds_component(self, rng):
        # R carries constant structure coefficients, so regenerating an MPS
        # from the first extracted row must reproduce the whole component.
        qmap = sample_family_map(rng)
        components = decompose(sample_family().table(24), qmap, 12)
        sc = extract_sc(list(components.r_seq))
        constants = BandedRule.two_orthogonal(
            beta=lambda n: sc.beta[0],
            alpha=lambda m: sc.chi[0][0],
            gamma=lambda m: sc.chi[1][0],
        )
        assert generate_mps(constants, 12) == list(components.r_seq)

    def test_wrong_constants_are_flagged(self, rng):
        qmap = sample_family_map(rng)
        components = decompose(sample_family().table(24), qmap, 12)
        assert third_order_violations(components, F(1), F(2), F(3), F(2)) != []

    def test_equals_primary_labels_of_main_family_mixed_relations(self):
        # the main family's partner weights vanish, so its mixed relations
        # at the same p are the third-order ones and flag the same (X, n)
        rng = random.Random(18)
        checks = []
        for case_id in CASE_IDS:
            for _ in range(2):
                pr = sample_params(case_id, rng)
                checks.append((case_id, pr, pr))
        case_id, pr, _ = checks[-1]
        checks.append((case_id, pr, pr._replace(gamma=2 * pr.gamma)))
        flagged = 0
        for case_id, pr, constants in checks:
            rule = case_claims(case_id).constructor(pr)
            components = decompose(rule.table(20), QuadMap(pr.p, pr.q, pr.a), 10)
            main = family_main(constants)
            mixed = mixed_relation_violations(
                components,
                beta=main.beta,
                alpha=lambda n: main.bands[0](n - 1),
                gamma=main.bands[1],
            )
            c = constants
            third = third_order_violations(
                components, c.beta, c.alpha1, c.alpha2, c.gamma
            )
            assert third == [(label.split("-")[0], n) for label, n in mixed]
            flagged += bool(third)
        # the six perturbed tuples and the wrong gamma are flagged
        assert flagged == 7


class TestMixedRelations:
    def test_hold_for_random_two_orthogonal_specs(self, rng):
        for _ in range(8):
            spec = random_two_orthogonal(rng, depth=26)
            qmap = random_map(rng)
            components = decompose(spec.table(24), qmap, 12)
            violations = mixed_relation_violations(
                components,
                beta=spec.beta,
                alpha=lambda n: spec.bands[0](n - 1),
                gamma=lambda n: spec.bands[1](n),
            )
            assert violations == []

    def test_tampering_is_flagged(self, rng):
        spec = random_two_orthogonal(rng, depth=26)
        qmap = random_map(rng)
        components = decompose(spec.table(24), qmap, 12)
        violations = mixed_relation_violations(
            components,
            beta=lambda n: spec.beta(n) + (1 if n == 5 else 0),
            alpha=lambda n: spec.bands[0](n - 1),
            gamma=lambda n: spec.bands[1](n),
        )
        assert violations != []

    # exact (label, n) lists for one unit bump of one coefficient at one
    # index, on the seeded spec drawn by `_tampered`
    PINNED = {
        ("beta", 1): [("R-a", 1), ("b-P", 1)],
        ("beta", 2): [("a-R", 1), ("R-a", 1), ("b-P", 1), ("P-b", 1)],
        ("beta", 5): [
            ("a-R", 1), ("a-R", 2), ("R-a", 2), ("R-a", 3),
            ("b-P", 2), ("b-P", 3), ("P-b", 1), ("P-b", 2),
        ],
        ("beta", 6): [
            ("a-R", 2), ("a-R", 3), ("R-a", 2), ("R-a", 3),
            ("b-P", 2), ("b-P", 3), ("P-b", 2), ("P-b", 3),
        ],
        ("alpha", 1): [("b-P", 1)],
        ("alpha", 2): [("a-R", 1), ("R-a", 1), ("b-P", 1), ("P-b", 1)],
        ("alpha", 5): [
            ("a-R", 1), ("a-R", 2), ("R-a", 2), ("R-a", 3),
            ("b-P", 2), ("b-P", 3), ("P-b", 1), ("P-b", 2),
        ],
        ("alpha", 6): [
            ("a-R", 2), ("a-R", 3), ("R-a", 2), ("R-a", 3),
            ("b-P", 2), ("b-P", 3), ("P-b", 2), ("P-b", 3),
        ],
        ("gamma", 1): [("P-b", 1)],
        ("gamma", 2): [("a-R", 1), ("R-a", 2), ("b-P", 1), ("b-P", 2), ("P-b", 1)],
        ("gamma", 5): [
            ("a-R", 2), ("a-R", 3), ("R-a", 2), ("R-a", 3),
            ("b-P", 2), ("b-P", 3), ("P-b", 2), ("P-b", 3),
        ],
        ("gamma", 6): [
            ("a-R", 2), ("a-R", 3), ("R-a", 3), ("R-a", 4),
            ("b-P", 3), ("b-P", 4), ("P-b", 2), ("P-b", 3),
        ],
        ("gamma", 15): [
            ("a-R", 7), ("a-R", 8), ("R-a", 7), ("R-a", 8),
            ("b-P", 7), ("b-P", 8), ("P-b", 7), ("P-b", 8),
        ],
    }

    @staticmethod
    def _tampered(which: str, at: int):
        rng = random.Random(1000 + at)
        spec = random_two_orthogonal(rng, depth=26)
        components = decompose(spec.table(20), random_map(rng), 10)
        coefficients = {
            "beta": spec.beta,
            "alpha": lambda n: spec.bands[0](n - 1),
            "gamma": lambda n: spec.bands[1](n),
        }
        exact = coefficients[which]
        coefficients[which] = lambda n: exact(n) + (1 if n == at else 0)
        return components, coefficients

    @pytest.mark.parametrize("which, at", sorted(PINNED))
    def test_tampering_pins_label_and_index(self, which, at):
        components, coefficients = self._tampered(which, at)
        assert mixed_relation_violations(components, **coefficients) == (
            self.PINNED[which, at]
        )

    def test_gamma_zero_is_never_consulted(self, rng):
        spec = random_two_orthogonal(rng, depth=26)
        components = decompose(spec.table(24), random_map(rng), 12)

        def gamma(n: int) -> Fraction:
            if n == 0:
                raise AssertionError("gamma_0 consulted")
            return spec.bands[1](n)

        assert (
            mixed_relation_violations(
                components,
                beta=spec.beta,
                alpha=lambda n: spec.bands[0](n - 1),
                gamma=gamma,
            )
            == []
        )


class TestRelationLoop:
    # the relation loop on the pairs against the loop over the four
    # sequences, on the decomposition of each case's family tampered at
    # each W_m in turn: every row reports, up to the top of its range
    NMAX = 6

    @staticmethod
    def _relations(components, pr, rule):
        third = third_order_violations(
            components, pr.beta, pr.alpha1, pr.alpha2, pr.gamma
        )
        mixed = mixed_relation_violations(
            components,
            beta=rule.beta,
            alpha=lambda n: rule.bands[0](n - 1),
            gamma=rule.bands[1],
        )
        return third, mixed

    @pytest.mark.parametrize("case_id", CASE_IDS)
    def test_matches_the_per_sequence_reference(self, case_id, monkeypatch):
        pr = sample_params(case_id, random.Random(7))
        rule = case_claims(case_id).constructor(pr)
        components = decompose(rule.table(2 * self.NMAX), QuadMap(pr.p, pr.q, pr.a),
                               self.NMAX)
        tampered = [components]
        for m, (u, v) in enumerate(components.pairs):
            pairs = list(components.pairs)
            pairs[m] = (u + ONE, v + ONE if m else v)
            tampered.append(components_of_pairs(components.map, pairs))
        got = [self._relations(c, pr, rule) for c in tampered]
        monkeypatch.setattr(
            decomposition, "_relation_violations", reference_relation_violations
        )
        assert got == [self._relations(c, pr, rule) for c in tampered]
        # each row reports up to its last n: N - 2 for an even head index
        # m = 2n + 4, N - 1 for an odd one, m = 2n + 3
        tops = {}
        for _, mixed in got:
            for label, n in mixed:
                tops[label] = max(tops.get(label, 0), n)
        n = self.NMAX
        assert tops == {"a-R": n - 2, "R-a": n - 1, "b-P": n - 1, "P-b": n - 2}


class TestNonDiagonality:
    def test_two_orthogonal_decompositions_never_diagonal(self, rng):
        for _ in range(12):
            spec = random_two_orthogonal(rng, depth=18)
            qmap = random_map(rng)
            components = decompose(spec.table(16), qmap, 8)
            secondary = list(components.a_seq) + list(components.b_seq)
            assert any(not f.is_zero for f in secondary)
