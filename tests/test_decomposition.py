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
    reference_mps,
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
from quadmps.polynomials import ONE, X, ZERO, Poly, poly_to_strings
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
    nmax = draw(st.integers(1, 2))
    entry = st.one_of(
        st.just(F(0)), st.fractions(min_value=-9, max_value=9, max_denominator=9)
    )
    beta = [draw(entry) for _ in range(2 * nmax + 1)]
    chi = [[draw(entry) for _ in range(n + 1)] for n in range(2 * nmax)]
    n = draw(st.integers(1, 2 * nmax - 1))
    chi[n][draw(st.integers(0, n // 2)) * 2] = F(0)
    chi[n][draw(st.integers(0, (n - 1) // 2)) * 2 + 1] = F(0)
    return StructureCoefficients(beta, chi), nmax


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
            table = random_spec(rng, kind, depth=18).table(16)
            qmap = random_map(rng)
            engine = decompose(table, qmap, 8)
            oracle = decompose_oracle(reference_mps(table, 17), qmap)
            assert engine == oracle

    @pytest.mark.parametrize("seed", range(8))
    def test_rows_at_the_monomial_map_are_the_reference_sequence(self, seed):
        # omega = x^2 and a = 0 make the row basis x^(2i), x^(2i+1), so each
        # row is W_m itself; banded d = 1, 2, 3 and dense, with zeros
        rng = random.Random(300 + seed)
        for kind in range(4):
            table = with_random_zeros(rng, random_spec(rng, kind, depth=18).table(16))
            rows = decompose(table, QuadMap(0, 0, 0), 8).rows
            assert rows == tuple(reference_mps(table, 17))

    def test_negative_nmax_is_rejected(self, rng):
        with pytest.raises(RangeError, match="^nmax must be >= 0$"):
            decompose(random_spec(rng, 0, depth=10), random_map(rng), -1)

    @pytest.mark.parametrize("count", [0, 1])
    def test_oracle_needs_two_polynomials(self, rng, count):
        with pytest.raises(InvalidSequenceError, match="^need at least W_0 and W_1$"):
            decompose_oracle([ONE][:count], random_map(rng))

    def test_a_is_null_on_the_sample_family(self, rng):
        # a is null on this family, so every x * a_n is x * 0
        table = sample_family().table(20)
        qmap = sample_family_map(rng)
        components = decompose(table, qmap, 10)
        assert all(f.is_zero for f in components.a_seq)

    # ten examples of at most W_5 kill every walk and oracle mutant of
    # ci/test_mutants.py that sixty examples of up to W_13 killed
    @settings(max_examples=10, deadline=None)
    @given(drawn=tables_with_zeros(), qmap=special_maps())
    def test_rows_equal_the_oracle_rows(self, drawn, qmap):
        table, nmax = drawn
        rows = decompose(table, qmap, nmax).rows
        assert rows == decompose_oracle(reference_mps(table, 2 * nmax + 1), qmap).rows

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
        table = random_two_orthogonal(rng, depth=14).table(12)
        qmap = random_map(rng)
        components = decompose(table, qmap, 6)
        polys = reference_mps(table, 13)
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
            lambda p: p["components"][2]["P"].__setitem__(-1, "2/2"),
            lambda p: p["components"][2]["P"].__setitem__(-1, 1),
            lambda p: p["components"][0].update(a_prev=["-0"]),
            lambda p: p["components"][2]["R"].append("0"),
        ],
        ids=[
            "n-twice", "no-record-0", "no-records", "bool-n", "string-n",
            "nmax-mismatch", "float-nmax", "P-not-monic", "R-wrong-degree",
            "P-too-high", "b-too-high", "a-too-high", "a-sentinel", "string-records",
            "extra-key", "extra-record-key", "unreduced-entry", "number-entry",
            "negative-zero-part", "trailing-zero",
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

    def test_the_last_row_is_flagged_at_the_top_relation(self, rng):
        # W_2N+1 enters only the relation it heads, at m = 2N + 1 and
        # n = N - 1: a bump of its u part is flagged as b-P, of its v part
        # as R-a, and nowhere else
        spec = random_two_orthogonal(rng, depth=26)
        components = decompose(spec.table(20), random_map(rng), 10)
        *rows, last = components.rows
        for bump, label in ((ONE, "b-P"), (X, "R-a")):
            tampered = QdComponents(components.map, [*rows, last + bump])
            assert mixed_relation_violations(
                tampered,
                beta=spec.beta,
                alpha=lambda n: spec.bands[0](n - 1),
                gamma=lambda n: spec.bands[1](n),
            ) == [(label, components.nmax - 1)]

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


class TestNonDiagonality:
    def test_two_orthogonal_decompositions_never_diagonal(self, rng):
        for _ in range(12):
            spec = random_two_orthogonal(rng, depth=18)
            qmap = random_map(rng)
            components = decompose(spec.table(16), qmap, 8)
            secondary = list(components.a_seq) + list(components.b_seq)
            assert any(not f.is_zero for f in secondary)
