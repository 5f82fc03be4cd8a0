from fractions import Fraction

import pytest

from conftest import random_banded_rule, random_spec, rational, three_term
from quadmps.analysis import (
    BandWitness,
    OrthoReport,
    RegularityFail,
    check_hahn_classical,
    detect_orthogonality_order,
)
from quadmps.errors import ParseError, RangeError
from quadmps.polynomials import Poly
from quadmps.sequences import (
    BandedRule,
    StructureCoefficients,
    derivative_sequence,
    extract_sc,
    generate_mps,
)

F = Fraction


def reference_detect(sc: StructureCoefficients, dmax: int) -> OrthoReport:
    """detect_orthogonality_order as a d-by-d sweep: each candidate order
    scans the rows for an entry below its band, then for a zero in its
    near band, and the first order that passes both is detected."""
    rows = len(sc.chi)
    witnesses = []
    regularity_fail = None
    detected = None
    for d in range(1, dmax + 1):
        witness = None
        for n in range(d, rows):
            for nu in range(0, n - d + 1):
                value = sc.chi[n][nu]
                if value:
                    witness = BandWitness(d, n, nu, value)
                    break
            if witness:
                break
        if witness is not None:
            witnesses.append(witness)
            continue
        near_zero = next(
            (n for n in range(d - 1, rows) if sc.chi[n][n - d + 1] == 0), None
        )
        if near_zero is not None:
            if regularity_fail is None:
                regularity_fail = RegularityFail(d, near_zero)
            continue
        detected = d
        break
    return OrthoReport(
        detected_d=detected,
        range_nmax=sc.nmax,
        witnesses=tuple(witnesses),
        regularity_fail=None if detected is not None else regularity_fail,
    )


def hermite_rule() -> BandedRule:
    return three_term(beta=lambda n: F(0), gamma=lambda n: F(n, 2))


def alternating_family(beta, alpha1, alpha2, gamma) -> BandedRule:
    return BandedRule.two_orthogonal(
        beta=lambda n: beta if n % 2 else -beta,
        alpha=lambda m: alpha1 if m % 2 else alpha2,
        gamma=lambda m: -gamma if m % 2 else gamma,
    )


def constant_family(alpha, gamma) -> BandedRule:
    return BandedRule.two_orthogonal(
        beta=lambda n: F(0),
        alpha=lambda m: alpha,
        gamma=lambda m: gamma,
    )


class TestDetect:
    def test_three_term_detects_order_one(self):
        report = detect_orthogonality_order(hermite_rule().table(10), 4)
        assert report.detected_d == 1
        assert report.regularity_ok
        assert report.witnesses == ()

    def test_two_band_detects_order_two_with_witness(self):
        table = alternating_family(F(1), F(2), F(3), F(5)).table(10)
        report = detect_orthogonality_order(table, 4)
        assert report.detected_d == 2
        (w,) = report.witnesses
        assert w.d == 1
        # the first sub-diagonal entry chi_{1,0} = -gamma disproves d = 1
        assert (w.n, w.nu, w.value) == (1, 0, F(-5))
        assert table.chi[w.n][w.nu] == w.value != 0

    def test_three_band_detects_order_three(self, rng):
        table = random_banded_rule(rng, 3).table(12)
        report = detect_orthogonality_order(table, 5)
        assert report.detected_d == 3
        assert [w.d for w in report.witnesses] == [1, 2]
        for w in report.witnesses:
            assert table.chi[w.n][w.nu] == w.value != 0
            assert w.n - w.nu >= w.d

    def test_witnesses_come_one_per_rejected_order(self, rng):
        # verification counts the witnesses to tell that every order up to
        # dmax is rejected, which needs at most one per order, ascending;
        # and the one-pass sweep reports what the d-by-d reference does
        dmax = 6
        tables = []
        for kind in range(40):
            spec = random_spec(rng, kind, depth=13)
            table = spec if isinstance(spec, StructureCoefficients) else spec.table(12)
            if kind % 8 in (1, 2):
                # a zero pinhole in the lowest band of a 2- or 3-banded table
                n = rng.randint(spec.d - 1, len(table.chi) - 1)
                chi = [list(row) for row in table.chi]
                chi[n][n - spec.d + 1] = F(0)
                table = StructureCoefficients(table.beta, chi)
            tables.append(table)
        for table in tables[:8]:
            # whole rows of zeros, which reject no order
            zero = set(rng.sample(range(len(table.chi)), 4))
            chi = [
                [F(0)] * (n + 1) if n in zero else row
                for n, row in enumerate(table.chi)
            ]
            tables.append(StructureCoefficients(table.beta, chi))
        for nonzero in (False, True, True):
            # an all-zero table, and dense tables with no zero entry
            tables.append(StructureCoefficients(
                [rational(rng) for _ in range(13)],
                [[rational(rng, nonzero=True) if nonzero else F(0)
                  for _ in range(n + 1)] for n in range(12)],
            ))
        for table in tables:
            for top in range(1, len(table.chi) - 1):
                assert detect_orthogonality_order(table, top) == reference_detect(
                    table, top
                )
            report = detect_orthogonality_order(table, dmax)
            orders = [w.d for w in report.witnesses]
            assert orders == sorted(set(orders))
            for w in report.witnesses:
                assert w.n - w.nu >= w.d
                assert table.chi[w.n][w.nu] == w.value != 0
            chi = table.chi
            for d in range(1, (report.detected_d or dmax) + 1):
                below = (chi[n][nu] for n in range(len(chi)) for nu in range(n - d + 1))
                assert (d in orders) == any(below)

    def test_band_zero_reports_regularity_fail(self):
        # gamma band with a pinhole zero: d = 2 is band-clean but irregular
        rule = BandedRule.two_orthogonal(
            beta=lambda n: F(0),
            alpha=lambda m: F(1),
            gamma=lambda m: F(0) if m == 2 else F(1),
        )
        report = detect_orthogonality_order(rule.table(10), 2)
        assert report.detected_d is None
        assert not report.regularity_ok
        assert report.regularity_fail == RegularityFail(2, 2)
        assert [w.d for w in report.witnesses] == [1]

    def test_range_validation(self):
        table = hermite_rule().table(5)
        with pytest.raises(RangeError):
            detect_orthogonality_order(table, 0)
        with pytest.raises(RangeError):
            detect_orthogonality_order(table, 4)

    def test_report_json_round_trip(self):
        table = alternating_family(F(1), F(2), F(3), F(5)).table(10)
        report = detect_orthogonality_order(table, 4)
        assert OrthoReport.from_json(report.to_json()) == report
        with pytest.raises(ParseError):
            OrthoReport.from_json({"detected_d": 2})
        with pytest.raises(ParseError):
            BandWitness.from_json({"d": 1, "n": 1, "nu": 0})


class TestHahnClassical:
    def test_three_term_with_proportional_derivative(self):
        # D W_{n+1} / (n+1) of this sequence is the sequence itself
        base, derived = check_hahn_classical(hermite_rule(), 8)
        assert base.detected_d == derived.detected_d == 1
        assert base.classical is True and derived.classical is True

    def test_constant_two_band_rule_is_classical(self):
        alpha, gamma = F(3), F(2)
        rule = constant_family(alpha, gamma)
        base, derived = check_hahn_classical(rule, 8)
        assert base.detected_d == derived.detected_d == 2
        assert base.classical is True and derived.classical is True

        # the derivative coefficients follow fixed rational weights
        polys = generate_mps(rule, 17)
        dsc = extract_sc(derivative_sequence(polys))
        assert all(b == 0 for b in dsc.beta)
        for n in range(1, 7):
            assert dsc.chi[n - 1][n - 1] == alpha * F(n * (n + 3), (n + 1) * (n + 2))
            assert dsc.chi[n][n - 1] == gamma * F(n * (n + 5), (n + 2) * (n + 3))

    def test_low_terms_of_constant_rule_and_derivative(self):
        alpha, gamma = F(3), F(2)
        polys = generate_mps(constant_family(alpha, gamma), 5)
        assert polys[2] == Poly((-alpha, F(0), F(1)))
        assert polys[3] == Poly((-gamma, -2 * alpha, F(0), F(1)))
        der = derivative_sequence(polys)
        assert der[2] == Poly((-F(2, 3) * alpha, F(0), F(1)))

    def test_alternating_family_is_not_classical(self):
        base, derived = check_hahn_classical(
            alternating_family(F(1), F(2), F(3), F(1)), 8
        )
        assert base.detected_d == 2
        assert derived.detected_d != 2
        assert base.classical is False and derived.classical is False
        assert {w.d: w for w in derived.witnesses}[2].value != 0

    def test_nmax_validation(self):
        with pytest.raises(RangeError):
            check_hahn_classical(hermite_rule(), 3)
