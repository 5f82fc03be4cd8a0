import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import quadmps

from conftest import (
    random_banded_rule,
    random_dense_sc,
    random_spec,
    rational,
    reference_derivatives,
    reference_mps,
    three_term,
    times,
    with_random_zeros,
)
from quadmps.errors import (
    InvalidSequenceError,
    ParseError,
    RangeError,
)
from quadmps.families import (
    family_corecursive,
    family_main,
    family_pert2_I,
    family_pert2_II,
)
from quadmps.polynomials import ONE, X, Poly, lincomb
from quadmps.sequences import (
    BandedRule,
    StructureCoefficients,
    derivative_sequence,
    extract_sc,
    generate_mps,
)
from quadmps.verification import sample_params

F = Fraction


def reference_extract_sc(polys) -> StructureCoefficients:
    """extract_sc as a per-digit loop: each step reads one coefficient
    and subtracts its multiple of W_k as one reduced linear combination."""
    beta = [-polys[1].coefficient(0)]
    chi = []
    for n in range(len(polys) - 2):
        rest = times(X, polys[n + 1]) - polys[n + 2]
        coeffs = [F(0)] * (n + 2)
        for k in range(n + 1, -1, -1):
            c = rest.coefficient(k)
            coeffs[k] = c
            if c:
                rest = lincomb(((1, rest), (-c, polys[k])))
        assert rest.is_zero
        beta.append(coeffs[n + 1])
        chi.append(tuple(coeffs[: n + 1]))
    return StructureCoefficients(tuple(beta), tuple(chi))


# one case of each family, with its constructor; the constructors are
# partials, which have no __name__ for pytest to build an id from
FAMILY_CASES = [
    pytest.param("I", family_main, id="I-family_main"),
    pytest.param("co-I", family_corecursive, id="co-I-family_corecursive"),
    pytest.param("pert2-I", family_pert2_I, id="pert2-I-family_pert2_I"),
    pytest.param("pert2-II", family_pert2_II, id="pert2-II-family_pert2_II"),
]


def hermite_rule() -> BandedRule:
    # monic Hermite: W_{n+2} = x W_{n+1} - ((n+1)/2) W_n
    return three_term(beta=lambda n: F(0), gamma=lambda n: F(n, 2))


class TestStructureCoefficients:
    def test_nmax_and_access(self):
        sc = StructureCoefficients([1, 2, 3], [[4], [5, 6]])
        assert sc.nmax == 2
        assert sc.beta[1] == 2
        assert sc.chi[1][0] == 5

    def test_validation(self):
        with pytest.raises(InvalidSequenceError):
            StructureCoefficients([1, 2], [[1], [1, 1]])
        with pytest.raises(InvalidSequenceError):
            StructureCoefficients([1, 2, 3], [[1], [1]])

    def test_restrict(self):
        sc = StructureCoefficients([1, 2, 3], [[4], [5, 6]])
        small = sc.table(1)
        assert small.nmax == 1
        assert small.beta == (F(1), F(2))
        assert small.chi == ((F(4),),)
        assert sc.table(5) is sc

    def test_json_round_trip(self, rng):
        sc = random_dense_sc(rng, 6)
        assert StructureCoefficients.from_json(sc.to_json()) == sc

    def test_json_rejects_inconsistency(self, rng):
        payload = random_dense_sc(rng, 4).to_json()
        payload["nmax"] = 3
        with pytest.raises(ParseError):
            StructureCoefficients.from_json(payload)
        with pytest.raises(ParseError):
            StructureCoefficients.from_json({"beta": ["1"]})

    @pytest.mark.parametrize(
        "payload",
        [
            {"beta": "12", "chi": [["1"]]},  # a string iterates as its characters
            {"beta": ["1", "2"], "chi": ["1"]},  # a string chi row
            {"beta": ["1", "2"], "chi": "1"},
            {"beta": {"0": "1"}, "chi": []},
            {"beta": ["1", "2"], "chi": [["1"]], "nmax": True},  # True == 1
            {"beta": ["1", "2"], "chi": [["1"]], "nmax": 1.0},
            {"beta": ["1", "2"], "chi": [["1"]], "nmax": "1"},
            {"beta": [True, "2"], "chi": [["1"]]},
            {"beta": ["1", "2"], "chi": [["1"]], "extra": 1},  # only to_json's keys
            {"beta": ["1", "2"], "chi": [["1"]], "nmax": 1, "extra": 1},
        ],
    )
    def test_json_rejects_non_canonical_shapes(self, payload):
        with pytest.raises(ParseError):
            StructureCoefficients.from_json(payload)


class TestTable:
    def test_at_or_past_the_limit_is_the_table_itself(self, rng):
        sc = random_dense_sc(rng, 6)
        for k in (6, 7, 40):
            assert sc.table(k) is sc

    def test_below_the_limit_is_the_slice(self, rng):
        sc = random_dense_sc(rng, 6)
        for k in range(6):
            cut = sc.table(k)
            assert cut.nmax == k
            assert cut.beta == sc.beta[: k + 1]
            assert cut.chi == sc.chi[:k]

    @pytest.mark.parametrize("case_id, family", FAMILY_CASES)
    def test_rule_and_its_table_generate_the_same_sequence(self, case_id, family):
        rule = family(sample_params(case_id, random.Random(f"table/{case_id}")))
        for m in range(1, 13):
            assert generate_mps(rule, m) == generate_mps(rule.table(m - 1), m)

    def test_generating_past_a_stored_table_raises(self, rng):
        sc = random_dense_sc(rng, 5)
        message = "spec covers W_0..W_6, cannot reach W_7"
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            generate_mps(sc, sc.nmax + 2)


class TestGenerate:
    def test_hermite_low_terms(self):
        polys = generate_mps(hermite_rule(), 3)
        assert polys[0] == ONE
        assert polys[1] == X
        assert polys[2] == Poly((F(-1, 2), 0, 1))
        assert polys[3] == Poly((0, F(-3, 2), 0, 1))

    def test_table_and_rule_paths_agree(self, rng):
        rule = random_banded_rule(rng, 2)
        assert generate_mps(rule, 9) == generate_mps(rule.table(8), 9)

    def test_shallow_table_rejected(self, rng):
        sc = random_dense_sc(rng, 4)
        with pytest.raises(RangeError):
            generate_mps(sc, 7)

    def test_monic_of_correct_degree(self, rng):
        for kind in range(4):
            polys = generate_mps(random_spec(rng, kind, depth=12), 10)
            for n, w in enumerate(polys):
                assert w.degree == n and w.is_monic


    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_index_reference(self, seed):
        # banded d = 1, 2, 3 and dense, with zeros at random positions
        rng = random.Random(seed)
        for kind in range(4):
            table = with_random_zeros(rng, random_spec(rng, kind, depth=16).table(14))
            for nmax in (0, 1, 2, 15):
                assert generate_mps(table, nmax) == reference_mps(table, nmax)


class TestExtract:
    def test_round_trip_all_spec_shapes(self, rng):
        for kind in range(8):
            spec = random_spec(rng, kind, depth=14)
            polys = generate_mps(spec, 12)
            sc = extract_sc(polys)
            assert sc.nmax == 11
            assert sc == spec.table(11)
            assert generate_mps(sc, 12) == polys

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_on_dense_tables(self, seed):
        # chi entries all nonzero, num and den up to 9: the tables the
        # dense benchmark workload draws, where almost no digit is skipped
        rng = random.Random(f"dense-extract/{seed}")
        nmax = 24
        table = StructureCoefficients(
            [rational(rng, 9, 9) for _ in range(nmax + 1)],
            [
                [rational(rng, 9, 9, nonzero=True) for _ in range(n + 1)]
                for n in range(nmax)
            ],
        )
        for m in (2, 9, nmax + 1):
            assert extract_sc(generate_mps(table, m)) == table.table(m - 1)

    @pytest.mark.parametrize("case_id, family", FAMILY_CASES)
    def test_matches_per_digit_reference_on_family_derivatives(self, case_id, family):
        # what `derive --nmax=30` extracts: W_0..W_60 and their 60
        # normalized derivatives, whose chi table is dense
        params = sample_params(case_id, random.Random(f"derive/{case_id}"))
        polys = generate_mps(family(params), 60)
        sc = extract_sc(polys)
        assert sc == reference_extract_sc(polys)
        derived = derivative_sequence(polys)
        assert derived == reference_derivatives(polys, sc)
        assert extract_sc(derived) == reference_extract_sc(derived)

    def test_rejects_non_mps(self):
        with pytest.raises(InvalidSequenceError):
            extract_sc([ONE, Poly((0, 0, 1))])  # degree gap
        with pytest.raises(InvalidSequenceError):
            extract_sc([ONE, 2 * X])  # not monic
        with pytest.raises(InvalidSequenceError):
            extract_sc([ONE])  # too short to carry any coefficient


class TestDerivative:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_index_reference(self, seed):
        # banded d = 1, 2, 3 and dense, as drawn and with zeros at random
        # positions
        rng = random.Random(seed)
        for kind in range(6):
            drawn = random_spec(rng, kind, depth=16).table(14)
            for table in (drawn, with_random_zeros(rng, drawn)):
                polys = generate_mps(table, 15)
                want = reference_derivatives(polys, table)
                assert derivative_sequence(polys) == want

    def test_hermite_derivative_is_hermite(self):
        polys = generate_mps(hermite_rule(), 9)
        derived = derivative_sequence(polys)
        assert derived == polys[:-1]


def test_tabulated_rule_is_banded(rng):
    for d in (1, 2, 3):
        rule = random_banded_rule(rng, d, depth=10)
        table = rule.table(6)
        assert table.beta == tuple(rule.beta(n) for n in range(7))
        for n in range(6):
            for nu in range(n + 1):
                want = rule.bands[n - nu](n) if n - nu < d else 0
                assert table.chi[n][nu] == want


PURGE_AND_REIMPORT = """
import gc, importlib, json, sys
from collections import Counter

for _ in range({rounds}):
    for name in [n for n in sys.modules if n.split(".")[0] == "quadmps"]:
        del sys.modules[name]
    importlib.import_module("quadmps")
gc.collect()
alive = Counter(
    o["__name__"]
    for o in gc.get_objects()
    if type(o) is dict
    and "__spec__" in o
    and isinstance(o.get("__name__"), str)
    and o["__name__"].split(".")[0] == "quadmps"
)
print(json.dumps(alive))
"""


def test_reimport_leaves_one_copy_of_each_module():
    # a subscripted alias at module level sits in typing's cache and pins
    # its module; run in a child so that this suite's modules stay put
    rounds = 6
    env = {**os.environ, "PYTHONPATH": str(Path(quadmps.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", PURGE_AND_REIMPORT.format(rounds=rounds)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    alive = json.loads(out)
    assert alive["quadmps.sequences"] == 1
    assert set(alive.values()) == {1}, alive


def test_public_names_resolve():
    # a name left in __all__ after its object is deleted would break
    # `from quadmps import *`
    assert len(set(quadmps.__all__)) == len(quadmps.__all__)
    missing = [name for name in quadmps.__all__ if not hasattr(quadmps, name)]
    assert missing == []
