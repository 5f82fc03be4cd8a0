"""The frozen records of `quadmps.wire`: construction, immutability,
equality, `_replace`, repr and pickling, and what importing the CLI loads."""

import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quadmps.decomposition import QuadMap
from quadmps.families import CaseParams
from quadmps.verification import (
    CaseVerdict,
    ComponentReport,
    SweepResult,
    TableMismatch,
    verify_sampled,
)
from quadmps.wire import Record

SWEEP = verify_sampled("co-I", 2, seed=0, nmax=4)
VERDICT = SWEEP.verdicts[0]


class Point(Record):
    x: int
    y: int = 0


class Twin(Record):
    x: int
    y: int = 0


def fresh_verdict() -> CaseVerdict:
    """An equal verdict built anew, whose `passed` is not cached yet."""
    return VERDICT._replace()


class TestConstruction:
    def test_positional_keyword_and_default(self):
        assert Point(1, 2) == Point(x=1, y=2) == Point(1, y=2)
        assert Point(1).y == 0
        assert Point._fields == ("x", "y")

    @pytest.mark.parametrize(
        "args, kwargs",
        [((), {}), ((1, 2, 3), {}), ((1,), {"x": 1}), ((1,), {"z": 1}),
         ((), {"y": 1}), ((), {"z": 1}), ((1, 2), {"y": 3})],
        ids=["missing", "too-many", "repeated", "unknown", "only-the-default",
             "unknown-for-missing", "repeated-default"],
    )
    def test_bad_arguments_raise(self, args, kwargs):
        with pytest.raises(TypeError):
            Point(*args, **kwargs)

    def test_a_default_is_overridden_positionally_or_by_keyword(self):
        assert Point(1, 5).y == Point(1, y=5).y == Point(y=5, x=1).y == 5
        assert ComponentReport(2, True) == ComponentReport(
            orthogonal_d=2, matches_expected=True
        )
        assert ComponentReport(2).matches_expected is None

    @pytest.mark.parametrize(
        "point",
        [Point(1), Point(1, 5), Point(1, y=5), Point(x=1, y=5), Point(y=5, x=1)],
        ids=["default", "positional", "mixed", "keywords", "keywords-reversed"],
    )
    def test_fields_are_stored_in_field_order(self, point):
        assert list(vars(point)) == ["x", "y"]

    def test_post_init_converts(self):
        pr = CaseParams(1, 2, 3, 1, 0, 0, 0, tau=2)
        assert all(type(getattr(pr, name)) is Fraction for name in pr._fields[:8])
        assert pr.xi is None


class TestFrozen:
    @pytest.mark.parametrize("record", [Point(1), QuadMap(1, 2, 3), VERDICT])
    def test_assigning_or_deleting_raises(self, record):
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, 5)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.other = 5


class TestEquality:
    def test_equal_fields_give_equal_records_and_hashes(self):
        assert Point(1, 2) == Point(1, 2)
        assert hash(Point(1, 2)) == hash(Point(1, 2))
        assert Point(1, 2) != Point(1, 3)
        assert QuadMap(1, 2, 3) == QuadMap(Fraction(1), Fraction(2), Fraction(3))

    def test_another_type_with_the_same_fields_differs(self):
        assert Point(1, 2) != Twin(1, 2)
        assert Point(1, 2) != (1, 2)

    def test_a_cached_passed_changes_neither(self):
        cached, plain = fresh_verdict(), fresh_verdict()
        assert "passed" not in vars(cached)
        assert cached.passed is VERDICT.passed
        assert "passed" in vars(cached) and "passed" not in vars(plain)
        assert cached == plain and hash(cached) == hash(plain)

    def test_a_record_keys_a_dict(self):
        assert {QuadMap(1, 2, 3): "map"}[QuadMap(1, 2, 3)] == "map"


class TestReplace:
    def test_replace_changes_only_the_named_fields(self):
        changed = Point(1, 2)._replace(y=5)
        assert changed == Point(1, 5)

    def test_replace_converts_again(self):
        pr = CaseParams(1, 2, 3, 1, 0, 0, 0)._replace(gamma=1)
        assert type(pr.gamma) is Fraction and pr.gamma == 1

    def test_replace_validates_again(self):
        with pytest.raises(ValueError, match="2 verdicts for 3 samples"):
            SWEEP._replace(samples=3)
        with pytest.raises(ValueError):
            TableMismatch("beta", 2, None, Fraction(1), Fraction(0))._replace(kind="gamma")
        with pytest.raises(ValueError):
            ComponentReport()._replace(first_mismatch=TableMismatch("chi", 1, 0, 1, 2))

    def test_replace_rejects_an_unknown_field(self):
        with pytest.raises(TypeError):
            Point(1)._replace(z=2)


def test_repr_keeps_the_dataclass_format():
    assert repr(Point(1)) == "Point(x=1, y=0)"
    assert repr(QuadMap(1, 0, Fraction(1, 2))) == (
        "QuadMap(p=Fraction(1, 1), q=Fraction(0, 1), a=Fraction(1, 2))"
    )
    assert repr(TableMismatch("beta", 2, None, Fraction(1), Fraction(0))) == (
        "TableMismatch(kind='beta', n=2, nu=None, computed=Fraction(1, 1),"
        " expected=Fraction(0, 1))"
    )


@pytest.mark.parametrize(
    "record", [VERDICT, SWEEP, fresh_verdict()], ids=["verdict", "sweep", "uncached"]
)
def test_pickle_round_trip(record):
    # the path of a verdict through the --jobs pool
    loaded = pickle.loads(pickle.dumps(record))
    assert loaded == record and hash(loaded) == hash(record) and type(loaded) is type(record)
    assert loaded.to_json() == record.to_json()
    assert loaded.passed is record.passed


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import quadmps.cli;"
        " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def test_every_value_type_of_the_package_is_a_record():
    import importlib
    import pkgutil

    import quadmps

    modules = [
        importlib.import_module(f"quadmps.{info.name}")
        for info in pkgutil.iter_modules(quadmps.__path__)
    ]
    found = {
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type)
        and cls.__module__ == module.__name__
        and hasattr(cls, "_fields")
    }
    assert len(found) > 8
    assert [cls for cls in found if not issubclass(cls, Record)] == []
