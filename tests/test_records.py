"""The package's records are immutable named tuples: what that keeps and what it changes."""

import copy
import pickle

import pytest

from cutchar import (
    CheckResult,
    EquivBundleCP1,
    LineWeights,
    cut,
    mcut_cohomology,
    sweep,
)
from cutchar.cli import RunConfig


def public_records():
    """One instance of every public record."""
    bundle = EquivBundleCP1.parse("1:-1,2:2")
    report = sweep([bundle], ("gluing",))
    return [
        bundle.summands[0],
        bundle,
        mcut_cohomology(cut(bundle))[0],
        cut(bundle),
        report.results[0][0],
        report,
        RunConfig(),
    ]


class TestImmutable:
    @pytest.mark.parametrize("record", public_records(), ids=lambda r: type(r).__name__)
    def test_fields_cannot_be_assigned(self, record):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None

    @pytest.mark.parametrize("record", public_records(), ids=lambda r: type(r).__name__)
    def test_copies_and_pickles(self, record):
        for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(again) is type(record) and again == record


class TestTupleSemantics:
    def test_records_compare_as_tuples(self):
        assert LineWeights(1, 2) == (1, 2)
        assert EquivBundleCP1.parse("1:2") == ((LineWeights(1, 2),),)
        assert LineWeights(1, 2) < LineWeights(1, 3)

    def test_repr_names_the_fields(self):
        assert repr(LineWeights(1, -2)) == "LineWeights(r_p=1, r_q=-2)"
        assert repr(EquivBundleCP1.parse("0:0")) == "EquivBundleCP1(summands=(LineWeights(r_p=0, r_q=0),))"
        assert repr(CheckResult("gluing", EquivBundleCP1.parse("0:0"), True)).startswith("CheckResult(check_id='gluing',")
