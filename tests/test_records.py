"""The package's records are immutable NamedTuples: what that keeps and what it changes."""

import copy
import pickle

import pytest

from cutchar import (
    CheckResult,
    CohomologyTable,
    EquivBundleCP1,
    LineWeights,
    cech_cohomology_nodal,
    cut,
    mcut_cohomology,
    sweep,
)
from cutchar.cli import RunConfig

BUNDLES = ("2:-3", "1:-1,2:2", "-3:5,0:0,4:4", "-2:-7")


def public_records():
    """One instance of every public record."""
    bundle = EquivBundleCP1.parse("1:-1,2:2")
    report = sweep([bundle], ("gluing",))
    return [
        bundle.summands[0],
        bundle,
        mcut_cohomology(cut(bundle)),
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

    def test_glued_table_sides_cannot_be_assigned_or_deleted(self):
        t = cech_cohomology_nodal(cut(EquivBundleCP1.parse("2:-3")))
        plus, minus = t.plus, t.minus
        for name in ("plus", "minus", "h0", "extra"):
            with pytest.raises(AttributeError):
                setattr(t, name, None)
        for name in ("plus", "minus"):
            with pytest.raises(AttributeError):
                delattr(t, name)
        assert (t.plus, t.minus) == (plus, minus)


class TestGluedTable:
    @pytest.mark.parametrize("lit", BUNDLES)
    def test_equals_and_hashes_as_the_plain_table(self, lit):
        d = cut(EquivBundleCP1.parse(lit))
        got, want = cech_cohomology_nodal(d), mcut_cohomology(d)
        assert isinstance(got, CohomologyTable)
        assert got == want and want == got and hash(got) == hash(want)
        assert {got: 1}[want] == 1

    def test_replace_keeps_the_sides(self):
        t = cech_cohomology_nodal(cut(EquivBundleCP1.parse("1:-1,2:2")))
        bumped = t._replace(h1=t.h0)
        assert (bumped.h0, bumped.h1, bumped.plus, bumped.minus) == (t.h0, t.h0, t.plus, t.minus)
        swapped = t._replace(plus=t.minus)
        assert (swapped.h0, swapped.h1, swapped.plus, swapped.minus) == (t.h0, t.h1, t.minus, t.minus)
        with pytest.raises(TypeError):
            t._replace(h2=t.h0)
        assert t._make((*t, t.plus, t.minus)).plus == t.plus
        with pytest.raises(TypeError):
            t._make(t)

    def test_copies_and_pickles_with_its_sides(self):
        t = cech_cohomology_nodal(cut(EquivBundleCP1.parse("1:-1,2:2")))
        for again in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert type(again) is type(t)
            assert (again.h0, again.h1, again.plus, again.minus) == (t.h0, t.h1, t.plus, t.minus)


class TestTupleSemantics:
    def test_records_compare_as_tuples(self):
        assert LineWeights(1, 2) == (1, 2)
        assert EquivBundleCP1.parse("1:2") == ((LineWeights(1, 2),),)
        assert LineWeights(1, 2) < LineWeights(1, 3)

    def test_repr_names_the_fields(self):
        assert repr(LineWeights(1, -2)) == "LineWeights(r_p=1, r_q=-2)"
        assert repr(EquivBundleCP1.parse("0:0")) == "EquivBundleCP1(summands=(LineWeights(r_p=0, r_q=0),))"
        assert repr(CheckResult("gluing", EquivBundleCP1.parse("0:0"), True)).startswith("CheckResult(check_id='gluing',")
