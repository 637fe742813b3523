import contextlib
import io
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cutchar import (
    Character,
    CharPoly,
    CohomologyTable,
    CutDecomposition,
    EquivBundleCP1,
    LineWeights,
    MalformedCut,
    cohomology,
    cut,
    mcut_cohomology,
)
from cutchar.cli import main


def written_table(literal: str) -> dict:
    """What ``cutchar cohomology`` writes for the bundle ``literal``, read back."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["cohomology", literal]) == 0
    return json.loads(out.getvalue())


class TestBundle:
    def test_parse_and_literal(self):
        b = EquivBundleCP1.parse("1:-1,2:2")
        assert b.summands == (LineWeights(1, -1), LineWeights(2, 2))
        assert b.rank == 2
        assert b.literal() == "1:-1,2:2"
        assert EquivBundleCP1.parse("-3:0").summands == (LineWeights(-3, 0),)

    def test_parse_rejects_garbage(self):
        for bad in ["", "1", "1:", ":1", "1:2,", "a:b", "1;2", "1:2:3",
                    "1_0:0", "0:1_0", "+3:0", " 3:0", "\u0663:0", "01:0", "-0:0"]:
            with pytest.raises(ValueError):
                EquivBundleCP1.parse(bad)

    # Weights spelled as the old grammar -?[0-9]+ took them, with leading
    # zeros and -0, and free text over the characters int() also reads.
    _weight_texts = st.from_regex("-?[0-9]{1,3}", fullmatch=True)
    _literals = st.lists(st.tuples(_weight_texts, _weight_texts), min_size=1, max_size=3).map(
        lambda pairs: ",".join(f"{a}:{b}" for a, b in pairs)
    ) | st.text(alphabet="0123456789-:,+_ \u0663", max_size=9)

    @given(_literals)
    @example("01:0")
    @example("-0:0")
    def test_accepted_literal_writes_back_as_itself(self, text):
        # One spelling per bundle: whatever parse accepts, literal() writes back unchanged.
        try:
            bundle = EquivBundleCP1.parse(text)
        except ValueError:
            return
        assert bundle.literal() == text

    def test_degree(self):
        assert LineWeights(3, -1).degree == 4
        assert LineWeights(-2, -2).degree == 0

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValueError):
            EquivBundleCP1(())


class TestCohomology:
    def test_positive_degree(self):
        t = cohomology(EquivBundleCP1.parse("2:0"))
        assert t.h0 == Character.span(0, 2)
        assert t.h1 == Character()

    def test_trivial(self):
        t = cohomology(EquivBundleCP1.parse("0:0"))
        assert t.h0 == Character.monomial(0)
        assert t.h1 == Character()

    def test_negative_degree(self):
        t = cohomology(EquivBundleCP1.parse("-3:0"))
        assert t.h0 == Character()
        assert t.h1 == Character({-2: 1, -1: 1})

    def test_degree_minus_one_has_no_cohomology(self):
        for lit in ["-1:0", "0:1", "3:4", "-5:-4"]:
            t = cohomology(EquivBundleCP1.parse(lit))
            assert t.h0 == Character() and t.h1 == Character(), lit

    def test_equal_weights(self):
        t = cohomology(EquivBundleCP1.parse("2:2"))
        assert t.h0 == Character.monomial(2)
        assert t.h1 == Character()

    def test_rank_two_sums(self):
        t = cohomology(EquivBundleCP1.parse("1:-1,2:2"))
        assert t.h0 == Character.span(-1, 1) + Character.monomial(2)
        assert t.h1 == Character()

    def test_dimensions_match_degree(self):
        # dim H^0 = d + 1 and dim H^1 = 0 for d >= 0; mirrored for d <= -2
        for rp in range(-5, 6):
            for rq in range(-5, 6):
                t = cohomology(EquivBundleCP1((LineWeights(rp, rq),)))
                d = rp - rq
                if d >= 0:
                    assert t.h0.dim() == d + 1 and t.h1.dim() == 0
                elif d == -1:
                    assert t.h0.dim() == 0 and t.h1.dim() == 0
                else:
                    assert t.h0.dim() == 0 and t.h1.dim() == -d - 1

    def test_table_euler_and_index(self):
        t = CohomologyTable(Character({0: 1}), Character({2: 1}))
        assert t.euler_poly() == CharPoly([Character({0: 1}), Character({2: 1})])
        assert t.index() == Character({0: 1, 2: -1})

    def test_table_json_round_trip(self):
        t = cohomology(EquivBundleCP1.parse("-3:0"))
        obj = written_table("-3:0")
        assert obj == {"h0": {}, "h1": {"-2": 1, "-1": 1}, "n": 1}
        dense = [Character({int(k): q for k, q in obj[h].items()}) for h in ("h0", "h1")]
        assert CohomologyTable(*dense) == t

    def test_table_top_degree_is_one(self):
        # On a curve the top degree is always 1, and every table writes it.
        for lit in ("0:0", "-3:0", "2:5,1:-1"):
            t = cohomology(EquivBundleCP1.parse(lit))
            assert t.n == 1 and written_table(lit)["n"] == 1


class TestCut:
    def test_splits_summands(self):
        d = cut(EquivBundleCP1.parse("1:-1,2:2"))
        assert d.plus.literal() == "1:0,2:0"
        assert d.minus.literal() == "0:-1,0:2"
        assert d.red_dims == (2, 0)

    def test_mcut_equal_positive_weights(self):
        t, _, _ = mcut_cohomology(cut(EquivBundleCP1.parse("2:2")))
        assert t.h0 == Character({1: 1, 2: 1})
        assert t.h1 == Character.monomial(1)
        assert t.euler_poly() == CharPoly([Character({1: 1, 2: 1}), Character.monomial(1)])
        assert t.index() == Character.monomial(2)

    def test_mcut_trivial(self):
        t, _, _ = mcut_cohomology(cut(EquivBundleCP1.parse("0:0")))
        assert t.h0 == Character.monomial(0)
        assert t.h1 == Character()

    def test_mcut_no_invariant_section(self):
        # neither side sees weight 0, so the node fiber feeds h1
        t, _, _ = mcut_cohomology(cut(EquivBundleCP1.parse("-1:1")))
        assert t.h0 == Character()
        assert t.h1 == Character.monomial(0)

    def test_mcut_additive_over_summands(self):
        lits = ["2:2", "-1:1", "3:-2"]
        total, _, _ = mcut_cohomology(cut(EquivBundleCP1.parse(",".join(lits))))
        h0 = Character()
        h1 = Character()
        for lit in lits:
            t, _, _ = mcut_cohomology(cut(EquivBundleCP1.parse(lit)))
            h0 += t.h0
            h1 += t.h1
        assert (total.h0, total.h1) == (h0, h1)

    def test_mcut_rejects_mismatched_ranks(self):
        d = cut(EquivBundleCP1.parse("1:1"))
        with pytest.raises(MalformedCut):
            CutDecomposition(d.plus, EquivBundleCP1.parse("0:1,0:2"))

    def test_mcut_rejects_nonzero_node_weight(self):
        plus = EquivBundleCP1.parse("1:1")  # node weight 1, not 0
        minus = EquivBundleCP1.parse("0:1")
        with pytest.raises(MalformedCut):
            CutDecomposition(plus, minus)
        with pytest.raises(MalformedCut):
            CutDecomposition(EquivBundleCP1.parse("1:0"), EquivBundleCP1.parse("1:1"))
        # Negative node weights are as wrong as positive ones.
        with pytest.raises(MalformedCut):
            CutDecomposition(EquivBundleCP1.parse("1:-1"), EquivBundleCP1.parse("0:-1"))
        with pytest.raises(MalformedCut):
            CutDecomposition(EquivBundleCP1.parse("1:0"), EquivBundleCP1.parse("-1:-2"))

    def test_replace_revalidates(self):
        d = cut(EquivBundleCP1.parse("1:-1,2:2"))
        for change in [
            {"minus": EquivBundleCP1.parse("0:1")},
            {"plus": EquivBundleCP1.parse("1:1,2:0")},
            {"minus": EquivBundleCP1.parse("0:-1,3:2")},
        ]:
            with pytest.raises(MalformedCut):
                d._replace(**change)
        assert d._replace(minus=EquivBundleCP1.parse("0:5,0:6")).red_dims == (2, 0)
        # _replace and _make skip a NamedTuple's __new__ unless the record routes them through it.
        with pytest.raises(MalformedCut):
            CutDecomposition._make((d.plus, EquivBundleCP1.parse("0:1")))
        with pytest.raises(ValueError, match="at least one summand"):
            d.plus._replace(summands=())
        with pytest.raises(ValueError, match="is not a LineWeights"):
            EquivBundleCP1._make([((1, 0),)])
        assert EquivBundleCP1._make([[LineWeights(1, 0)]]) == EquivBundleCP1.parse("1:0")
