import ast
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutchar import (
    Character,
    CohomologyTable,
    CutDecomposition,
    EquivBundleCP1,
    LineWeights,
    MalformedCut,
    NonPolynomialResult,
    cech_cohomology_nodal,
    cech_cohomology_p1,
    cohomology,
    cut,
    localization_index,
    mcut_cohomology,
    run_check,
)
import cutchar.geometry
import cutchar.oracles
from cutchar.oracles import _block, _over_one_minus_u, _row_rank

u = Character.monomial(1)


def times(a: Character, b: Character) -> Character:
    """The product ab, from the dense terms of both."""
    return Character((k + m, p * q) for k, p in a.items() for m, q in b.items())


def _blocks_built(monkeypatch, line: LineWeights) -> dict[int, list[int]]:
    """The row of each weight block that ``cech_cohomology_p1`` builds for the one-line bundle, by weight."""
    block = cutchar.oracles._block
    rows = {}

    def recorded(line, m):
        rows[m] = block(line, m)
        return rows[m]

    with monkeypatch.context() as mp:
        mp.setattr(cutchar.oracles, "_block", recorded)
        cech_cohomology_p1(EquivBundleCP1((line,)))
    return rows


class TestCechLine:
    def test_block_shapes(self, monkeypatch):
        line = LineWeights(2, 0)
        assert _block(line, 1) == [1, -1]
        assert _block(line, 3) == [1]
        assert _block(line, -1) == [-1]
        assert set(_blocks_built(monkeypatch, line)) == set(range(-1, 4))

    @pytest.mark.parametrize("line, m", [((2, 0), 1), ((2, 0), 3), ((2, 0), -1), ((-3, 0), -1)])
    def test_each_row_is_a_fresh_list(self, line, m):
        # Whoever is handed a row may edit it; the next row of that shape stays as built.
        line = LineWeights(*line)
        row = _block(line, m)
        expected = list(row)
        row.clear()
        row.append(5)
        assert _block(line, m) == expected

    def test_h1_block(self, monkeypatch):
        line = LineWeights(-3, 0)
        assert _block(line, -1) == []
        rows = _blocks_built(monkeypatch, line)
        assert set(rows) == set(range(-4, 2))
        h1_dims = {m: 1 - _row_rank(row) for m, row in rows.items()}
        assert h1_dims[-1] == 1
        assert h1_dims[0] == 0

    def test_matches_closed_form_on_grid(self):
        for rp in range(-5, 6):
            for rq in range(-5, 6):
                b = EquivBundleCP1((LineWeights(rp, rq),))
                got = cech_cohomology_p1(b)
                want = cohomology(b)
                assert (got.h0, got.h1) == (want.h0, want.h1), (rp, rq)

    def test_frozen_values(self):
        t = cech_cohomology_p1(EquivBundleCP1((LineWeights(2, 0),)))
        assert (t.h0, t.h1) == (Character.span(0, 2), Character())
        t = cech_cohomology_p1(EquivBundleCP1((LineWeights(-3, 0),)))
        assert (t.h0, t.h1) == (Character(), Character({-2: 1, -1: 1}))
        t = cech_cohomology_p1(EquivBundleCP1((LineWeights(2, 2),)))
        assert (t.h0, t.h1) == (Character.monomial(2), Character())


class TestCechNodal:
    def test_matches_mcut_on_grid(self):
        for rp in range(-5, 6):
            for rq in range(-5, 6):
                d = cut(EquivBundleCP1((LineWeights(rp, rq),)))
                got, _, _ = cech_cohomology_nodal(d)
                want, _, _ = mcut_cohomology(d)
                assert (got.h0, got.h1) == (want.h0, want.h1), (rp, rq)

    def test_rank_two(self):
        d = cut(EquivBundleCP1.parse("1:-1,2:2"))
        got, _, _ = cech_cohomology_nodal(d)
        want, _, _ = mcut_cohomology(d)
        assert (got.h0, got.h1) == (want.h0, want.h1)

    def test_node_matching_drops_one_section(self):
        # (2,0) cuts to plus (2,0), minus (0,0); both sides have an
        # invariant section through the node, gluing kills one of them.
        d = cut(EquivBundleCP1.parse("2:0"))
        t, _, _ = cech_cohomology_nodal(d)
        assert t.h0 == Character.span(0, 2)
        assert t.h1 == Character()

    def test_result_compares_as_a_table_and_carries_the_sides(self):
        d = cut(EquivBundleCP1.parse("2:-3"))
        glued, plus, minus = cech_cohomology_nodal(d)
        want, want_plus, want_minus = mcut_cohomology(d)
        assert type(glued) is CohomologyTable
        assert glued == want and want == glued and hash(glued) == hash(want)
        assert plus == cech_cohomology_p1(d.plus) == want_plus
        assert minus == cech_cohomology_p1(d.minus) == want_minus

    def test_rejects_malformed(self):
        with pytest.raises(MalformedCut):
            CutDecomposition(EquivBundleCP1.parse("1:1"), EquivBundleCP1.parse("0:1"))


@st.composite
def bundles(draw):
    """Rank 1-4, weights in [-30, 30], often with repeated summands and weight-0 ends."""
    weight = st.just(0) | st.integers(-30, 30)
    pool = draw(st.lists(st.builds(LineWeights, weight, weight), min_size=1, max_size=4))
    return EquivBundleCP1(tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))))


class TestRoutesOnRandomBundles:
    """Both Cech routes against the closed forms, past the rank-one [-5, 5] grid."""

    @settings(max_examples=150, deadline=None)
    @example(EquivBundleCP1.parse("0:0,0:0,3:-2,3:-2"))
    @example(EquivBundleCP1.parse("-30:30,30:-30,0:-1,-1:0"))
    @given(bundles())
    def test_routes_match_closed_forms(self, b):
        # Several summands' node terms, some negative, meet at weight 0.
        d = cut(b)
        (got, _, _), (want, _, _) = cech_cohomology_nodal(d), mcut_cohomology(d)
        assert (got.h0, got.h1) == (want.h0, want.h1)
        tables = [cech_cohomology_p1(EquivBundleCP1((s,))) for s in b.summands]
        want = cohomology(b)
        assert sum((t.h0 for t in tables), Character()) == want.h0
        assert sum((t.h1 for t in tables), Character()) == want.h1
        assert cech_cohomology_p1(b) == want
        assert localization_index(b) == want.index()


def _row_rank_calls(monkeypatch, route, arg) -> int:
    """Number of ``_row_rank`` calls while ``route(arg)`` runs."""
    row_rank = cutchar.oracles._row_rank
    calls = [0]

    def counted(row):
        calls[0] += 1
        return row_rank(row)

    with monkeypatch.context() as m:
        m.setattr(cutchar.oracles, "_row_rank", counted)
        route(arg)
    return calls[0]


class TestEveryBlockReduced:
    """No weight block is skipped or memoized: each of a window's blocks is row-reduced.

    A cache on the block dimensions would collapse the many identical
    blocks of a window into a few reductions.
    """

    N = 30

    def test_cech_reduces_each_weight(self, monkeypatch):
        n = self.N
        window = 2 * n + 3  # [-n - 1, n + 1]
        assert _row_rank_calls(monkeypatch, cech_cohomology_p1, EquivBundleCP1((LineWeights(n, -n),))) >= window

    def test_nodal_reduces_each_weight_of_each_side(self, monkeypatch):
        n = self.N
        d = cut(EquivBundleCP1((LineWeights(n, -n),)))
        windows = (n + 3) + (n + 3)  # plus (n, 0): [-1, n + 1]; minus (0, -n): [-n - 1, 1]
        assert _row_rank_calls(monkeypatch, cech_cohomology_nodal, d) >= windows


class TestCrossValidateReducesEachBlockOnce:
    def test_rref_calls_on_rank_three(self, monkeypatch):
        # The Cech windows of M (5 + 3 + 11 blocks), of the plus side
        # (4 + 5 + 6) and of the minus side (4 + 5 + 8), and two reductions
        # per node term, one weight-0 block of each side, for each of the
        # three summand pairs: 19 + 15 + 17 + 6.  Comparing the sides too
        # reads the tables the nodal route already built.
        b = EquivBundleCP1.parse("1:-1,2:2,-3:5")
        assert _row_rank_calls(monkeypatch, lambda b: run_check("oracle", b), b) == 57


class TestLocalization:
    def test_frozen_values(self):
        assert localization_index(EquivBundleCP1.parse("2:0")) == Character.span(0, 2)
        assert localization_index(EquivBundleCP1.parse("0:0")) == Character.monomial(0)
        assert localization_index(EquivBundleCP1.parse("-1:0")) == Character()
        assert localization_index(EquivBundleCP1.parse("-3:0")) == Character({-2: -1, -1: -1})

    def test_matches_index_on_grid(self):
        for rp in range(-5, 6):
            for rq in range(-5, 6):
                b = EquivBundleCP1((LineWeights(rp, rq),))
                assert localization_index(b) == cohomology(b).index(), (rp, rq)

    def test_exact_division(self):
        assert _over_one_minus_u(Character.monomial(0) - Character.monomial(3)) == Character.span(0, 2)
        assert _over_one_minus_u(Character({-2: 1, 0: -1})) == Character({-2: 1, -1: 1})
        assert _over_one_minus_u(Character()) == Character()

    def test_inexact_division_raises(self):
        with pytest.raises(NonPolynomialResult):
            _over_one_minus_u(Character.monomial(0))
        with pytest.raises(NonPolynomialResult):
            _over_one_minus_u(Character.monomial(3, 2))
        with pytest.raises(NonPolynomialResult):
            _over_one_minus_u(u + Character.monomial(0, 1))


def _terms_built(monkeypatch, route, arg) -> int:
    """Total terms of all characters built while ``route(arg)`` runs.

    A character is built by ``__init__``, ``_from_jumps``, ``span``,
    ``monomial`` or ``_plus`` (the body of + and -), so all five are
    counted; ``_plus`` only when it builds one, not when it hands back an
    operand.
    """
    built = [0]

    def count(new):
        built[0] += len(new.coeffs)
        return new

    init = Character.__init__
    from_jumps, span, monomial = (Character.__dict__[name].__func__ for name in ("_from_jumps", "span", "monomial"))
    plus = Character._plus

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        count(self)

    def counted_plus(self, other, sign):
        new = plus(self, other, sign)
        return count(new) if isinstance(new, Character) and new is not self and new is not other else new

    with monkeypatch.context() as m:
        m.setattr(Character, "__init__", counted_init)
        m.setattr(Character, "_plus", counted_plus)
        for name, method in (("_from_jumps", from_jumps), ("span", span), ("monomial", monomial)):
            m.setattr(Character, name, classmethod(lambda cls, *a, _method=method, **kw: count(_method(cls, *a, **kw))))
        route(arg)
    return built[0]


class TestOracleCost:
    @pytest.mark.parametrize(
        "route, make",
        [
            (cech_cohomology_p1, lambda n: EquivBundleCP1((LineWeights(n, -n),))),
            (cech_cohomology_nodal, lambda n: cut(EquivBundleCP1((LineWeights(n, -n),)))),
        ],
        ids=["cech", "nodal"],
    )
    def test_terms_linear_in_weight_window(self, monkeypatch, route, make):
        # Doubling the window may at most about double the work; a route
        # that re-copies its running sum per weight would quadruple it.
        n = 200
        small = _terms_built(monkeypatch, route, make(n))
        large = _terms_built(monkeypatch, route, make(2 * n))
        assert large <= 2.5 * small, (small, large)

    def test_terms_count_sees_a_route_that_resums_per_weight(self, monkeypatch):
        # Such a route builds with + alone, which the count must see for the test above to fail it.
        def resumming(line):
            total = Character()
            for m in range(line.r_q - 1, line.r_p + 2):
                total = total + Character.monomial(m)
            return total

        small = _terms_built(monkeypatch, resumming, LineWeights(50, -50))
        large = _terms_built(monkeypatch, resumming, LineWeights(100, -100))
        assert large > 2.5 * small, (small, large)

    @pytest.mark.parametrize(
        "route, arg",
        [
            (cech_cohomology_p1, EquivBundleCP1((LineWeights(10**5, -(10**5)),))),
            (cech_cohomology_nodal, cut(EquivBundleCP1((LineWeights(10**5, -(10**5)),)))),
            (localization_index, EquivBundleCP1((LineWeights(10**5, -(10**5)),))),
        ],
        ids=["cech", "nodal", "localization"],
    )
    def test_memory_bounded_in_weight_window(self, route, arg):
        # Jumps are kept only where a dimension changes, so a window of
        # 2 * 10^5 weights peaks at a few blocks' worth, where a list of
        # (weight, dimension) pairs and its dense character took 39 MiB.
        # Localization divides four monomials by 1 - u twice, and each
        # quotient has as few jumps, where a dense long division took 1.6 MB.
        tracemalloc.start()
        try:
            route(arg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_cross_validate_large_rank_two(self):
        r = run_check("oracle", EquivBundleCP1.parse("1500:-1500,-1000:1000"))
        assert r.passed and r.residual is None


class TestIndependence:
    """The oracles may take types from geometry, never its closed forms."""

    # Every class geometry defines is a type the oracles may take, and every function it defines a
    # closed form they may not call, so a record or a closed form added there needs no new name here.
    ALLOWED = {
        name
        for name, value in vars(cutchar.geometry).items()
        if isinstance(value, type) and value.__module__ == "cutchar.geometry"
    }
    CLOSED_FORMS = {
        name
        for name, value in vars(cutchar.geometry).items()
        if isinstance(value, types.FunctionType) and value.__module__ == "cutchar.geometry"
    }

    def tree(self):
        return ast.parse(Path(cutchar.oracles.__file__).read_text(encoding="utf-8"))

    def test_imports_only_types_from_geometry(self):
        imported = set()
        for node in self.tree().body:
            if isinstance(node, ast.ImportFrom) and node.module in ("geometry", "cutchar.geometry"):
                imported |= {alias.name for alias in node.names}
        assert imported, "expected the types to come from geometry"
        assert imported <= self.ALLOWED, imported - self.ALLOWED

    def test_closed_forms_are_derived(self):
        assert {"cohomology", "cut", "mcut_cohomology"} <= self.CLOSED_FORMS

    def test_allowed_types_are_derived(self):
        assert {"CohomologyTable", "CutDecomposition", "EquivBundleCP1", "LineWeights"} <= self.ALLOWED
        assert not self.ALLOWED & self.CLOSED_FORMS, self.ALLOWED & self.CLOSED_FORMS

    def test_never_calls_a_closed_form(self):
        called = set()
        for node in ast.walk(self.tree()):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                called.add(f.id)
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "geometry":
                called.add(f.attr)
        assert not called & self.CLOSED_FORMS, called & self.CLOSED_FORMS


def _rank_over_q(rows, ncols) -> int:
    """Rank by Gaussian elimination over Q, written out independently."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / work[rank][c]
            work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


@st.composite
def laurent_polys(draw):
    """A nonzero Laurent polynomial whose leading coefficient is +-1, +-2 or +-3."""
    low = draw(st.integers(-5, 5))
    lower = draw(st.lists(st.integers(-3, 3), max_size=4))
    lead = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return Character(enumerate([*lower, lead], start=low))


class TestIntegerArithmetic:
    """The oracle routes compute over Z; these pin the row rank and the exact division by 1 - u."""

    @settings(max_examples=300)
    @example([1, -1])
    @example([1])
    @example([-1])
    @example([])
    @example([0, 0, 0])
    @example([0, -4, 6, 2])
    @given(st.lists(st.integers(-6, 6), max_size=5))
    def test_row_rank(self, row):
        # Every matrix the oracles reduce is one integer row: a weight
        # block's differential, the node term's two weight-0 blocks included.
        assert _row_rank(row) == _rank_over_q([row], len(row))

    @settings(max_examples=200)
    @given(laurent_polys())
    def test_division_undoes_multiplication(self, a):
        assert _over_one_minus_u(times(Character.monomial(0) - u, a)) == a

    @settings(max_examples=200)
    @given(laurent_polys(), st.integers(-5, 5), st.sampled_from([-3, -2, -1, 1, 2, 3]))
    def test_remainder_raises(self, a, k, r):
        # The coefficients of (1 - u) a sum to zero, so those of the dividend sum to r.
        with pytest.raises(NonPolynomialResult):
            _over_one_minus_u(times(Character.monomial(0) - u, a) + Character.monomial(k, r))


class TestIntegerOnly:
    """Every route stays in exact integer arithmetic, with no Fraction."""

    def test_oracles_do_not_import_fractions(self):
        tree = ast.parse(Path(cutchar.oracles.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.partition(".")[0])
        assert "fractions" not in imported, imported
