import json

from hypothesis import given, settings
from hypothesis import strategies as st

from cutchar import (
    Character,
    CharPoly,
    EquivBundleCP1,
    LineWeights,
    NotDivisible,
    cech_cohomology_nodal,
    cech_cohomology_p1,
    cohomology,
    cut,
    localization_index,
    mcut_cohomology,
    morse_quotient,
    run_check,
    sweep,
)
from cutchar.characters import _is_factorization
from cutchar.verify import ALL_CHECKS, _csv_cell
from test_verify import _csv_fields, _json_text

weights = st.integers(-20, 20)
mults = st.integers(-10, 10)
characters = st.dictionaries(weights, mults, max_size=6).map(Character)
charpolys = st.lists(characters, max_size=3).map(CharPoly)
nonneg_characters = st.dictionaries(weights, st.integers(0, 10), max_size=6).map(Character)
nonneg_charpolys = st.lists(nonneg_characters, max_size=3).map(CharPoly)

line_weights = st.builds(LineWeights, st.integers(-10, 10), st.integers(-10, 10))
bundles = st.lists(line_weights, min_size=1, max_size=4).map(
    lambda ls: EquivBundleCP1(tuple(ls))
)


def times(a: Character, b: Character) -> Character:
    """The product ab, from the dense terms of both."""
    return Character((k + m, p * q) for k, p in a.items() for m, q in b.items())


def times_one_plus_t(q: CharPoly) -> CharPoly:
    """(1 + t) q, as q plus its shift by one power of t."""
    return q + CharPoly([0, *q.coeffs])


class TestRingAxioms:
    @given(characters, characters)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(characters, characters, characters)
    def test_add_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(characters)
    def test_add_neutral_and_inverse(self, a):
        assert a + Character() == a
        assert a + (-a) == Character()

    @given(characters, characters)
    def test_dim_is_additive_and_multiplicative(self, a, b):
        assert (a + b).dim() == a.dim() + b.dim()
        assert times(a, b).dim() == a.dim() * b.dim()


def assert_canonical(ch: Character) -> None:
    """The jumps are stored with ascending weights and no zero entry."""
    assert list(ch._jumps) == sorted(ch._jumps), ch._jumps
    assert all(ch._jumps.values()), ch._jumps


class TestCanonicalForm:
    """Every way to build a character stores canonical jumps, whichever order its input came in."""

    @given(weights, weights)
    def test_span(self, lo, hi):
        ch = Character.span(lo, hi)
        assert_canonical(ch)
        assert ch == Character((m, 1) for m in range(lo, hi + 1))

    @given(weights, mults)
    def test_monomial(self, weight, mult):
        ch = Character.monomial(weight, mult)
        assert_canonical(ch)
        assert ch == Character({weight: mult})

    @given(st.lists(st.tuples(weights, mults), max_size=8))
    def test_constructor(self, pairs):
        assert_canonical(Character(pairs))
        assert_canonical(Character(dict(pairs)))

    @given(st.dictionaries(weights, mults, max_size=6), weights)
    def test_from_jumps(self, jumps, last):
        # Any key order, zero entries kept, and one entry that makes the jumps sum to zero.
        jumps[last] = jumps.get(last, 0) - sum(jumps.values())
        assert_canonical(Character._from_jumps(jumps))

    @given(characters, characters, mults)
    def test_arithmetic(self, a, b, c):
        for ch in (a + b, a - b, -a, a + c, a - c, c + a, c - a, a - a, a + (-a)):
            assert_canonical(ch)


class TestOrder:
    """The coefficientwise order as the checks ask it: a dominates b iff (a - b).is_nonneg()."""

    @given(characters, nonneg_characters, nonneg_characters)
    def test_transitive_by_construction(self, base, d1, d2):
        a, b, c = base + d1 + d2, base + d1, base
        assert (a - b).is_nonneg() and (b - c).is_nonneg() and (a - c).is_nonneg()

    @given(characters, characters)
    def test_ge_iff_difference_nonneg(self, a, b):
        da, db = dict(a.items()), dict(b.items())
        dominates = all(da.get(k, 0) >= db.get(k, 0) for k in da.keys() | db.keys())
        assert dominates is (a - b).is_nonneg()

    @given(characters)
    def test_reflexive(self, a):
        assert (a - a).is_nonneg()

    @given(characters, characters)
    def test_antisymmetric(self, a, b):
        if (a - b).is_nonneg() and (b - a).is_nonneg():
            assert a == b

    def test_not_total(self):
        a = Character({0: 1, 1: 1})
        b = Character({0: 2})
        assert not (a - b).is_nonneg() and not (b - a).is_nonneg()


class TestCharPolyLaws:
    @given(charpolys, charpolys)
    def test_eval_at_minus_one_is_additive(self, p, q):
        assert (p + q).at_minus_one() == p.at_minus_one() + q.at_minus_one()

    @given(charpolys, charpolys)
    def test_eval_at_minus_one_is_multiplicative(self, p, q):
        # The product pq, coefficient by coefficient from the dense products.
        pq = CharPoly(
            sum((times(p.coeff(i), q.coeff(m - i)) for i in range(m + 1)), Character())
            for m in range(p.degree + q.degree + 1)
        )
        assert pq.at_minus_one() == times(p.at_minus_one(), q.at_minus_one())
        # (1 + t) vanishes at t = -1, and so does every multiple of it.
        assert times_one_plus_t(q).at_minus_one() == Character()

    @given(charpolys, charpolys)
    def test_morse_quotient_round_trip(self, q, r):
        assert morse_quotient(times_one_plus_t(q) + r, r) == q

    @given(charpolys, charpolys)
    def test_morse_quotient_exists_iff_divisible(self, p, r):
        value = (p - r).at_minus_one()
        try:
            q = morse_quotient(p, r)
        except NotDivisible as exc:
            assert value
            assert exc.residual == value
        else:
            assert not value
            assert times_one_plus_t(q) + r == p

    @given(charpolys, charpolys, charpolys)
    def test_is_factorization_on_random_triples(self, p, r, q):
        assert _is_factorization(p, r, q) is (times_one_plus_t(q) + r == p)

    @given(charpolys, charpolys, st.integers(0, 3), characters, st.booleans())
    def test_is_factorization_with_one_coefficient_off(self, q, r, m, delta, off_in_q):
        # p = r + (1+t)q holds; then q, or p, is changed in its t^m coefficient.
        p = times_one_plus_t(q) + r
        assert _is_factorization(p, r, q)
        poly = q if off_in_q else p
        cs = list(poly.coeffs) + [Character()] * (m + 1 - len(poly.coeffs))
        cs[m] = cs[m] + delta
        off = CharPoly(cs)
        if off_in_q:
            assert _is_factorization(p, r, off) is (times_one_plus_t(off) + r == p) is (not delta)
        else:
            assert _is_factorization(off, r, q) is (times_one_plus_t(q) + r == off) is (not delta)

    def test_is_factorization_checks_the_top_coefficient(self):
        # (1+t) * 1 = 1 + t: the t^1 term lies past deg p, deg r and deg q.
        assert not _is_factorization(CharPoly([1]), CharPoly(), CharPoly([1]))
        assert _is_factorization(CharPoly([1, 1]), CharPoly(), CharPoly([1]))

    @given(charpolys)
    def test_json_round_trip(self, p):
        # Both layouts the package writes: the indented report and the compact CSV cell, read as CSV.
        obj = json.loads(_json_text(p))
        assert json.loads(_csv_fields(_csv_cell(p))[0]) == obj
        assert CharPoly(Character({int(k): q for k, q in c.items()}) for c in obj) == p

    @given(characters)
    def test_character_json_round_trip(self, a):
        obj = json.loads(_json_text(a))
        assert Character({int(k): q for k, q in obj.items()}) == a


class TestGeometryLaws:
    @given(bundles, bundles)
    def test_cohomology_additive_over_sums(self, a, b):
        both = EquivBundleCP1(a.summands + b.summands)
        ta, tb, t = cohomology(a), cohomology(b), cohomology(both)
        assert t.h0 == ta.h0 + tb.h0
        assert t.h1 == ta.h1 + tb.h1

    @given(line_weights)
    def test_index_dimension_is_degree_plus_one(self, s):
        t = cohomology(EquivBundleCP1((s,)))
        assert t.index().dim() == s.degree + 1

    @given(line_weights)
    def test_two_case_exclusivity(self, s):
        t = cohomology(EquivBundleCP1((s,)))
        assert not (t.h0 and t.h1)
        assert bool(t.h0) == (s.r_q <= s.r_p)
        assert bool(t.h1) == (s.r_q >= s.r_p + 2)

    def test_weight_range_duality_on_grid(self):
        # h1 of (r_P, r_Q) equals h0 of (r_Q - 1, r_P + 1)
        for rp in range(-10, 11):
            for rq in range(-10, 11):
                h1 = cohomology(EquivBundleCP1((LineWeights(rp, rq),))).h1
                h0 = cohomology(EquivBundleCP1((LineWeights(rq - 1, rp + 1),))).h0
                assert h1 == h0, (rp, rq)

    @given(bundles)
    def test_cut_preserves_rank_and_degree_split(self, b):
        d = cut(b)
        assert d.plus.rank == d.minus.rank == b.rank
        for s, p, m in zip(b.summands, d.plus.summands, d.minus.summands):
            assert p.degree + m.degree == s.degree
            assert (p.r_p, m.r_q) == (s.r_p, s.r_q)

    @given(bundles)
    def test_mcut_index_matches_bundle_index(self, b):
        t = cohomology(b)
        tc, _, _ = mcut_cohomology(cut(b))
        assert tc.index() == t.index()


class TestOracleAgreement:
    @settings(max_examples=60)
    @given(line_weights)
    def test_cech_matches_closed_form(self, s):
        b = EquivBundleCP1((s,))
        got = cech_cohomology_p1(b)
        want = cohomology(b)
        assert (got.h0, got.h1) == (want.h0, want.h1)

    @settings(max_examples=60)
    @given(line_weights)
    def test_localization_matches_index(self, s):
        b = EquivBundleCP1((s,))
        assert localization_index(b) == cohomology(b).index()

    @settings(max_examples=40)
    @given(bundles)
    def test_nodal_matches_mcut(self, b):
        d = cut(b)
        got, _, _ = cech_cohomology_nodal(d)
        want, _, _ = mcut_cohomology(d)
        assert (got.h0, got.h1) == (want.h0, want.h1)


class TestChecksAlwaysPass:
    @settings(max_examples=40)
    @given(bundles)
    def test_every_check_passes(self, b):
        report = sweep([b])
        assert report.passed

    @settings(max_examples=60)
    @given(line_weights)
    def test_morse_witnesses_nonneg_and_consistent(self, s):
        b = EquivBundleCP1((s,))
        q_cut = run_check("mcut", b).witness
        q_morse = run_check("morse", b).witness
        q_mv = run_check("mv", b).witness
        assert q_cut.is_nonneg() and q_morse.is_nonneg() and q_mv.is_nonneg()
        # the two-step comparison composes: morse = mv + mcut
        assert q_morse == q_mv + q_cut

    @settings(max_examples=40)
    @given(bundles)
    def test_witnesses_reconstruct_their_identities(self, b):
        d = cut(b)
        euler_m = cohomology(b).euler_poly()
        euler_cut = mcut_cohomology(d)[0].euler_poly()
        sides = (
            cohomology(d.plus).euler_poly()
            + cohomology(d.minus).euler_poly()
            + CharPoly([0, b.rank])
        )
        expected = {"mcut": (euler_cut, euler_m), "morse": (sides, euler_m), "mv": (sides, euler_cut)}
        for cid, (lhs, rhs) in expected.items():
            q = run_check(cid, b).witness
            assert times_one_plus_t(q) + rhs == lhs, cid


# Metamorphic relations.  The closed forms cost O(rank), so the checks that
# do not call an oracle run at weights far past any dense expansion.
huge_bundles = st.lists(
    st.builds(LineWeights, st.integers(-(10**9), 10**9), st.integers(-(10**9), 10**9)), min_size=1, max_size=3
).map(lambda ls: EquivBundleCP1(tuple(ls)))
small_bundles = st.lists(
    st.builds(LineWeights, st.integers(-12, 12), st.integers(-12, 12)), min_size=1, max_size=3
).map(lambda ls: EquivBundleCP1(tuple(ls)))
CLOSED_FORM_CHECKS = tuple(cid for cid in ALL_CHECKS if cid != "oracle")


def _reflect(ch: Character) -> Character:
    """ch(u^-1), from the jumps alone: a jump q at k moves to 1 - k as -q."""
    return Character._from_jumps({1 - k: -q for k, q in ch._jumps.items()})


def _reflect_poly(poly: CharPoly | None) -> CharPoly | None:
    return None if poly is None else CharPoly([_reflect(c) for c in poly.coeffs])


def _mirror(b: EquivBundleCP1) -> EquivBundleCP1:
    """(r_P, r_Q) -> (-r_Q, -r_P): the circle action reversed, P and Q swapped."""
    return EquivBundleCP1(tuple(LineWeights(-s.r_q, -s.r_p) for s in b.summands))


class TestMetamorphic:
    @given(characters)
    def test_reflect_matches_the_dense_reflection(self, a):
        assert _reflect(a) == Character({-k: q for k, q in a.items()})

    def _assert_mirrored(self, b, check_ids):
        for cid in check_ids:
            got, want = run_check(cid, _mirror(b)), run_check(cid, b)
            assert got.passed == want.passed, cid
            assert got.witness == _reflect_poly(want.witness), cid
            assert got.residual == _reflect_poly(want.residual), cid

    @settings(max_examples=100, deadline=None)
    @given(huge_bundles)
    def test_mirror_reflects_closed_form_checks(self, b):
        self._assert_mirrored(b, CLOSED_FORM_CHECKS)

    @settings(max_examples=40, deadline=None)
    @given(small_bundles)
    def test_mirror_reflects_every_check(self, b):
        self._assert_mirrored(b, ALL_CHECKS)

    @settings(max_examples=100, deadline=None)
    @given(huge_bundles)
    def test_direct_sum_adds_witnesses(self, b):
        for cid in ("mcut", "morse", "mv", "simple", "semicontinuity"):
            parts = [run_check(cid, EquivBundleCP1((s,))).witness for s in b.summands]
            assert run_check(cid, b).witness == sum(parts, CharPoly()), cid
