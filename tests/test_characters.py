import cProfile
import json
from pathlib import Path

import pytest

import cutchar
from cutchar import (
    Character,
    CharPoly,
    EquivBundleCP1,
    NotDivisible,
    cohomology,
    cut,
    mcut_cohomology,
    morse_quotient,
    sweep,
)
from cutchar.verify import ALL_CHECKS
from test_verify import _json_text

u = Character.monomial(1)


def times_one_plus_t(q: CharPoly) -> CharPoly:
    """(1 + t) q, as q plus its shift by one power of t."""
    return q + CharPoly([0, *q.coeffs])


class TestCharacter:
    def test_from_weights(self):
        # A list of weights, one line each, is the pair form with multiplicity 1.
        assert Character((w, 1) for w in []) == Character()
        assert Character((w, 1) for w in [0, 1, 2]) == Character({0: 1, 1: 1, 2: 1})
        assert Character((w, 1) for w in [0, 0, -1]) == Character({-1: 1, 0: 2})

    def test_canonical_form_drops_zeros(self):
        a = Character({3: 0, 1: 2, -1: 0})
        assert dict(a.items()) == {1: 2}
        assert a == Character({1: 2})
        assert not Character({5: 0})

    def test_support_sorted_ascending(self):
        a = Character({4: 1, -2: 3, 0: 5})
        assert [k for k, _ in a.items()] == [-2, 0, 4]
        assert list(a.coeffs) == [-2, 0, 4]

    def test_constructor_rejects_non_ints(self):
        with pytest.raises(ValueError):
            Character({0: 1.5})
        with pytest.raises(ValueError):
            Character({0: True})
        with pytest.raises(ValueError):
            Character({0.5: 1})

    def test_json_rejects_bad_values(self):
        # What json.loads gives back: string weights, and floats or booleans
        # where integers belong.  The constructor takes none of them.
        for bad in ({"0": 1}, {0: 1.0}, {0: True}, {"x": 1}):
            with pytest.raises(ValueError):
                Character(bad)
        assert Character({3: 0}) == Character()

    def test_add_sub_neg(self):
        a = Character({0: 1, 1: 1})
        b = Character({1: 1, 2: 1})
        assert a + b == Character({0: 1, 1: 2, 2: 1})
        assert a - b == Character({0: 1, 2: -1})
        assert -(a - b) == b - a
        assert a - a == Character()

    def test_int_coercion(self):
        a = Character({1: 1})
        assert a + 1 == Character({0: 1, 1: 1})
        assert 1 + a == a + 1
        assert 2 - a == Character({0: 2, 1: -1})
        # Only an int coerces: a float or a bool is no multiple of u^0.
        for left, right in [(a, 1.5), (1.5, a), (a, True)]:
            with pytest.raises(TypeError):
                left + right
            with pytest.raises(TypeError):
                left - right
        # Integers coerce only for + and -: a character has no product, not even with an integer.
        for left, right in [(a, a), (3, a), (a, 3)]:
            with pytest.raises(TypeError):
                left * right

    def test_dim(self):
        assert Character({0: 2, 3: 1, -1: -1}).dim() == 2
        assert Character().dim() == 0

    def test_span(self):
        assert Character.span(0, 2) == Character({0: 1, 1: 1, 2: 1})
        assert Character.span(2, 1) == Character()
        assert Character.span(-1, -1) == Character.monomial(-1)

    def test_partial_order(self):
        # The coefficientwise order as the checks ask it: a dominates b iff (a - b).is_nonneg().
        assert (Character({0: 2, 1: 1}) - Character({0: 1})).is_nonneg()
        assert not (Character({0: 1}) - Character({0: 2, 1: 1})).is_nonneg()
        # incomparable pair: neither dominates
        a = 1 + u
        b = Character.monomial(0, 2)
        assert not (a - b).is_nonneg()
        assert not (b - a).is_nonneg()

    def test_is_nonneg(self):
        assert Character({0: 1, 5: 2}).is_nonneg()
        assert Character().is_nonneg()
        assert not Character({0: 1, 5: -2}).is_nonneg()

    def test_eq_and_hash(self):
        assert Character({0: 1, 1: 1}) == Character([(1, 1), (0, 1)])
        assert hash(Character({0: 1})) == hash(Character({0: 1, 5: 0}))
        assert Character() == 0
        assert Character.monomial(0, 2) == 2
        assert Character.monomial(1) != 1

    def test_eq_with_bool_is_false(self):
        # bool is an int subclass, but never a character.
        assert (Character({0: 1}) == True) is False  # noqa: E712
        assert (Character() == False) is False  # noqa: E712
        assert Character({0: 1}) != True  # noqa: E712

    def test_json_round_trip(self):
        a = Character({-1: 1, 0: 2})
        obj = json.loads(_json_text(a))
        assert obj == {"-1": 1, "0": 2}
        assert list(obj) == ["-1", "0"]
        assert Character({int(k): q for k, q in obj.items()}) == a

    def test_str(self):
        assert str(Character()) == "0"
        assert str(1 + u) == "1 + u"
        assert str(Character({-1: 1, 2: -3})) == "u^-1 - 3u^2"


class TestCharPoly:
    def test_trailing_zeros_trimmed(self):
        p = CharPoly([1 + u, Character(), Character()])
        assert p.degree == 0
        assert CharPoly().degree == -1
        assert CharPoly([Character()]) == CharPoly()

    def test_coeff(self):
        p = CharPoly([1, u])
        assert p.coeff(0) == Character.monomial(0)
        assert p.coeff(1) == u
        assert p.coeff(7) == Character()
        with pytest.raises(ValueError):
            p.coeff(-1)

    def test_arithmetic(self):
        p = CharPoly([1, u])
        q = CharPoly([u, Character(), 1])
        assert p + q == CharPoly([1 + u, u, Character.monomial(0)])
        assert (p + q) - q == p
        assert p - p == CharPoly()
        # A character or an int operand is the constant polynomial.
        assert p + u == CharPoly([1 + u, u])
        assert p - 1 == CharPoly([0, u])
        assert 1 + p == p + 1 == CharPoly([2, u])
        assert 1 - p == CharPoly([0, -u])
        # A character on the left leaves the polynomial to its reflected methods.
        assert u + CharPoly([1]) == CharPoly([1 + u])
        assert u - CharPoly([1]) == CharPoly([u - 1])
        assert u - p == CharPoly([u - 1, -u])
        assert type(u + p) is type(u - p) is CharPoly
        # An entry is a character or an int, nothing else.
        for bad in ("x", 1.5, True, p):
            with pytest.raises(TypeError, match="expected Character or int"):
                CharPoly([bad])

    def test_eq_and_hash(self):
        p, q = CharPoly([1, u]), CharPoly([1, u, Character()])
        assert p == q and hash(p) == hash(q)
        assert {p: 1}[q] == 1
        # A CharPoly equals only a CharPoly: the zero one is not 0, and a constant one not its character.
        assert (CharPoly() == 0) is False
        assert (CharPoly([u]) == u) is False
        assert CharPoly([1]) != 1

    def test_mul(self):
        # No product: the (1 + t) multiples the checks compare are built by a shift.
        p = CharPoly([1, 1])
        for left, right in [(p, p), (2, p), (p, 2), (p, u)]:
            with pytest.raises(TypeError):
                left * right
        assert times_one_plus_t(p) == CharPoly([1, 2, 1])
        assert times_one_plus_t(CharPoly()) == CharPoly()

    def test_at_minus_one(self):
        p = CharPoly([Character.span(0, 2), 1 + u])
        assert p.at_minus_one() == Character.monomial(2)
        assert CharPoly().at_minus_one() == Character()
        assert CharPoly([1, 1]).at_minus_one() == Character()

    def test_partial_order(self):
        # Coefficientwise in t and in u, as CharPoly.is_nonneg asks it of a difference.
        assert (CharPoly([1 + u, u]) - CharPoly([u])).is_nonneg()
        assert not (CharPoly([1]) - CharPoly([1, u])).is_nonneg()
        assert (CharPoly([1 + u, u]) - CharPoly([u, u])).is_nonneg()
        assert not (CharPoly([u]) - CharPoly([1 + u, u])).is_nonneg()

    def test_json_round_trip(self):
        p = CharPoly([Character({-1: 1}), Character({0: 2})])
        obj = json.loads(_json_text(p))
        assert obj == [{"-1": 1}, {"0": 2}]
        assert CharPoly(Character({int(k): q for k, q in c.items()}) for c in obj) == p


class TestMorseQuotient:
    def test_quotient_constant_in_t(self):
        p = CharPoly([Character.span(0, 2), 1 + u])
        q = morse_quotient(p, CharPoly([Character.monomial(2)]))
        assert q == CharPoly([1 + u])

    def test_reconstruction(self):
        q = CharPoly([u, 1 + u, Character({-2: 3})])
        r = CharPoly([Character({5: 1})])
        assert morse_quotient(times_one_plus_t(q) + r, r) == q

    def test_zero_quotient(self):
        r = CharPoly([1 + u])
        assert morse_quotient(r, r) == CharPoly()

    def test_negative_quotient_returned(self):
        q = CharPoly([-u])
        got = morse_quotient(times_one_plus_t(q), CharPoly())
        assert got == q
        assert not got.is_nonneg()

    def test_not_divisible(self):
        with pytest.raises(NotDivisible) as info:
            morse_quotient(CharPoly([1]), CharPoly([u]))
        assert info.value.residual == Character({0: 1, 1: -1})

    def test_not_divisible_respects_sign(self):
        with pytest.raises(NotDivisible) as info:
            morse_quotient(CharPoly([1, u]), CharPoly())
        assert info.value.residual == Character({0: 1, 1: -1})


def _package_calls(run) -> int:
    """The calls of functions defined in the package that ``run()`` makes, as cProfile counts them."""
    package = str(Path(cutchar.__file__).parent)
    profile = cProfile.Profile()
    profile.runcall(run)
    return sum(
        entry.callcount
        for entry in profile.getstats()
        if not isinstance(entry.code, str) and str(Path(entry.code.co_filename).parent) == package
    )


class TestCostClass:
    """The closed forms and the six non-oracle checks cost O(rank), whatever the weights: counted exactly."""

    def test_same_calls_at_every_scale_of_one_cell(self):
        # The same cell at three scales: r_Q < 0 < r_P, then r_P < 0 < r_Q with r_P + 1 < r_Q.  Each
        # count is compared as soon as it is taken, so a cost that grows with |r| fails at 10^3,
        # before the 10^6 bundle would expand into millions of terms.
        checks = [cid for cid in ALL_CHECKS if cid != "oracle"]

        def run(b):
            cohomology(b)
            mcut_cohomology(cut(b))
            sweep([b], checks)

        counts = []
        for lit in ("10:-10,-7:7", "1000:-1000,-700:700", "1000000:-1000000,-700000:700000"):
            b = EquivBundleCP1.parse(lit)
            counts.append(_package_calls(lambda: run(b)))
            assert counts[-1] == counts[0], (lit, counts)
