"""Every public Character operation against a plain ``{weight: mult}`` model.

Character stores the jumps of (1 - u) * chi, and the closed forms and the
oracles share that arithmetic, so a bug in it could hide from the oracle
check.  The model here is the dense dict, with arithmetic written out
term by term and no code shared with the package.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutchar import Character, CharPoly
from cutchar.characters import ZERO
from test_verify import _json_text


def clean(terms: dict) -> dict:
    return {k: terms[k] for k in sorted(terms) if terms[k]}


def m_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, q in b.items():
        out[k] = out.get(k, 0) + q
    return clean(out)


def m_neg(a: dict) -> dict:
    return {k: -q for k, q in a.items()}


def m_str(a: dict) -> str:
    parts = []
    for k, q in a.items():
        var = "" if k == 0 else ("u" if k == 1 else f"u^{k}")
        mag = str(abs(q)) if abs(q) != 1 or k == 0 else ""
        sign = ("" if q > 0 else "-") if not parts else ("+ " if q > 0 else "- ")
        parts.append(f"{sign}{mag}{var}")
    return " ".join(parts) or "0"


weights = st.integers(-25, 25)
dict_pairs = st.dictionaries(weights, st.integers(-4, 4), max_size=6).map(
    lambda d: (Character(d), clean(d))
)
span_pairs = st.tuples(weights, weights).map(
    lambda lh: (Character.span(*lh), {m: 1 for m in range(lh[0], lh[1] + 1)})
)
monomial_pairs = st.tuples(weights, st.integers(-3, 3)).map(
    lambda wm: (Character.monomial(*wm), clean({wm[0]: wm[1]}))
)
base_pairs = dict_pairs | span_pairs | monomial_pairs


@st.composite
def pairs(draw):
    """A (Character, model) pair: a signed sum of up to three base pairs."""
    char, model = Character(), {}
    for c, m in draw(st.lists(base_pairs, min_size=1, max_size=3)):
        if draw(st.booleans()):
            c, m = Character() - c, m_neg(m)
        char, model = char + c, m_add(model, m)
    return char, model


ints = st.integers(-5, 5)


class TestAgainstDictModel:
    @given(pairs(), pairs())
    def test_add_sub_neg(self, a, b):
        (ca, ma), (cb, mb) = a, b
        assert dict((ca + cb).items()) == m_add(ma, mb)
        assert dict((ca - cb).items()) == m_add(ma, m_neg(mb))
        assert dict((Character() - ca).items()) == m_neg(ma)

    @given(pairs(), ints)
    def test_int_operands(self, a, n):
        # n * u^0 is the character Character.monomial(0, n); the int n is no operand and equals no character.
        ca, ma = a
        const, cn = clean({0: n}), Character.monomial(0, n)
        assert dict((ca + cn).items()) == dict((cn + ca).items()) == m_add(ma, const)
        assert dict((ca - cn).items()) == m_add(ma, m_neg(const))
        assert dict((cn - ca).items()) == m_add(const, m_neg(ma))
        assert (ca == cn) is (ma == const)
        assert (ca == n) is False
        for left, right in [(ca, n), (n, ca)]:
            with pytest.raises(TypeError):
                left + right
            with pytest.raises(TypeError):
                left - right

    @given(pairs(), pairs())
    def test_eq_and_hash(self, a, b):
        (ca, ma), (cb, mb) = a, b
        assert (ca == cb) is (ma == mb)
        # A character rebuilt from its dense terms is the same value.
        again = Character(ma)
        assert again == ca and hash(again) == hash(ca)
        if ca == cb:
            assert hash(ca) == hash(cb)

    @given(st.integers())
    def test_u0_multiple_is_not_its_int(self, c):
        # Character.monomial(0, c) != c, zero included; it hashes as its value, as every character does.
        ch = Character.monomial(0, c)
        assert ch != c and hash(ch) == hash(Character({0: c}))
        assert {c: "x"}.get(ch) is None and len({ch, c}) == 2

    @given(pairs(), pairs())
    def test_order_nonneg_dim(self, a, b):
        (ca, ma), (cb, mb) = a, b
        assert ca.is_nonneg() is all(q >= 0 for q in ma.values())
        assert ca.dim() == sum(ma.values())
        # The coefficientwise order, as the checks ask it: a - b is nonnegative.
        diff = m_add(ma, m_neg(mb))
        assert (ca - cb).is_nonneg() is all(q >= 0 for q in diff.values())
        assert (cb - ca).is_nonneg() is all(q <= 0 for q in diff.values())
        assert bool(ca) is bool(ma)

    @given(pairs())
    def test_dense_views(self, a):
        ca, ma = a
        assert list(ca.items()) == list(ma.items())
        assert dict(ca.coeffs) == ma and list(ca.coeffs) == list(ma)

    @given(pairs())
    def test_str_and_repr(self, a):
        ca, ma = a
        assert str(ca) == m_str(ma)
        assert repr(ca) == f"Character({ma!r})"

    @given(pairs())
    def test_json_round_trip(self, a):
        ca, ma = a
        obj = json.loads(_json_text(ca))
        assert json.dumps(obj) == json.dumps({str(k): q for k, q in ma.items()})
        assert Character({int(k): q for k, q in obj.items()}) == ca


#: The zero character, built three ways; the last is 0 * u^0.
ZEROS = [Character(), Character({}), Character.monomial(0, 0)]


class TestZeroOperands:
    """Zero on either side of + and -, the operands the closed forms meet most."""

    @pytest.mark.parametrize("zero", ZEROS, ids=["Character()", "Character({})", "0"])
    @given(pairs(), pairs())
    def test_zero_either_side(self, zero, a, b):
        (ca, ma), (cb, mb) = a, b
        assert dict((ca + zero).items()) == dict((zero + ca).items()) == ma
        assert dict((ca - zero).items()) == ma
        assert dict((zero - ca).items()) == m_neg(ma)
        assert zero - ca == Character() - ca
        assert dict((Character() + zero).items()) == dict((zero - Character()).items()) == {}
        # A zero fast path hands back an operand: later arithmetic on the
        # result must leave that operand, and the zero, as they were.
        s = ca + zero
        t = zero + ca
        after = [s + cb, s - cb, Character() - s, t + cb, t - cb, cb - t, zero - s]
        assert [dict(x.items()) for x in after] == [
            m_add(ma, mb),
            m_add(ma, m_neg(mb)),
            m_neg(ma),
            m_add(ma, mb),
            m_add(ma, m_neg(mb)),
            m_add(mb, m_neg(ma)),
            m_neg(ma),
        ]
        assert dict(ca.items()) == dict(s.items()) == dict(t.items()) == ma
        assert zero == Character() and zero != 0 and not zero

    def test_shared_zero_stays_zero(self):
        one = Character.monomial(0, 1)
        for c in (ZERO, CharPoly([one]).at_minus_one() - one, CharPoly().at_minus_one()):
            assert dict(c.items()) == {} and c == Character()
        u = Character.monomial(1)
        total = CharPoly().at_minus_one()
        total += u
        assert dict(CharPoly().at_minus_one().items()) == {} and dict(total.items()) == {1: 1}
        assert dict(ZERO.items()) == {}


CANONICAL_KEY = re.compile("0|-?[1-9][0-9]*")


class TestJsonKeys:
    """The JSON writer spells each weight one way, its canonical decimal form."""

    @settings(max_examples=200)
    @given(st.text(alphabet="0123456789-+_ ٣", max_size=4) | st.integers().map(str))
    def test_key_accepted_iff_canonical(self, key):
        # int() reads "03", " 3", "+3", "1_0" and "٣" too; the writer writes
        # back a key it reads iff that key is canonical.
        try:
            weight = int(key)
        except ValueError:
            assert not CANONICAL_KEY.fullmatch(key)
        else:
            obj = json.loads(_json_text(Character.monomial(weight)))
            assert (obj == {key: 1}) is bool(CANONICAL_KEY.fullmatch(key))
            assert CANONICAL_KEY.fullmatch(next(iter(obj)))
