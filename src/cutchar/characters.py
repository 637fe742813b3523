"""Exact arithmetic for formal characters of the circle group.

A finite-dimensional circle representation splits into integer weights; its
formal character is the finite sum of ``multiplicity * u^k`` over weights k,
where ``u`` stands for the weight-one character (the circle element acts on a
weight-k line by the phase e^{-ik*theta}, and u^k bookkeeps that phase).
Characters therefore live in the Laurent polynomial ring Z[u, u^-1].

A :class:`Character` chi is stored by its jumps: the coefficients of
d = (1 - u) * chi, so d_k = c_k - c_{k-1} and each c_k is the prefix sum of
d up to k.  Every closed-form character here is a sum of at most ``rank``
spans u^lo + ... + u^hi, each of which is the two jumps {lo: +1, hi+1: -1},
plus u^0 corrections; so sums, differences, equality, nonnegativity (every
prefix sum of d is >= 0) and the dimension (-sum of k * d_k) cost O(rank),
whatever the weights.  Multiplication by 1 - u is injective, so the jumps
with zero entries dropped are canonical and structural equality is ring
equality.  Only the dense views (:meth:`Character.items`, ``coeffs``, JSON
and the string forms) expand the prefix sums, at a cost linear in what they
return.

:class:`CharPoly` is a polynomial in a formal variable ``t`` with Character
coefficients; the t^p coefficient records cohomological degree p.  The one
non-obvious operation is :func:`morse_quotient`, the exact synthetic division
recovering Q from P = R + (1+t)*Q; every inequality check in this package is
a nonnegativity statement about such a Q.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from itertools import zip_longest
from types import MappingProxyType

__all__ = ["Character", "CharPoly", "NotDivisible", "morse_quotient"]


class NotDivisible(ValueError):
    """No exact (1+t) factor exists.

    Carries the value of the difference at t = -1; the factorization exists
    exactly when that value vanishes.
    """

    def __init__(self, residual: "Character"):
        super().__init__(f"no (1+t) factor: value at t = -1 is {residual}")
        self.residual = residual


def _check_int(value: object, what: str) -> None:
    # bool is an int subclass; reject it along with floats and strings.
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")


def _canonical(terms: Mapping[int, int]) -> dict[int, int]:
    """Ascending weights, zero entries dropped."""
    return {k: terms[k] for k in sorted(terms) if terms[k] != 0}


def _runs(jumps: Mapping[int, int]) -> Iterator[tuple[int, int, int]]:
    """``(lo, hi, s)`` for each run lo <= k < hi where the prefix sum of ``jumps`` is s != 0.

    ``jumps`` must be canonical and sum to zero.  The sums are constant
    between consecutive jumps, so the runs come in ascending order, one per
    jump that leaves a nonzero sum; adjacent runs hold different sums.
    This is the one walk over the jumps: every dense view expands it.
    """
    total = 0
    prev = 0
    for k, q in jumps.items():
        if total:
            yield prev, k, total
        total += q
        prev = k


class Character:
    """Laurent polynomial in u with integer coefficients, stored by its jumps.

    Supports + and - with other characters, equality and :meth:`is_nonneg`.
    Every operand is a character: n * u^0 is ``Character.monomial(0, n)``,
    and an int is no operand and equals no character.  Instances are
    immutable, so an operation may return one of its operands:
    ``a + Character()`` is ``a``.  The constructor takes the dense
    ``{weight: multiplicity}`` form, which is also what every view and the
    repr show, or its pairs, where repeated weights add up.

    >>> Character([(0, 1), (2, 1), (0, 1)])
    Character({0: 2, 2: 1})
    >>> u, one = Character.monomial(1), Character.monomial(0, 1)
    >>> (one + u) + (u - Character.monomial(0, 2))
    Character({0: -1, 1: 2})
    >>> (one + u) - (u + one)
    Character({})
    """

    __slots__ = ("_jumps",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        # (1 - u) * c u^k puts +c at k and -c at k + 1.
        jumps: dict[int, int] = {}
        for weight, mult in items:
            _check_int(weight, "weight")
            _check_int(mult, "multiplicity")
            jumps[weight] = jumps.get(weight, 0) + mult
            jumps[weight + 1] = jumps.get(weight + 1, 0) - mult
        self._jumps: dict[int, int] = _canonical(jumps)

    @classmethod
    def _from_jumps(cls, jumps: Mapping[int, int]) -> "Character":
        """The character whose (1 - u) multiple is ``jumps`` (summing to zero)."""
        new = cls.__new__(cls)
        new._jumps = _canonical(jumps)
        return new

    @classmethod
    def monomial(cls, weight: int, mult: int = 1) -> "Character":
        """The single term ``mult * u^weight``."""
        _check_int(weight, "weight")
        _check_int(mult, "multiplicity")
        # Already canonical: ascending, and no zero entry.
        new = cls.__new__(cls)
        new._jumps = {weight: mult, weight + 1: -mult} if mult else {}
        return new

    @classmethod
    def span(cls, lo: int, hi: int) -> "Character":
        """Sum of u^m over lo <= m <= hi; zero when the range is empty.

        Costs O(1) for any range: the jumps are +1 at lo and -1 at hi + 1.

        >>> Character.span(0, 2)
        Character({0: 1, 1: 1, 2: 1})
        >>> Character.span(3, 2)
        Character({})
        """
        _check_int(lo, "weight")
        _check_int(hi, "weight")
        # Already canonical: ascending, and no zero entry.
        new = cls.__new__(cls)
        new._jumps = {lo: 1, hi + 1: -1} if lo <= hi else {}
        return new

    @property
    def coeffs(self) -> Mapping[int, int]:
        return MappingProxyType(dict(self.items()))

    def items(self) -> Iterator[tuple[int, int]]:
        """The dense ``(weight, multiplicity)`` terms, ascending; every dense view reads these."""
        return ((m, s) for lo, hi, s in _runs(self._jumps) for m in range(lo, hi))

    def dim(self) -> int:
        """Sum of multiplicities (the virtual dimension): -sum of k * d_k."""
        return -sum(k * q for k, q in self._jumps.items())

    def is_nonneg(self) -> bool:
        """True iff every coefficient, i.e. every prefix sum of the jumps, is >= 0."""
        total = 0
        for q in self._jumps.values():
            total += q
            if total < 0:
                return False
        return True

    def __bool__(self) -> bool:
        return bool(self._jumps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Character):
            return NotImplemented
        return self._jumps == other._jumps

    def __hash__(self) -> int:
        return hash(tuple(self._jumps.items()))

    def _plus(self, other: "Character", sign: int) -> "Character":
        """``self + sign * other`` for a sign of 1 or -1: the one body of + and -."""
        if type(other) is not Character:
            # Leave any other operand to its own reflected method, if it has one.
            return NotImplemented
        # Instances are immutable, so a zero operand can hand back the other one.
        if not other._jumps:
            return self
        if not self._jumps and sign > 0:
            return other
        merged = dict(self._jumps)
        get = merged.get
        for k, q in other._jumps.items():
            merged[k] = get(k, 0) + sign * q
        new = object.__new__(Character)
        new._jumps = _canonical(merged)
        return new

    def __add__(self, other: "Character") -> "Character":
        return self._plus(other, 1)

    def __sub__(self, other: "Character") -> "Character":
        return self._plus(other, -1)

    def __repr__(self) -> str:
        return f"Character({dict(self.items())!r})"

    def __str__(self) -> str:
        parts: list[str] = []
        for k, q in self.items():
            mag = abs(q)
            if k == 0:
                term = str(mag)
            else:
                var = "u" if k == 1 else f"u^{k}"
                term = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(term if q > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if q > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"


#: The zero character, shared: every internal zero is this one instance.
ZERO = Character()


class CharPoly:
    """Polynomial in t with :class:`Character` coefficients.

    Trailing zero coefficients are trimmed, so the zero polynomial has no
    coefficients and equality is canonical.  Every coefficient is a
    character, n * u^0 included (``Character.monomial(0, n)``), and
    polynomials subtract only polynomials.

    >>> p = CharPoly([Character.span(0, 2), Character.span(0, 1), Character.monomial(0, 0)])
    >>> len(p.coeffs)
    2
    >>> p.at_minus_one()
    Character({2: 1})
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Character] = ()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not Character:
                raise TypeError(f"expected Character, got {type(c).__name__}")
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs: tuple[Character, ...] = tuple(cs)

    @property
    def coeffs(self) -> tuple[Character, ...]:
        return self._coeffs

    def is_nonneg(self) -> bool:
        return all(c.is_nonneg() for c in self._coeffs)

    def at_minus_one(self) -> Character:
        """Alternating sum of the coefficients (evaluation at t = -1)."""
        total = ZERO
        for p, c in enumerate(self._coeffs):
            total = total - c if p % 2 else total + c
        return total

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CharPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __sub__(self, other: "CharPoly") -> "CharPoly":
        if type(other) is not CharPoly:
            return NotImplemented
        pairs = zip_longest(self._coeffs, other._coeffs, fillvalue=ZERO)
        return CharPoly([a - b for a, b in pairs])

    def __repr__(self) -> str:
        return f"CharPoly({list(self._coeffs)!r})"

    def __str__(self) -> str:
        parts = []
        for p, c in enumerate(self._coeffs):
            if not c:
                continue
            if p == 0:
                parts.append(f"({c})")
            elif p == 1:
                parts.append(f"t*({c})")
            else:
                parts.append(f"t^{p}*({c})")
        return " + ".join(parts) if parts else "0"


def morse_quotient(p: CharPoly, r: CharPoly) -> CharPoly:
    """Solve ``p = r + (1+t) * q`` for q by synthetic division.

    The solution exists iff p - r vanishes at t = -1; otherwise
    :class:`NotDivisible` is raised carrying that value.  When it exists the
    quotient is unique (1 + t has unit leading coefficient), and it is
    returned even if some of its coefficients are negative: nonnegativity is
    the caller's question, to be asked via :meth:`CharPoly.is_nonneg`.

    >>> u = Character.monomial(1)
    >>> p = CharPoly([Character.span(0, 2), Character.monomial(0, 1) + u])
    >>> morse_quotient(p, CharPoly([Character.monomial(2)]))
    CharPoly([Character({0: 1, 1: 1})])
    """
    diff = p - r
    residual = diff.at_minus_one()
    if residual:
        raise NotDivisible(residual)
    # q_m = d_m - q_{m-1}; the step at m = degree would yield zero exactly
    # because diff(-1) == 0, so it is not taken.
    qs: list[Character] = []
    prev = ZERO
    for d in diff._coeffs[:-1]:
        prev = d - prev
        qs.append(prev)
    q = CharPoly(qs)
    assert _is_factorization(p, r, q)
    return q


def _is_factorization(p: CharPoly, r: CharPoly, q: CharPoly) -> bool:
    """True iff ``p == r + (1+t) * q``, by additions only.

    The t^m coefficient of the right side is r_m + q_m + q_{m-1}; past
    max(deg p, deg r, deg q + 1) both sides vanish, so comparing up to there
    proves the polynomial identity exactly.
    """
    columns = zip_longest(p._coeffs, r._coeffs, q._coeffs, (ZERO, *q._coeffs), fillvalue=ZERO)
    return all(p_m == r_m + q_m + q_prev for p_m, r_m, q_m, q_prev in columns)
