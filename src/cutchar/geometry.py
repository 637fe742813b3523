"""Equivariant line bundles on the projective line and the level-zero cut.

The circle acts on CP^1 with two fixed points: P (moment value +1) and Q
(moment value -1).  An equivariant line bundle is pinned down by the fiber
weights r_P and r_Q at the fixed points; its underlying degree is r_P - r_Q.
Higher rank enters only through formal direct sums of such line summands.

Section characters come in closed form.  With r := (r_P, r_Q):

* r_Q <= r_P: H^0 has one section of each weight m in [r_Q, r_P], H^1 = 0.
* r_Q >  r_P: H^0 = 0, H^1 has one class per weight m in [r_P + 1, r_Q - 1].

Cutting at the zero level of the moment map splits CP^1 into a plus side
(containing P) and a minus side (containing Q), each again a projective
line, glued along the reduced space at level zero, a point.  The fiber over
that point carries weight 0, so each summand (r_P, r_Q) cuts to (r_P, 0) on
the plus side and (0, r_Q) on the minus side.  The cut space is the two
whole sides glued at the node, so its cohomology is the Mayer-Vietoris
sequence of the two sides' cohomology and one node term per summand pair:
delta, the rank of the evaluation map into the pair's line of the node fiber.
H^0 loses delta copies of u^0, and H^1 gains rank - delta of them.
"""

from __future__ import annotations

import sys
from collections import namedtuple

from .characters import ZERO, Character, CharPoly

__all__ = [
    "MalformedCut",
    "LineWeights",
    "EquivBundleCP1",
    "CohomologyTable",
    "CutDecomposition",
    "cohomology",
    "cut",
    "mcut_cohomology",
]


# The decimal form str() writes, so every accepted weight writes back as itself.
_WEIGHT = "0|-?[1-9][0-9]*"


def _parse_weight(text: str, what: str) -> int:
    """The int that ``text`` spells as str() writes it, :data:`_WEIGHT`; else a ValueError about ``what``.

    int() alone would also take "1_0", "+3", " 3", "03", "-0" and non-ASCII
    digits, and it refuses a literal of more digits than the interpreter's
    limit (4300 by default) with a message about Python's own settings.
    """
    digits = text[1:] if text[:1] == "-" else text
    if text != "0" and not (digits.isascii() and digits.isdigit() and digits[0] != "0"):
        raise ValueError(f"{what} must match {_WEIGHT}")
    try:
        return int(text)
    except ValueError:  # the grammar matched, so only the digit limit refuses it
        raise ValueError(f"{what} must have at most {sys.get_int_max_str_digits()} digits") from None


class MalformedCut(ValueError):
    """The pieces handed to the cut-space computation are inconsistent."""


class LineWeights(namedtuple("LineWeights", "r_p r_q")):
    """Fixed-point weights (r_P, r_Q) of one equivariant line summand."""

    __slots__ = ()


class EquivBundleCP1(namedtuple("EquivBundleCP1", "summands")):
    """Formal direct sum of equivariant line bundles on CP^1.

    The literal form is comma-separated ``rP:rQ`` pairs, e.g. ``"1:-1,2:2"``.
    Building one, also by ``_replace`` or ``_make``, checks its summands.

    >>> EquivBundleCP1.parse("1:-1,2:2").rank
    2
    >>> EquivBundleCP1.parse("3:0").literal()
    '3:0'
    """

    __slots__ = ()

    def __new__(cls, summands):
        summands = tuple(summands)
        if not summands:
            raise ValueError("a bundle needs at least one summand")
        for s in summands:
            if not isinstance(s, LineWeights):
                raise ValueError(f"summand {s!r} is not a LineWeights")
        return super().__new__(cls, summands)

    _make = classmethod(lambda cls, fields: cls(*fields))  # namedtuple's own skips __new__

    @property
    def rank(self) -> int:
        return len(self.summands)

    @classmethod
    def parse(cls, literal: str) -> "EquivBundleCP1":
        """Parse ``"rP:rQ,rP:rQ,..."``, each weight canonical ASCII decimal, ``0|-?[1-9][0-9]*``.

        Raises ValueError on bad syntax.
        """
        summands = []
        for piece in literal.split(","):
            head, sep, tail = piece.partition(":")
            if not sep:
                raise ValueError(f"bad summand {piece!r}: expected rP:rQ")
            try:
                summands.append(LineWeights(_parse_weight(head, "weights"), _parse_weight(tail, "weights")))
            except ValueError as exc:
                raise ValueError(f"bad summand {piece!r}: {exc}") from None
        return cls(tuple(summands))

    def literal(self) -> str:
        return ",".join(f"{s.r_p}:{s.r_q}" for s in self.summands)


class CohomologyTable(namedtuple("CohomologyTable", "h0 h1")):
    """Characters of H^0 and H^1 (all higher groups vanish on a curve)."""

    __slots__ = ()

    @property
    def n(self) -> int:
        """Top cohomological degree: 1, since H^p vanishes for p > 1 on a curve."""
        return 1

    def euler_poly(self) -> CharPoly:
        """Poincare-style polynomial h0 + t*h1."""
        return CharPoly([self.h0, self.h1])

    def index(self) -> Character:
        """Equivariant Euler characteristic h0 - h1."""
        return self.h0 - self.h1


class CutDecomposition(namedtuple("CutDecomposition", "plus minus")):
    """The two sides of the level-zero cut, paired summand by summand.

    Raises :class:`MalformedCut` when built, also by ``_replace`` or
    ``_make``, unless the sides have equal rank and every node fiber weight
    (r_Q on the plus side, r_P on the minus side) is zero.
    """

    __slots__ = ()

    def __new__(cls, plus, minus):
        if plus.rank != minus.rank:
            raise MalformedCut(f"sides have different ranks: {plus.rank} vs {minus.rank}")
        for s in plus.summands:
            if s.r_q != 0:
                raise MalformedCut(f"plus-side node weight must be 0, got {s.r_q}")
        for s in minus.summands:
            if s.r_p != 0:
                raise MalformedCut(f"minus-side node weight must be 0, got {s.r_p}")
        return super().__new__(cls, plus, minus)

    _make = classmethod(lambda cls, fields: cls(*fields))  # namedtuple's own skips __new__

    @property
    def red_dims(self) -> tuple[int, int]:
        """dim H^p of the reduced space (a point) in the cut bundle: (rank, 0)."""
        return (self.plus.rank, 0)


def cohomology(bundle: EquivBundleCP1) -> CohomologyTable:
    """Characters of H^0 and H^1 of the bundle, by the closed form.

    >>> t = cohomology(EquivBundleCP1.parse("2:0"))
    >>> (t.h0, t.h1)
    (Character({0: 1, 1: 1, 2: 1}), Character({}))
    >>> cohomology(EquivBundleCP1.parse("-3:0")).h1
    Character({-2: 1, -1: 1})
    """
    h0 = ZERO
    h1 = ZERO
    for s in bundle.summands:
        if s.r_q <= s.r_p:
            h0 += Character.span(s.r_q, s.r_p)
        else:
            h1 += Character.span(s.r_p + 1, s.r_q - 1)
    return CohomologyTable(h0, h1)


def cut(bundle: EquivBundleCP1) -> CutDecomposition:
    """Cut at moment level zero: (r_P, r_Q) -> plus (r_P, 0), minus (0, r_Q).

    >>> d = cut(EquivBundleCP1.parse("1:-1,2:2"))
    >>> d.plus.literal(), d.minus.literal(), d.red_dims
    ('1:0,2:0', '0:-1,0:2', (2, 0))
    """
    plus = EquivBundleCP1(tuple(LineWeights(s.r_p, 0) for s in bundle.summands))
    minus = EquivBundleCP1(tuple(LineWeights(0, s.r_q) for s in bundle.summands))
    return CutDecomposition(plus, minus)


def mcut_cohomology(cutd: CutDecomposition) -> tuple[CohomologyTable, CohomologyTable, CohomologyTable]:
    """Cohomology of the cut space, glued from its two whole sides via Mayer-Vietoris.

    With delta the rank of the joint evaluation map from both sides'
    sections onto the node fiber, rank lines of weight zero:

        h0(cut) = h0(plus) + h0(minus) - delta * u^0
        h1(cut) = h1(plus) + h1(minus) + (rank - delta) * u^0

    The sides pair up with zero node weights, which the
    :class:`CutDecomposition` checked when it was built.  Returns
    ``(glued, plus, minus)``, the cut space's table and the two sides'.

    >>> glued, plus, minus = mcut_cohomology(cut(EquivBundleCP1.parse("2:2")))
    >>> (glued.h0, glued.h1)
    (Character({1: 1, 2: 1}), Character({1: 1}))
    """
    plus, minus = cohomology(cutd.plus), cohomology(cutd.minus)
    # A summand pair's node fiber is hit iff a side has a weight-zero section through the
    # node: the plus side iff its section range [0, r_p] contains 0, the minus side iff [r_q, 0] does.
    delta = sum(1 for ps, ms in zip(cutd.plus.summands, cutd.minus.summands) if ps.r_p >= 0 or ms.r_q <= 0)
    h0 = plus.h0 + minus.h0 - Character.monomial(0, delta)
    glued = CohomologyTable(h0, plus.h1 + minus.h1 + Character.monomial(0, len(cutd.plus.summands) - delta))
    return glued, plus, minus
