"""Independent recomputations of the section characters.

Three routes that share no code with the closed forms in :mod:`.geometry`:

* a two-chart Cech complex per line summand, split by weight: one loop per
  line of the bundle walks its weight window, builds each block's
  differential row when it reaches it and row-reduces it once; no block is
  stored, and only the weights where a dimension changes are kept, as the
  jumps each character is built from once;
* the same loop on the two cut pieces glued at the node: each side's Cech
  table, one loop per line over its own window, plus one node term per
  summand pair from the two sides' weight-0 blocks, returned with the two
  side tables; and
* the fixed-point localization formula: the two fixed-point terms over
  their common denominator, which is -u^(-1) (1 - u)^2, so the index is
  four monomials per summand divided twice by 1 - u, each division reading
  the dividend's coefficients as the quotient's jumps.

So every route holds O(rank) jumps, and the Cech routes one block, at a
time, whatever the weights.

Conventions for the line (r_P, r_Q): chart 0 is centered at the fixed point
Q with coordinate z, and the monomial z^j there carries weight r_Q + j;
chart 1 is centered at P with coordinate w = 1/z, and w^i carries weight
r_P - i.  On the overlap the chart-1 monomial w^i reads z^(r_P - r_Q - i) in
chart-0 terms.  All cohomology in a fixed weight m sits inside the block

    C^0_m = span of the chart monomials of weight m   -->   C^1_m = Q z^(m - r_Q)

with differential (s0, s1) |-> s0 - s1 on the overlap, so each block matrix
has a single row with entries +1 (chart 0) and -1 (chart 1).  One row is
reduced exactly without elimination: its rank over Q is 1 unless it is zero.
"""

from __future__ import annotations

from collections.abc import Sequence

from .characters import Character
from .geometry import CohomologyTable, CutDecomposition, EquivBundleCP1, LineWeights

__all__ = [
    "cech_cohomology_p1",
    "cech_cohomology_nodal",
    "NonPolynomialResult",
    "localization_index",
]


def _row_rank(row: Sequence[int]) -> int:
    """The rank of a one-row matrix: 1 if the row is nonzero, else 0."""
    return 1 if any(row) else 0


def _block(line: LineWeights, m: int) -> list[int]:
    """The weight-m block's differential row: +1 for a chart-0 column, then -1 for a chart-1 one."""
    r_p, r_q = line
    # z^(m - r_Q) on chart 0 has weight r_Q + (m - r_Q) = m when m >= r_Q; w^(r_P - m)
    # on chart 1 has weight m when m <= r_P, and on the overlap it reads z^(m - r_Q).
    if m >= r_q:
        return [1, -1] if m <= r_p else [1]
    return [-1] if m <= r_p else []


def cech_cohomology_p1(bundle: EquivBundleCP1) -> CohomologyTable:
    """Cohomology of the bundle by explicit row reduction, each character built once from all its lines' jumps.

    Each line's weights m run over [min(r_P, r_Q) - 1, max(r_P, r_Q) + 1];
    outside that window each chart contributes exactly one monomial and the
    differential is an isomorphism, so all cohomology lives inside it.  Each
    block is built when reached and row-reduced once; C^1_m is
    one-dimensional, so H^0_m = columns - rank and H^1_m = 1 - rank.  A jump
    is recorded only where a line's dimension differs from the one at the
    weight before, so the jumps hold O(rank) entries however wide the windows
    are.  The window's first weight has only a chart-1 column and its last
    only a chart-0 one, so both dimensions are zero there and every line's
    runs close inside its window.

    >>> t = cech_cohomology_p1(EquivBundleCP1.parse("2:0"))
    >>> (t.h0, t.h1)
    (Character({0: 1, 1: 1, 2: 1}), Character({}))
    >>> cech_cohomology_p1(EquivBundleCP1.parse("-3:0,1:1")).h1
    Character({-2: 1, -1: 1})
    """
    h0: dict[int, int] = {}
    h1: dict[int, int] = {}
    for line in bundle.summands:
        r_p, r_q = line
        prev0 = prev1 = 0
        for m in range(min(r_p, r_q) - 1, max(r_p, r_q) + 2):
            row = _block(line, m)
            rank = _row_rank(row)
            n0, n1 = len(row) - rank, 1 - rank
            if n0 != prev0:
                h0[m] = h0.get(m, 0) + n0 - prev0
                prev0 = n0
            if n1 != prev1:
                h1[m] = h1.get(m, 0) + n1 - prev1
                prev1 = n1
    assert sum(h0.values()) == sum(h1.values()) == 0, "the dimension runs do not close"
    return CohomologyTable(Character._from_jumps(h0), Character._from_jumps(h1))


def cech_cohomology_nodal(cutd: CutDecomposition) -> tuple[CohomologyTable, CohomologyTable, CohomologyTable]:
    """Cohomology of the two cut pieces glued at the node, from first principles.

    Sections of the glued curve are pairs of sections agreeing at the node;
    the node sits at chart 0 of each plus summand (its minimum) and chart 1
    of each minus summand (its maximum), and its fiber has weight 0.  The
    gluing sequence

        0 -> H^0(glued) -> H^0(+) + H^0(-) -> fiber -> H^1(glued) -> H^1(+) + H^1(-) -> 0

    gives each side's Cech table, from one loop per line over its own
    window, plus one node term per summand pair: -rank in H^0 and 1 - rank
    in H^1 at weight 0, where rank is that of the joint evaluation map onto
    the pair's one-dimensional fiber.  Off weight 0 the fiber and the
    evaluation map are zero.  Each side's weight-0 dimension is read from
    its weight-0 block as the Cech loop reads any block, columns - rank.
    That block's row is [1, -1] or a single +-1, so every weight-0 section
    is a multiple of (1, 1), which is 1 at the node whichever chart holds
    it: the map has rank 1 exactly when some side has such a section.
    Returns ``(glued, plus, minus)``: the glued table, then the two sides'
    own Cech tables it was glued from.

    >>> from .geometry import cut, EquivBundleCP1
    >>> glued, plus, minus = cech_cohomology_nodal(cut(EquivBundleCP1.parse("2:2")))
    >>> (glued.h0, glued.h1)
    (Character({1: 1, 2: 1}), Character({1: 1}))
    >>> (plus.h0, minus.h1)
    (Character({0: 1, 1: 1, 2: 1}), Character({1: 1}))
    """
    plus = cech_cohomology_p1(cutd.plus)
    minus = cech_cohomology_p1(cutd.minus)
    node_h0 = node_h1 = 0
    for ps, ms in zip(cutd.plus.summands, cutd.minus.summands):
        d_plus, d_minus = (len(row) - _row_rank(row) for row in (_block(ps, 0), _block(ms, 0)))
        rank = 1 if d_plus + d_minus > 0 else 0
        node_h0 -= rank
        node_h1 += 1 - rank
    glued = CohomologyTable(
        plus.h0 + minus.h0 + Character.monomial(0, node_h0),
        plus.h1 + minus.h1 + Character.monomial(0, node_h1),
    )
    return glued, plus, minus


class NonPolynomialResult(ValueError):
    """Exact division by 1 - u left a remainder."""


def _over_one_minus_u(ch: Character) -> Character:
    """The exact quotient ch / (1 - u); raise :class:`NonPolynomialResult` if there is none.

    A character is stored by its jumps (1 - u) * chi, so the quotient's jumps
    are the coefficients of ch, and the division is exact iff they sum to
    zero, i.e. iff ch has dimension zero.
    """
    if ch.dim():
        raise NonPolynomialResult(f"({ch}) / (1 - u) has a remainder")
    return Character._from_jumps(dict(ch.items()))


def localization_index(bundle: EquivBundleCP1) -> Character:
    """Index of the bundle from the two fixed-point contributions of each line summand.

    The point P (moment +1, tangent weight -1) contributes
    u^(r_P) / (1 - u^(-1)); the point Q (moment -1, tangent weight +1)
    contributes u^(r_Q) / (1 - u).  Over the common denominator
    (1 - u^(-1))(1 - u) = -u^(-1) (1 - u)^2 their sum is -u N / (1 - u)^2
    for N = u^(r_P)(1 - u) + u^(r_Q)(1 - u^(-1)).  Each summand's -u N has
    dimension zero, and so has its quotient by 1 - u, so both divisions of
    the sum over the summands are exact, and the quotient is a genuine
    character equal to h0 - h1.

    >>> localization_index(EquivBundleCP1.parse("2:0"))
    Character({0: 1, 1: 1, 2: 1})
    >>> localization_index(EquivBundleCP1.parse("-1:0,2:0"))
    Character({0: 1, 1: 1, 2: 1})
    """
    # -u N of every summand, as its four terms; the constructor adds repeated weights.
    num = []
    for r_p, r_q in bundle.summands:
        num += ((r_p + 1, -1), (r_p + 2, 1), (r_q + 1, -1), (r_q, 1))
    return _over_one_minus_u(_over_one_minus_u(Character(num)))
