"""Independent recomputations of the section characters.

Three routes that share no code with the closed forms in :mod:`.geometry`:

* a two-chart Cech complex per line summand, split by weight: each weight
  block is built when the loop reaches it and row-reduced once, by
  fraction-free integer elimination, which keeps the rank over the
  rationals; no block is stored;
* the same blocks on the two cut pieces glued at the node: each side's Cech
  dimensions over its own window, plus one node term per summand pair from
  the rank of the matching condition at the node fiber; and
* the fixed-point localization formula, evaluated as a single exact
  division in the Laurent ring over the common denominator.

Conventions for the line (r_P, r_Q): chart 0 is centered at the fixed point
Q with coordinate z, and the monomial z^j there carries weight r_Q + j;
chart 1 is centered at P with coordinate w = 1/z, and w^i carries weight
r_P - i.  On the overlap the chart-1 monomial w^i reads z^(r_P - r_Q - i) in
chart-0 terms.  All cohomology in a fixed weight m sits inside the block

    C^0_m = span of the chart monomials of weight m   -->   C^1_m = Q z^(m - r_Q)

with differential (s0, s1) |-> s0 - s1 on the overlap, so each block matrix
has a single row with entries +1 (chart 0) and -1 (chart 1).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from .characters import Character
from .geometry import CohomologyTable, CutDecomposition, LineWeights

__all__ = [
    "cech_cohomology_p1",
    "cech_cohomology_nodal",
    "NonPolynomialResult",
    "localization_index",
]


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (unchanged when that is 0 or 1)."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _rref(rows: list[list[int]], ncols: int) -> tuple[int, list[int]]:
    """Reduce in place to reduced row echelon form over Z; return (rank, pivot columns).

    Fraction-free: each pivot column is cleared from the other rows by
    cross-multiplying, p * row_i - f * row_r, and every changed row is divided
    by the gcd of its entries.  Integer row operations with nonzero
    multipliers keep the row space over Q, hence the rank.
    """
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break  # every row has its pivot
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = _primitive([p * a - f * b for a, b in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
    return r, pivots


def _kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Integer basis of the kernel of the matrix, one vector per free column.

    Each vector is scaled by the lcm L of the pivots: it has L at its free
    column and -L * a / p at the pivot column of each row (pivot p, entry a
    in the free column).  When every pivot is +-1 these are the vectors that
    elimination over Q gives.
    """
    work = [list(row) for row in rows]
    _, pivots = _rref(work, ncols)
    pivot_set = set(pivots)
    scale = math.lcm(*[work[r][c] for r, c in enumerate(pivots)])
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = scale
        for r, c in enumerate(pivots):
            v[c] = -work[r][free] * (scale // work[r][c])
        basis.append(tuple(v))
    return basis


def _block(line: LineWeights, m: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The weight-m block: its C^0 columns as (chart, exponent), and the differential row."""
    cols: list[tuple[int, int]] = []
    if m >= line.r_q:
        cols.append((0, m - line.r_q))
    if m <= line.r_p:
        cols.append((1, line.r_p - m))
    for chart, exp in cols:
        img_exp = exp if chart == 0 else line.r_p - line.r_q - exp
        assert img_exp + line.r_q == m, "column lands in the wrong weight"
    return cols, [1 if chart == 0 else -1 for chart, _ in cols]


def _cech_dims(line: LineWeights) -> Iterator[tuple[int, int, int]]:
    """``(m, dim H^0_m, dim H^1_m)`` for each weight m in [min(r_P, r_Q) - 1, max(r_P, r_Q) + 1].

    Outside that window each chart contributes exactly one monomial and the
    differential is an isomorphism, so all cohomology lives inside it.  Each
    block is built when reached and row-reduced once; C^1_m is
    one-dimensional, so H^0_m = columns - rank and H^1_m = 1 - rank.
    """
    for m in range(min(line.r_p, line.r_q) - 1, max(line.r_p, line.r_q) + 2):
        cols, row = _block(line, m)
        rank, _ = _rref([row], len(cols))
        yield m, len(cols) - rank, 1 - rank


def _nonzero_dims(lines: Iterable[LineWeights]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The nonzero ``(weight, dimension)`` pairs of H^0 and of H^1 over the lines.

    Collecting pairs lets the caller build each character once: summing
    characters term by term would copy the whole sum per weight.
    """
    h0: list[tuple[int, int]] = []
    h1: list[tuple[int, int]] = []
    for line in lines:
        for m, n0, n1 in _cech_dims(line):
            if n0:
                h0.append((m, n0))
            if n1:
                h1.append((m, n1))
    return h0, h1


def cech_cohomology_p1(summand: LineWeights) -> CohomologyTable:
    """Cohomology of one line summand by explicit row reduction.

    >>> t = cech_cohomology_p1(LineWeights(2, 0))
    >>> (t.h0, t.h1)
    (Character({0: 1, 1: 1, 2: 1}), Character({}))
    >>> cech_cohomology_p1(LineWeights(-3, 0)).h1
    Character({-2: 1, -1: 1})
    """
    h0, h1 = _nonzero_dims([summand])
    return CohomologyTable(Character(h0), Character(h1))


def _node_values(line: LineWeights, node_chart: int) -> list[int]:
    """The weight-0 kernel basis of the line, each vector read at the node column (node_chart, 0)."""
    cols, row = _block(line, 0)
    col = cols.index((node_chart, 0))
    return [v[col] for v in _kernel_basis([row], len(cols))]


def cech_cohomology_nodal(cutd: CutDecomposition) -> CohomologyTable:
    """Cohomology of the two cut pieces glued at the node, from first principles.

    Sections of the glued curve are pairs of sections agreeing at the node;
    the node sits at chart 0 of each plus summand (its minimum) and chart 1
    of each minus summand (its maximum), and its fiber has weight 0.  The
    gluing sequence

        0 -> H^0(glued) -> H^0(+) + H^0(-) -> fiber -> H^1(glued) -> H^1(+) + H^1(-) -> 0

    gives each side's Cech dimensions over its own window plus one node term
    per summand pair: -rank in H^0 and 1 - rank in H^1 at weight 0, where
    rank is that of the joint evaluation map.  Off weight 0 the fiber and
    the evaluation map are zero.

    >>> from .geometry import cut, EquivBundleCP1
    >>> t = cech_cohomology_nodal(cut(EquivBundleCP1.parse("2:2")))
    >>> (t.h0, t.h1)
    (Character({1: 1, 2: 1}), Character({1: 1}))
    """
    # The constructor sums repeated weights, node terms included.
    h0, h1 = _nonzero_dims([*cutd.plus.summands, *cutd.minus.summands])
    for ps, ms in zip(cutd.plus.summands, cutd.minus.summands):
        evals = _node_values(ps, 0) + [-x for x in _node_values(ms, 1)]
        rank, _ = _rref([evals], len(evals))
        h0.append((0, -rank))
        h1.append((0, 1 - rank))
    return CohomologyTable(Character(h0), Character(h1))


class NonPolynomialResult(ValueError):
    """Exact division left a remainder or non-integer coefficients."""


def _dense(ch: Character) -> tuple[int, list[int]]:
    """(valuation, dense coefficient list from the valuation upward)."""
    terms = list(ch.items())
    lo = terms[0][0]
    dense = [0] * (terms[-1][0] - lo + 1)
    for k, c in terms:
        dense[k - lo] = c
    return lo, dense


def _laurent_div(num: Character, den: Character) -> Character:
    """Exact quotient num / den; raise :class:`NonPolynomialResult` if there is none."""
    if not den:
        raise ZeroDivisionError("character denominator is zero")
    if not num:
        return Character()
    vn, n = _dense(num)
    vd, d = _dense(den)
    if len(n) < len(d):
        raise NonPolynomialResult(f"({num}) / ({den}) has a remainder")
    # Long division over Z, from the top degree down.  The quotient is
    # integral only if the leading coefficient divides every step.
    lead = d[-1]
    q = [0] * (len(n) - len(d) + 1)
    rem = n
    for i in range(len(q) - 1, -1, -1):
        c, r = divmod(rem[i + len(d) - 1], lead)
        if r:
            raise NonPolynomialResult(f"({num}) / ({den}) has a non-integer quotient coefficient")
        q[i] = c
        if c:
            for j, dj in enumerate(d):
                rem[i + j] -= c * dj
    if any(rem):
        raise NonPolynomialResult(f"({num}) / ({den}) has a remainder")
    return Character({vn - vd + i: c for i, c in enumerate(q)})


def localization_index(summand: LineWeights) -> Character:
    """Index of one line summand from the two fixed-point contributions.

    The point P (moment +1, tangent weight -1) contributes
    u^(r_P) / (1 - u^(-1)); the point Q (moment -1, tangent weight +1)
    contributes u^(r_Q) / (1 - u).  Their sum, taken over the common
    denominator (1 - u^(-1))(1 - u), divides exactly to a genuine character
    and equals h0 - h1.

    >>> localization_index(LineWeights(2, 0))
    Character({0: 1, 1: 1, 2: 1})
    >>> localization_index(LineWeights(-1, 0))
    Character({})
    """
    u = Character.monomial(1)
    u_inv = Character.monomial(-1)
    num = Character.monomial(summand.r_p) * (1 - u) + Character.monomial(summand.r_q) * (1 - u_inv)
    return _laurent_div(num, (1 - u_inv) * (1 - u))
