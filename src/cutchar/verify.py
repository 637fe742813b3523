"""The identity and inequality checks, and grid sweeps over weight pairs.

Every check compares two quantities produced by independent code paths and
returns a :class:`CheckResult`; checks never raise on mathematical failure.
The Morse-type checks factor the difference of Euler polynomials as
(1 + t) * Q and attach Q as the witness: the check passes exactly when Q is
coefficientwise nonnegative, and equality of the two sides is visible as
Q == 0.  When no (1 + t) factor exists the check fails with the t = -1
value attached as the residual.

Check ids:

* ``gluing``          index(M) = index(plus) + index(minus) - rank * u^0
* ``mcut``            euler(cut) - euler(M) = (1+t) Q,  Q >= 0
* ``morse``           euler(plus) + euler(minus) + t*rank*u^0 - euler(M) = (1+t) Q',  Q' >= 0
* ``mv``              same left side against euler(cut),  Q'' >= 0
* ``simple``          h^0(plus) + h^0(minus) >= h^0(M) and
                      h^1(plus) + h^1(minus) + rank * u^0 >= h^1(M)
* ``semicontinuity``  h^p(cut) >= h^p(M) for p = 0, 1, with equal index
* ``oracle``          closed forms of M, the cut space and both sides agree
                      with the Cech, nodal Cech and localization recomputations

Every JSON document of the command line, a report or a table, is laid out
by one writer here, as ``json.dumps(obj, indent=2)`` lays out plain dicts
and lists, and handed to its destination piece by piece: a character is an
object of decimal weight keys, a polynomial in t the array of its
coefficients.  Only this module knows that layout.  Reports are only
written: no command reads one back, so nothing here parses a report or a
result.
"""

from __future__ import annotations

from _json import encode_basestring_ascii as _quote
from collections import namedtuple
from io import StringIO

from .characters import Character, CharPoly, NotDivisible, _runs, morse_quotient
from .geometry import EquivBundleCP1, LineWeights, cohomology, cut, mcut_cohomology
from .oracles import cech_cohomology_nodal, cech_cohomology_p1, localization_index

__all__ = [
    "CheckResult",
    "SweepReport",
    "ALL_CHECKS",
    "MORSE_CHECKS",
    "run_check",
    "sweep",
    "grid_bundles",
    "equality_region",
]


class CheckResult(namedtuple("CheckResult", "check_id bundle passed witness residual", defaults=(None, None))):
    """Outcome of one check on one bundle.

    ``witness`` is the certificate a passing inequality produces (the Morse
    quotient, or the slack of a direct comparison); it is kept on failures
    too, where its negative coefficients locate the violation.  ``residual``
    is attached when the claimed identity itself fails (no (1+t) factor, or
    two routes disagree) and holds the difference.
    """

    __slots__ = ()


#: The most terms of one run that the JSON writer puts in one piece, so that
#: it holds at most one piece of a dense character at a time.
_RUN_CHUNK = 1024


def _write_json(value, write, pad: str = "") -> None:
    """Write ``json.dumps(value, indent=2)`` through ``write``, for a value on a line indented by ``pad``.

    ``value`` is built of dicts with string keys, lists, tuples, strings,
    ints, bools and None, and may also hold a :class:`Character`, a
    :class:`CharPoly` or a row: a tuple of one bundle's check results.  It
    is written from these objects directly, in pieces and in order: a
    character goes out run by run, each run in pieces of at most
    ``_RUN_CHUNK`` terms, so no piece grows with the weights.  json.dumps
    lays out indented text in its pure-Python encoder, which costs several
    times this writer.
    """
    inner = pad + "  "
    if type(value) is Character:
        opened = False
        for lo, hi, q in _runs(value._jumps):
            sep = f'": {q},\n{inner}"'
            for start in range(lo, hi, _RUN_CHUNK):
                terms = sep.join(map(str, range(start, min(start + _RUN_CHUNK, hi))))
                write(f'{"," if opened else "{"}\n{inner}"{terms}": {q}')
                opened = True
        write(f"\n{pad}}}" if opened else "{}")
        return
    if isinstance(value, str):
        write(_quote(value))
        return
    if value is None or value is True or value is False:
        write("null" if value is None else "true" if value else "false")
        return
    if isinstance(value, int):
        write(int.__repr__(value))  # as json.dumps spells it, for an int subclass too
        return
    if type(value) is CharPoly:
        brackets, members = "[]", [("", c) for c in value.coeffs]
    elif isinstance(value, dict):
        brackets, members = "{}", [(f"{_quote(k)}: ", v) for k, v in value.items()]
    elif value and type(value[0]) is CheckResult:
        # Two pieces per result, each ending in the key of a polynomial that
        # is written next, or in its null; the row's bundle literal is quoted once.
        at, bundle = inner + "  ", _quote(value[0].bundle.literal())
        sep = "["
        for r in value:
            write(
                f'{sep}\n{inner}{{\n{at}"check_id": {_quote(r.check_id)},\n{at}"bundle": {bundle},\n'
                f'{at}"passed": {"true" if r.passed else "false"},\n'
                f'{at}"witness": {"null" if r.witness is None else ""}'
            )
            if r.witness is not None:
                _write_json(r.witness, write, at)
            write(f',\n{at}"residual": {"null" if r.residual is None else ""}')
            if r.residual is not None:
                _write_json(r.residual, write, at)
            sep = f"\n{inner}}},"
        write(f"\n{inner}}}\n{pad}]")
        return
    else:
        brackets, members = "[]", [("", v) for v in value]
    if not members:
        write(brackets)
        return
    sep = brackets[0]
    for key, v in members:
        write(f"{sep}\n{inner}{key}")
        _write_json(v, write, inner)
        sep = ","
    write(f"\n{pad}{brackets[1]}")


def _csv_cell(poly: CharPoly | None) -> str:
    """The witness cell of a CSV row in its final bytes: empty for None, a bare ``[]`` for zero.

    Else the compact JSON in quotes, run by run, each key laid out as ``""k"":q``, its quotes doubled.
    """
    if not poly:
        return "" if poly is None else "[]"
    chars = (
        ",".join('""' + f'"":{q},""'.join(map(str, range(lo, hi))) + f'"":{q}' for lo, hi, q in _runs(c._jumps))
        for c in poly.coeffs
    )
    return '"[{' + "},{".join(chars) + '}]"'


def _morse_check(check_id: str, bundle: EquivBundleCP1, lhs: CharPoly, rhs: CharPoly) -> CheckResult:
    try:
        q = morse_quotient(lhs, rhs)
    except NotDivisible as exc:
        return CheckResult(check_id, bundle, False, residual=CharPoly([exc.residual]))
    return CheckResult(check_id, bundle, q.is_nonneg(), witness=q)


class _BundlePass(namedtuple("_BundlePass", "bundle m plus minus cut_space cutd sides m_euler cut_euler m_index")):
    """The closed forms of one bundle, shared by all of its checks.

    ``sides`` is euler(plus) + euler(minus) + t * rank * u^0, the left side
    of morse and mv; ``m_euler``, ``cut_euler`` and ``m_index`` are
    euler(M), euler(cut) and index(M), which several checks read.
    """

    __slots__ = ()


def _tables(bundle: EquivBundleCP1) -> _BundlePass:
    """Closed forms of M, plus, minus and the cut space, the cut, and the sides.

    :func:`sweep` builds this pass once per visited bundle and hands it to
    each of the bundle's checks.
    """
    cutd = cut(bundle)
    tm = cohomology(bundle)
    tcut, tp, tmin = mcut_cohomology(cutd)
    sides = CharPoly([tp.h0 + tmin.h0, tp.h1 + tmin.h1 + Character.monomial(0, bundle.rank)])
    return _BundlePass(bundle, tm, tp, tmin, tcut, cutd, sides, tm.euler_poly(), tcut.euler_poly(), tm.index())


def verify_gluing(t: _BundlePass) -> CheckResult:
    """Index additivity over the cut, correcting for the reduced point."""
    lhs = t.m_index
    rhs = t.plus.index() + t.minus.index() - Character.monomial(0, t.bundle.rank)
    if lhs == rhs:
        return CheckResult("gluing", t.bundle, True)
    return CheckResult("gluing", t.bundle, False, residual=CharPoly([lhs - rhs]))


def verify_cut_inequality(t: _BundlePass) -> CheckResult:
    """euler(cut) dominates euler(M) by a nonnegative (1+t) multiple."""
    return _morse_check("mcut", t.bundle, t.cut_euler, t.m_euler)


def verify_morse(t: _BundlePass) -> CheckResult:
    """The two sides plus the node term dominate euler(M)."""
    return _morse_check("morse", t.bundle, t.sides, t.m_euler)


def verify_mv_morse(t: _BundlePass) -> CheckResult:
    """The two sides plus the node term dominate euler(cut)."""
    return _morse_check("mv", t.bundle, t.sides, t.cut_euler)


def verify_simple(t: _BundlePass) -> CheckResult:
    """Degreewise inequalities between the sides and M, no factoring."""
    slack = t.sides - t.m_euler
    return CheckResult("simple", t.bundle, slack.is_nonneg(), witness=slack)


def verify_semicontinuity(t: _BundlePass) -> CheckResult:
    """Cutting can only grow each h^p, and never moves the index."""
    slack = t.cut_euler - t.m_euler
    index_gap = t.cut_space.index() - t.m_index
    passed = slack.is_nonneg() and not index_gap
    residual = None if not index_gap else CharPoly([index_gap])
    return CheckResult("semicontinuity", t.bundle, passed, witness=slack, residual=residual)


def cross_validate(t: _BundlePass) -> CheckResult:
    """Closed forms against the Cech, nodal Cech and localization routes.

    The residual names every comparison by its power of t: closed form minus
    oracle is the t^0 coefficient for ``cech-h0`` (h0 of M), t^1 for
    ``cech-h1``, t^2 for ``nodal-h0`` (h0 of the cut space), t^3 for
    ``nodal-h1``, t^4 for ``localization`` (the index of M), and t^5 to t^8
    for ``plus-h0``, ``plus-h1``, ``minus-h0`` and ``minus-h1``, the sides
    against the Cech tables that the nodal route glued.  The check passes
    iff the residual is zero.
    """
    cech = cech_cohomology_p1(t.bundle)
    nodal, plus, minus = cech_cohomology_nodal(t.cutd)
    pairs = (
        (t.m.h0, cech.h0),
        (t.m.h1, cech.h1),
        (t.cut_space.h0, nodal.h0),
        (t.cut_space.h1, nodal.h1),
        (t.m_index, localization_index(t.bundle)),
        (t.plus.h0, plus.h0),
        (t.plus.h1, plus.h1),
        (t.minus.h0, minus.h0),
        (t.minus.h1, minus.h1),
    )
    # Equal characters subtract to zero, so a pass needs no residual built.
    if all(closed == oracle for closed, oracle in pairs):
        return CheckResult("oracle", t.bundle, True)
    residual = CharPoly([closed - oracle for closed, oracle in pairs])
    return CheckResult("oracle", t.bundle, False, residual=residual)


_REGISTRY: dict[str, object] = {
    "gluing": verify_gluing,
    "mcut": verify_cut_inequality,
    "morse": verify_morse,
    "mv": verify_mv_morse,
    "simple": verify_simple,
    "semicontinuity": verify_semicontinuity,
    "oracle": cross_validate,
}

ALL_CHECKS: tuple[str, ...] = tuple(_REGISTRY)

#: Checks whose witness is a Morse quotient; a zero witness means the two
#: sides are equal, which is what the equality sets in sweep reports track.
MORSE_CHECKS: tuple[str, ...] = ("mcut", "morse", "mv")


def run_check(check_id: str, bundle: EquivBundleCP1) -> CheckResult:
    return sweep([bundle], (check_id,)).results[0][0]


class SweepReport(namedtuple("SweepReport", "grid results morse_checks region", defaults=((), False))):
    """All check results over a grid of bundles, plus derived views.

    ``results[i]`` are the results for ``grid[i]`` in registry order.
    ``morse_checks`` are the selected Morse-type check ids, in registry
    order, whether or not a ``fail_fast`` sweep reached them.  ``region`` is
    set only by :func:`equality_region`.  Everything else is derived.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for row in self.results for r in row)

    @property
    def summary(self) -> dict[str, dict[str, int]]:
        """Passed and failed counts per check id, in order of first appearance."""
        summary: dict[str, dict[str, int]] = {}
        for row in self.results:
            for r in row:
                counts = summary.setdefault(r.check_id, {"passed": 0, "failed": 0})
                counts["passed" if r.passed else "failed"] += 1
        return summary

    @property
    def equality_sets(self) -> dict[str, tuple[str, ...]]:
        """Per selected Morse-type check, the bundles whose witness is exactly zero.

        A passed Morse check always carries its witness, so a falsy one is zero.
        """
        return {
            cid: tuple(
                bundle.literal()
                for bundle, row in zip(self.grid, self.results)
                for r in row
                if r.check_id == cid and r.passed and not r.witness
            )
            for cid in self.morse_checks
        }

    @property
    def claimed_region(self) -> tuple[str, ...] | None:
        """With ``region``, the grid points where r_Q <= 0 <= r_P; else None."""
        if not self.region:
            return None
        return tuple(b.literal() for b in self.grid if all(s.r_q <= 0 <= s.r_p for s in b.summands))

    def to_json_obj(self) -> dict:
        """The report's JSON text read back, as plain dicts and lists."""
        import json

        return json.loads(self.to_json_text())

    def _json_members(self) -> dict:
        """The report's JSON members in order, with the results and views as they are."""
        members = {
            "grid": [b.literal() for b in self.grid],
            "results": self.results,
            "summary": self.summary,
            "equality_sets": self.equality_sets,
        }
        if self.region:
            members["claimed_region"] = self.claimed_region
        return members

    def to_json_text(self) -> str:
        """The report as indented JSON, as the command line writes it without a stamp."""
        buf = StringIO()
        _write_json(self._json_members(), buf.write)
        return buf.getvalue()

    def to_csv(self) -> str:
        """One row per (bundle, check), as ``csv.writer`` writes it: no cell but :func:`_csv_cell` holds a quote."""
        lines = ["r_P,r_Q,check_id,passed,witness\n"]
        for bundle, row in zip(self.grid, self.results):
            rp, rq = (";".join(map(str, weights)) for weights in zip(*bundle.summands))
            for r in row:
                cell = _csv_cell(r.witness if r.witness is not None else r.residual)
                lines.append(f"{rp},{rq},{r.check_id},{'true' if r.passed else 'false'},{cell}\n")
        return "".join(lines)

    def to_markdown(self) -> str:
        def cell(value) -> str:  # a witness or residual, or empty when there is none
            return "" if value is None else str(value)

        summary, equality_sets, claimed = self.summary, self.equality_sets, self.claimed_region
        lines = ["# Sweep report", ""]
        lines.append(f"- Bundles: {len(self.grid)}")
        lines.append(f"- Checks: {', '.join(summary)}")
        lines.append(f"- Overall: {'PASS' if self.passed else 'FAIL'}")
        lines += ["", "## Summary", "", "| check | passed | failed |", "| --- | ---: | ---: |"]
        for cid, counts in summary.items():
            lines.append(f"| {cid} | {counts['passed']} | {counts['failed']} |")
        if equality_sets:
            lines += ["", "## Equality sets", ""]
            for cid, lits in equality_sets.items():
                if lits:
                    shown = ", ".join(f"`{lit}`" for lit in lits)
                    lines.append(f"- `{cid}` ({len(lits)}): {shown}")
                else:
                    lines.append(f"- `{cid}`: none")
        if claimed is not None:
            lines += ["", "## Claimed equality region", ""]
            lines.append(f"- r_Q <= 0 <= r_P holds at {len(claimed)} grid points")
            if claimed:
                lines.append("- " + ", ".join(f"`{lit}`" for lit in claimed))
        failures = [r for row in self.results for r in row if not r.passed]
        if failures:
            lines += ["", "## Failures", "", "| bundle | check | witness | residual |", "| --- | --- | --- | --- |"]
            for r in failures:
                lines.append(f"| `{r.bundle.literal()}` | {r.check_id} | {cell(r.witness)} | {cell(r.residual)} |")
        if len(self.grid) == 1:
            lines += ["", "## Details", "", "| check | passed | witness | residual |", "| --- | --- | --- | --- |"]
            for r in self.results[0]:
                lines.append(f"| {r.check_id} | {str(r.passed).lower()} | {cell(r.witness)} | {cell(r.residual)} |")
        return "\n".join(lines) + "\n"


def _normalize_checks(check_ids) -> tuple[str, ...]:
    """The ids in registry order, each once (all for ``None``); a ValueError names an unknown id."""
    if check_ids is None:
        return ALL_CHECKS
    wanted = set()
    for cid in check_ids:
        if cid not in _REGISTRY:
            raise ValueError(f"unknown check id {cid!r}; known: {', '.join(ALL_CHECKS)}")
        wanted.add(cid)
    return tuple(cid for cid in ALL_CHECKS if cid in wanted)


def sweep(bundles, check_ids=None, fail_fast: bool = False) -> SweepReport:
    """Run the selected checks over the bundles, in a deterministic order.

    Bundles are visited in the given order, checks in registry order, and
    each visited bundle's closed forms are computed once for all its checks.
    With ``fail_fast`` the sweep stops right after the first failing check
    and the grid is trimmed to the bundles actually visited.
    """
    grid = tuple(bundles)
    if not grid:
        raise ValueError("sweep needs at least one bundle")
    selected = _normalize_checks(check_ids)
    rows: list[tuple[CheckResult, ...]] = []
    stop = False
    for bundle in grid:
        t = _tables(bundle)
        row: list[CheckResult] = []
        for cid in selected:
            result = _REGISTRY[cid](t)
            row.append(result)
            if fail_fast and not result.passed:
                stop = True
                break
        rows.append(tuple(row))
        if stop:
            break
    morse = tuple(cid for cid in selected if cid in MORSE_CHECKS)
    return SweepReport(grid[: len(rows)], tuple(rows), morse)


def grid_bundles(rp_range: tuple[int, int], rq_range: tuple[int, int]) -> list[EquivBundleCP1]:
    """Rank-one bundles over the inclusive grid, r_P outer, r_Q inner."""
    lo_p, hi_p = rp_range
    lo_q, hi_q = rq_range
    if lo_p > hi_p or lo_q > hi_q:
        raise ValueError("ranges must be nonempty")
    return [
        EquivBundleCP1((LineWeights(rp, rq),))
        for rp in range(lo_p, hi_p + 1)
        for rq in range(lo_q, hi_q + 1)
    ]


def equality_region(rp_range: tuple[int, int], rq_range: tuple[int, int]) -> SweepReport:
    """Map where the Morse-type inequalities are equalities on a grid.

    Runs the ``mcut`` and ``morse`` checks over the rank-one grid; the
    report's claimed region, the points with r_Q <= 0 <= r_P, can then be
    compared against the computed equality sets.
    """
    report = sweep(grid_bundles(rp_range, rq_range), ("mcut", "morse"))
    return SweepReport(report.grid, report.results, report.morse_checks, region=True)
