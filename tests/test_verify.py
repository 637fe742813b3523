import csv
import io
import json
from collections import Counter
from functools import cache
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutchar import (
    ALL_CHECKS,
    MORSE_CHECKS,
    Character,
    CharPoly,
    CheckResult,
    EquivBundleCP1,
    SweepReport,
    equality_region,
    LineWeights,
    cech_cohomology_nodal,
    cech_cohomology_p1,
    cohomology,
    cut,
    grid_bundles,
    morse_quotient,
    run_check,
    sweep,
)
import cutchar.characters
import cutchar.geometry
import cutchar.verify
from cutchar.verify import _REGISTRY, _RUN_CHUNK, _csv_cell, _morse_check, _write_json
import json_model

u = Character.monomial(1)
one = Character.monomial(0, 1)


def bundle(lit):
    return EquivBundleCP1.parse(lit)


class TestChecks:
    def test_registry_order(self):
        assert ALL_CHECKS == ("gluing", "mcut", "morse", "mv", "simple", "semicontinuity", "oracle")
        assert MORSE_CHECKS == ("mcut", "morse", "mv")

    def test_run_check_unknown_id(self):
        with pytest.raises(ValueError):
            run_check("bogus", bundle("0:0"))

    def test_gluing_passes(self):
        for lit in ["0:0", "2:2", "-1:0", "3:-2", "1:-1,2:2"]:
            r = run_check("gluing", bundle(lit))
            assert r.passed and r.residual is None, lit

    def test_mcut_witnesses(self):
        cases = {
            "2:2": CharPoly([u]),
            "1:-1": CharPoly(),
            "0:0": CharPoly(),
            "-1:1": CharPoly(),
            "-2:-2": CharPoly([Character.monomial(-1)]),
        }
        for lit, want in cases.items():
            r = run_check("mcut", bundle(lit))
            assert r.passed and r.witness == want, lit

    def test_mcut_equal_weights_family(self):
        # r_P = r_Q = r > 0 gives Q = u + ... + u^(r-1)
        for r in range(1, 6):
            res = run_check("mcut", bundle(f"{r}:{r}"))
            assert res.witness == CharPoly([Character.span(1, r - 1)])

    def test_morse_witnesses(self):
        cases = {
            "3:3": CharPoly([Character.span(0, 2)]),
            "1:-1": CharPoly([one]),
            "0:0": CharPoly([one]),
            "-1:1": CharPoly(),
        }
        for lit, want in cases.items():
            r = run_check("morse", bundle(lit))
            assert r.passed and r.witness == want, lit

    def test_mv_witnesses(self):
        cases = {"2:2": CharPoly([one]), "0:0": CharPoly([one]), "-1:1": CharPoly()}
        for lit, want in cases.items():
            r = run_check("mv", bundle(lit))
            assert r.passed and r.witness == want, lit

    def test_simple_equality_case(self):
        r = run_check("simple", bundle("-4:3"))
        assert r.passed
        assert r.witness == CharPoly()

    def test_simple_slack(self):
        r = run_check("simple", bundle("2:2"))
        assert r.passed
        assert r.witness == CharPoly([one + u, one + u])

    def test_semicontinuity_equality_case(self):
        r = run_check("semicontinuity", bundle("-3:2"))
        assert r.passed
        assert r.witness == CharPoly()
        assert r.residual is None

    def test_oracle_passes(self):
        for lit in ["0:0", "2:2", "-3:0", "1:-1,2:2,-2:3"]:
            r = run_check("oracle", bundle(lit))
            assert r.passed and r.residual is None, lit

    def test_all_checks_pass_on_grid(self):
        report = sweep(grid_bundles((-4, 4), (-4, 4)))
        assert report.passed
        assert all(v == {"passed": 81, "failed": 0} for v in report.summary.values())


class TestFailurePaths:
    def test_morse_check_not_divisible(self):
        b = bundle("0:0")
        r = _morse_check("mcut", b, CharPoly([one]), CharPoly([u]))
        assert not r.passed
        assert r.witness is None
        assert r.residual == CharPoly([Character.monomial(0) - u])

    def test_morse_check_negative_quotient(self):
        b = bundle("0:0")
        q = CharPoly([Character() - u])
        r = _morse_check("mcut", b, CharPoly([Character() - u, Character() - u]), CharPoly())  # (1 + t) q
        assert not r.passed
        assert r.witness == q
        assert r.residual is None


def _poly(obj) -> CharPoly | None:
    """The CharPoly a witness or residual was written from, or None for null."""
    return None if obj is None else CharPoly(Character({int(k): q for k, q in c.items()}) for c in obj)


def _rebuilt_result(obj) -> CheckResult:
    """The CheckResult whose JSON is ``obj``, rebuilt by the constructors."""
    witness, residual = _poly(obj["witness"]), _poly(obj["residual"])
    return CheckResult(obj["check_id"], bundle(obj["bundle"]), obj["passed"], witness, residual)


def _rebuilt(obj) -> SweepReport:
    """The report whose JSON is ``obj``, rebuilt from its grid, results and set keys.

    The package writes reports and reads none back; this shows the JSON
    holds all of one.  The derived members are compared by the callers.
    """
    grid = tuple(bundle(lit) for lit in obj["grid"])
    results = tuple(tuple(_rebuilt_result(r) for r in row) for row in obj["results"])
    return SweepReport(grid, results, tuple(obj["equality_sets"]), "claimed_region" in obj)


class TestCheckResultJson:
    def test_round_trip_with_witness(self):
        r = run_check("mcut", bundle("2:2"))
        (obj,) = json.loads(_json_text((r,)))
        assert obj["bundle"] == "2:2"
        assert obj["witness"] == [{"1": 1}]
        assert obj["residual"] is None
        witness = CharPoly(Character({int(k): q for k, q in c.items()}) for c in obj["witness"])
        assert CheckResult(obj["check_id"], bundle(obj["bundle"]), obj["passed"], witness) == r

    def test_round_trip_without_witness(self):
        r = run_check("gluing", bundle("1:-1,2:2"))
        (obj,) = json.loads(_json_text((r,)))
        assert obj == {"check_id": "gluing", "bundle": "1:-1,2:2", "passed": True, "witness": None, "residual": None}
        assert _rebuilt_result(obj) == r


class TestSweep:
    def test_results_follow_registry_order(self):
        report = sweep([bundle("0:0")], ("oracle", "gluing", "mcut"))
        assert [r.check_id for r in report.results[0]] == ["gluing", "mcut", "oracle"]

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            sweep([bundle("0:0")], ("gluing", "nope"))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep([])

    def test_empty_check_selection(self):
        report = sweep([bundle("0:0"), bundle("1:0")], ())
        assert report.results == ((), ())
        assert report.summary == {}
        assert report.equality_sets == {}
        assert report.passed

    def test_equality_sets(self):
        report = sweep(grid_bundles((-2, 2), (-2, 2)), ("mcut", "morse"))
        assert set(report.equality_sets) == {"mcut", "morse"}
        mcut_eq = set(report.equality_sets["mcut"])
        assert {f"{a}:{b}" for a in range(-1, 2) for b in range(-1, 2)} <= mcut_eq
        assert "2:2" not in mcut_eq
        # morse quotient vanishes exactly when r_P < 0 < r_Q here
        assert set(report.equality_sets["morse"]) == {
            f"{a}:{b}" for a in (-2, -1) for b in (1, 2)
        }

    def test_equality_sets_only_for_morse_checks(self):
        report = sweep([bundle("0:0")], ("gluing", "simple"))
        assert report.equality_sets == {}

    def test_fail_fast_trims_grid(self, monkeypatch):
        def always_fails(t):
            return CheckResult("gluing", t.bundle, False, residual=CharPoly([one]))

        monkeypatch.setitem(_REGISTRY, "gluing", always_fails)
        grid = grid_bundles((0, 4), (0, 0))
        report = sweep(grid, ("gluing", "mcut"), fail_fast=True)
        assert len(report.grid) == 1
        assert report.grid[0] == grid[0]
        assert [r.check_id for r in report.results[0]] == ["gluing"]
        assert not report.passed
        assert report.summary == {"gluing": {"passed": 0, "failed": 1}}

    def test_without_fail_fast_all_visited(self, monkeypatch):
        def always_fails(t):
            return CheckResult("gluing", t.bundle, False, residual=CharPoly([one]))

        monkeypatch.setitem(_REGISTRY, "gluing", always_fails)
        grid = grid_bundles((0, 2), (0, 0))
        report = sweep(grid, ("gluing",))
        assert len(report.grid) == 3
        assert report.summary == {"gluing": {"passed": 0, "failed": 3}}


class TestGrid:
    def test_lexicographic_order(self):
        grid = grid_bundles((0, 1), (5, 6))
        assert [b.literal() for b in grid] == ["0:5", "0:6", "1:5", "1:6"]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            grid_bundles((1, 0), (0, 0))


class TestSweepReportSerialization:
    def test_json_round_trip(self):
        report = sweep(grid_bundles((-1, 1), (-1, 1)), ("gluing", "mcut", "morse"))
        obj = json.loads(report.to_json_text())
        back = _rebuilt(obj)
        assert back == report
        assert json_model.report(back) == obj

    def test_json_round_trip_with_claimed_region(self):
        report = equality_region((-1, 1), (-1, 1))
        obj = json.loads(report.to_json_text())
        back = _rebuilt(obj)
        assert back == report
        assert back.claimed_region == report.claimed_region == tuple(obj["claimed_region"])
        assert json_model.report(back) == obj

    def test_fail_fast_report_round_trips(self, monkeypatch):
        # mcut was selected but never ran: its set is present and empty.
        def always_fails(t):
            return CheckResult("gluing", t.bundle, False, residual=CharPoly([one]))

        monkeypatch.setitem(_REGISTRY, "gluing", always_fails)
        report = sweep([bundle("0:0"), bundle("1:0")], ("gluing", "mcut"), fail_fast=True)
        assert report.equality_sets == {"mcut": ()}
        assert json.loads(report.to_json_text())["equality_sets"] == {"mcut": []}

    def test_csv_golden(self):
        report = sweep([bundle("0:0")], ("gluing", "mcut"))
        assert report.to_csv() == (
            "r_P,r_Q,check_id,passed,witness\n"
            "0,0,gluing,true,\n"
            "0,0,mcut,true,[]\n"
        )

    def test_csv_rank_two_weights_joined(self):
        report = sweep([bundle("1:-1,2:2")], ("mcut",))
        lines = report.to_csv().splitlines()
        assert lines[0] == "r_P,r_Q,check_id,passed,witness"
        assert lines[1].startswith("1;2,-1;2,mcut,true,")

    def test_markdown_sections(self):
        report = sweep([bundle("2:2")])
        text = report.to_markdown()
        assert "# Sweep report" in text
        assert "## Summary" in text
        assert "## Equality sets" in text
        assert "## Details" in text
        assert "- Overall: PASS" in text

    def test_markdown_failures_section(self, monkeypatch):
        def always_fails(t):
            return CheckResult("gluing", t.bundle, False, residual=CharPoly([Character.monomial(0) - u]))

        monkeypatch.setitem(_REGISTRY, "gluing", always_fails)
        report = sweep([bundle("0:0"), bundle("1:0")], ("gluing",))
        text = report.to_markdown()
        assert "- Overall: FAIL" in text
        assert "## Failures" in text
        assert "1 - u" in text


class TestReportLoadsOnlyWhatItWrites:
    """A written report holds all of itself: rebuilt from its text, it is the same report."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=2),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.sampled_from(ALL_CHECKS), unique=True, max_size=len(ALL_CHECKS)),
        st.booleans(),
        st.none() | st.sampled_from(ALL_CHECKS),
        st.booleans(),
    )
    def test_round_trip(self, weights, checks, fail_fast, broken, region):
        grid = [EquivBundleCP1(tuple(LineWeights(rp, rq) for rp, rq in summands)) for summands in weights]

        def fails(t):  # the drawn check, if any, fails on every bundle
            return CheckResult(broken, t.bundle, False, residual=CharPoly([one]))

        with mock.patch.dict(_REGISTRY, {broken: fails} if broken else {}):
            report = sweep(grid, checks, fail_fast=fail_fast)
        report = SweepReport(report.grid, report.results, report.morse_checks, region)
        text = report.to_json_text()
        back = _rebuilt(json.loads(text))
        assert back == report
        assert back.to_json_text() == text


def _json_text(value) -> str:
    buf = io.StringIO()
    _write_json(value, buf.write)
    return buf.getvalue()


def _csv_fields(line: str) -> list[str]:
    """The fields ``csv.reader`` reads from one line; a drawn witness can pass its default field limit."""
    limit = csv.field_size_limit(1 << 30)
    try:
        return next(csv.reader([line]))
    finally:
        csv.field_size_limit(limit)


@st.composite
def _characters(draw) -> Character:
    """A character of consecutive runs from a weight that may be negative.

    A run is one piece of the writer, longer than a piece, or short; a gap of
    0 makes two runs adjacent, and a multiplicity of 0 leaves a hole.
    """
    weight = draw(st.integers(-3 * _RUN_CHUNK, 50))
    length = st.integers(1, 3) | st.sampled_from([_RUN_CHUNK, _RUN_CHUNK + 1, 2 * _RUN_CHUNK + 3])
    ch = Character()
    for _ in range(draw(st.integers(0, 4))):
        weight += draw(st.integers(0, 2))
        n, mult = draw(length), draw(st.integers(-3, 3))
        ch += Character([(m, mult) for m in range(weight, weight + n)])
        weight += n
    return ch


class TestJsonText:
    """The writer lays out exactly what json.dumps lays out of the plain values in ``json_model``."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1, max_size=3),
            min_size=1,
            max_size=3,
        ),
        st.lists(st.sampled_from(ALL_CHECKS), unique=True, max_size=len(ALL_CHECKS)),
        st.booleans(),
        st.none() | st.sampled_from(ALL_CHECKS),
        st.booleans(),
    )
    def test_equals_json_dumps(self, weights, checks, fail_fast, broken, region):
        grid = [EquivBundleCP1(tuple(LineWeights(rp, rq) for rp, rq in summands)) for summands in weights]

        def fails(t):  # the drawn check, if any, fails on every bundle
            return CheckResult(broken, t.bundle, False, residual=CharPoly([Character(), Character.monomial(1, -2)]))

        with mock.patch.dict(_REGISTRY, {broken: fails} if broken else {}):
            report = sweep(grid, checks, fail_fast=fail_fast)
        report = SweepReport(report.grid, report.results, report.morse_checks, region)
        assert report.to_json_text() == json.dumps(json_model.report(report), indent=2)

    def test_equality_region_report(self):
        report = equality_region((-3, 3), (-3, 3))
        assert report.claimed_region
        assert report.to_json_text() == json.dumps(json_model.report(report), indent=2)
        assert report.to_json_obj() == json_model.report(report)

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=3)
            | st.lists(inner, max_size=3).map(tuple)
            | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=8,
        )
    )
    def test_plain_values_as_json_dumps_writes_them(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_characters(), max_size=3))
    def test_characters_as_json_dumps_writes_them(self, chars):
        # Runs longer than a writer piece, adjacent runs, negative weights
        # and multiplicities, and empty characters, alone and in a poly.
        poly = CharPoly(chars)
        obj = json_model.poly(poly)
        value = {"poly": poly, "empty": [Character(), CharPoly()], "chars": poly.coeffs}
        assert _json_text(value) == json.dumps({"poly": obj, "empty": [{}, []], "chars": obj}, indent=2)
        assert _csv_fields(_csv_cell(poly)) == [json.dumps(obj, separators=(",", ":"))]
        assert _csv_fields(_csv_cell(CharPoly([Character(), one]))) == ['[{},{"0":1}]']


@st.composite
def _reports(draw) -> SweepReport:
    """Rows of drawn results: any check id and outcome, each witness and residual missing, zero or drawn."""
    polys = st.none() | st.just(CharPoly()) | st.lists(_characters(), min_size=1, max_size=3).map(CharPoly)
    weights = st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1, max_size=3)
    grid, rows = [], []
    for summands in draw(st.lists(weights, min_size=1, max_size=3)):
        b = EquivBundleCP1(tuple(LineWeights(rp, rq) for rp, rq in summands))
        checks = draw(st.lists(st.sampled_from(ALL_CHECKS), max_size=3))
        rows.append(tuple(CheckResult(cid, b, draw(st.booleans()), draw(polys), draw(polys)) for cid in checks))
        grid.append(b)
    return SweepReport(tuple(grid), tuple(rows))


def _csv_writer_text(report: SweepReport) -> str:
    """What ``csv.writer`` writes of the report's rows, each witness cell json.dumps of ``json_model``'s value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["r_P", "r_Q", "check_id", "passed", "witness"])
    for b, row in zip(report.grid, report.results):
        rp = ";".join(str(s.r_p) for s in b.summands)
        rq = ";".join(str(s.r_q) for s in b.summands)
        for r in row:
            payload = r.witness if r.witness is not None else r.residual
            cell = "" if payload is None else json.dumps(json_model.poly(payload), separators=(",", ":"))
            writer.writerow([rp, rq, r.check_id, "true" if r.passed else "false", cell])
    return buf.getvalue()


class TestCsvText:
    """The CSV report is what ``csv.writer`` writes of the same rows."""

    @settings(max_examples=40, deadline=None)
    @given(_reports())
    def test_equals_csv_writer(self, report):
        # Failing and passing checks; witnesses and residuals missing, zero, or with runs longer
        # than a writer piece; bundles of several summands with negative weights.
        assert report.to_csv() == _csv_writer_text(report)


class TestEqualityRegion:
    def test_claimed_region(self):
        report = equality_region((-2, 2), (-2, 2))
        claimed = set(report.claimed_region)
        assert claimed == {f"{a}:{b}" for a in range(0, 3) for b in range(-2, 1)}

    def test_mcut_equality_strictly_contains_claimed_region(self):
        report = equality_region((-3, 3), (-3, 3))
        claimed = set(report.claimed_region)
        mcut_eq = set(report.equality_sets["mcut"])
        assert claimed < mcut_eq
        assert "-1:1" in mcut_eq - claimed

    def test_morse_equality_misses_claimed_region(self):
        # the morse quotient is 1, not 0, everywhere on the claimed region
        report = equality_region((-3, 3), (-3, 3))
        claimed = set(report.claimed_region)
        morse_eq = set(report.equality_sets["morse"])
        assert claimed.isdisjoint(morse_eq)
        assert morse_eq == {f"{a}:{b}" for a in range(-3, 0) for b in range(1, 4)}


def _closed_form_calls(monkeypatch) -> Counter:
    """Count the ``cohomology`` and ``mcut_cohomology`` calls ``verify`` makes from now on.

    ``"all cohomology"`` counts every call of ``cutchar.geometry.cohomology``:
    those through ``verify``'s name, and those ``mcut_cohomology`` makes for
    the two sides from inside ``geometry``.
    """
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(cutchar.geometry, "cohomology", counting("all cohomology", cutchar.geometry.cohomology))
    for name in ("cohomology", "mcut_cohomology"):
        monkeypatch.setattr(cutchar.verify, name, counting(name, getattr(cutchar.geometry, name)))
    return calls


class TestPerBundlePass:
    def test_closed_forms_once_per_bundle(self, monkeypatch):
        calls = _closed_form_calls(monkeypatch)
        sweep([bundle("1:-1,2:2")])
        # M, plus and minus once each for all checks: the cut space is glued from the sides' tables.
        assert calls.pop("all cohomology") == 3
        assert calls == {"cohomology": 1, "mcut_cohomology": 1}

    def test_one_pass_per_visited_bundle(self, monkeypatch):
        calls = _closed_form_calls(monkeypatch)
        a, b = bundle("2:-1"), bundle("-3:2,1:1")
        sweep([a, b, a])
        # Revisiting a reuses nothing from its first visit.
        assert calls.pop("all cohomology") == 9
        assert calls == {"cohomology": 3, "mcut_cohomology": 3}

    def test_sweep_revisiting_a_bundle_matches_fresh_runs(self):
        a, b = bundle("2:-1"), bundle("-3:2,1:1")
        report = sweep([a, b, a])
        for bun, row in zip(report.grid, report.results):
            assert row == tuple(run_check(cid, bun) for cid in ALL_CHECKS), bun.literal()

    # Before zero operands were handed back and the sides' Euler polynomial
    # was shared, these bundles built 123 and 186 characters.
    @pytest.mark.parametrize("lit, bound", [("3:-2", 26), ("1:-1,2:2,-3:5", 66)])
    def test_characters_built_by_the_closed_form_checks(self, monkeypatch, lit, bound):
        # Every instance takes its jumps from one _canonical call (__init__,
        # _from_jumps, + and - all end in it) or from span or monomial, whose
        # jumps are canonical as written.
        built = Counter()
        canonical = cutchar.characters._canonical
        span, monomial = Character.span.__func__, Character.monomial.__func__

        def counting_canonical(terms):
            built["_canonical"] += 1
            return canonical(terms)

        def counting_span(cls, lo, hi):
            built["span"] += 1
            return span(cls, lo, hi)

        def counting_monomial(cls, weight, mult=1):
            built["monomial"] += 1
            return monomial(cls, weight, mult)

        b = bundle(lit)
        monkeypatch.setattr(cutchar.characters, "_canonical", counting_canonical)
        monkeypatch.setattr(Character, "span", classmethod(counting_span))
        monkeypatch.setattr(Character, "monomial", classmethod(counting_monomial))
        sweep([b], [cid for cid in ALL_CHECKS if cid != "oracle"])
        monkeypatch.undo()
        assert 0 < built.total() <= bound


def _no_dense_expansion():
    """Make every dense view of a Character raise while the context is open."""

    def refuse(self):
        raise AssertionError("a closed-form path expanded a character densely")

    return mock.patch.object(Character, "items", refuse)


BIG = 10**9
FAR = 10**100
NON_ORACLE = tuple(cid for cid in ALL_CHECKS if cid != "oracle")


def _cell(rp: int, rq: int) -> tuple[int, ...]:
    """The order of r_P + 1, r_Q, 0 and 1: the sign of each pairwise difference."""
    return tuple((a > b) - (a < b) for a, b in combinations((rp + 1, rq, 0, 1), 2))


def _zero_witnesses(rp: int, rq: int) -> dict[str, bool]:
    """Per non-oracle check, whether the line (r_P, r_Q) has no witness or a zero one."""
    (row,) = sweep([EquivBundleCP1((LineWeights(rp, rq),))], NON_ORACLE).results
    return {r.check_id: not r.witness for r in row}


@cache
def _cell_zeros() -> dict[tuple[int, ...], dict[str, bool]]:
    """Each cell that [-3, 3]^2 meets, with the zero witnesses of a point of it there."""
    return {_cell(rp, rq): _zero_witnesses(rp, rq) for rp in range(-3, 4) for rq in range(-3, 4)}


def _mcut_tight(rp: int, rq: int) -> bool:
    # The mcut quotient is zero except on {r_P >= 1, r_Q >= 2} and {r_P <= -2, r_Q <= -1}.
    return not ((rp >= 1 and rq >= 2) or (rp <= -2 and rq <= -1))


def _morse_tight(rp: int, rq: int) -> bool:
    # The morse quotient Q' is zero exactly on {r_P <= -1, r_Q >= 1}.
    return rp <= -1 and rq >= 1


class TestUnboundedWeights:
    """The closed forms and the six non-oracle checks never expand a character."""

    def test_six_checks_on_huge_weights(self):
        b = bundle(f"{BIG}:{-BIG},{-BIG}:{BIG}")
        expected = {
            "gluing": None,
            "mcut": CharPoly(),
            "morse": CharPoly([one]),
            "mv": CharPoly([one]),
            "simple": CharPoly([one, one]),
            "semicontinuity": CharPoly(),
        }
        with _no_dense_expansion():
            report = sweep([b], tuple(expected))
            table = cohomology(b)
            assert table.h0 == Character.span(-BIG, BIG)
            assert table.h1 == Character.span(-BIG + 1, BIG - 1)
            assert (table.h0.dim(), table.h1.dim()) == (2 * BIG + 1, 2 * BIG - 1)
            assert table.h0.is_nonneg() and not (Character() - table.h1).is_nonneg()
        assert report.passed
        assert {r.check_id: r.witness for r in report.results[0]} == expected
        assert all(r.residual is None for r in report.results[0])
        assert report.equality_sets == {"mcut": (b.literal(),), "morse": (), "mv": ()}

    def test_the_box_meets_every_cell(self):
        # The 20 cells of the five lines r_P = -1, r_P = 0, r_Q = 0, r_Q = 1 and r_Q = r_P + 1; a
        # wider box meets no other, and every point of a cell there has that cell's zero witnesses.
        cells = _cell_zeros()
        assert len(cells) == 20
        for rp in range(-8, 9):
            for rq in range(-8, 9):
                assert _zero_witnesses(rp, rq) == cells[_cell(rp, rq)], (rp, rq)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.builds(
                LineWeights,
                st.integers(-FAR, FAR) | st.integers(-3, 3),
                st.integers(-FAR, FAR) | st.integers(-3, 3),
            ),
            min_size=1,
            max_size=3,
        ).map(EquivBundleCP1)
    )
    def test_equality_map_over_unbounded_weights(self, b):
        """The equality maps hold at any weight and rank, cell by cell.

        Every jump of every closed-form character of a line (r_P, r_Q) lies
        at r_P + 1, r_Q, 0 or 1, and the six non-oracle checks only merge
        jumps, compare them and take prefix sums: none calls ``dim()``, the
        one operation that multiplies a position.  So each verdict, and
        whether each witness is zero, depends only on the order of those four
        values, the line's cell, which some point of [-3, 3]^2 shares.  The
        witnesses of a bundle add over its summands and are nonnegative when
        the checks pass, so the sum is zero exactly when each summand's is.
        This argument rests on reading the code; a later change could break
        it, say a check that reads ``dim()``, and this test is its guard.
        """
        # The asserts run inside the context too: a failing one writes out its operands, and there a
        # witness of 10^100 terms raises in its repr at once instead of filling memory.
        with _no_dense_expansion():
            (row,) = sweep([b], NON_ORACLE).results
            cells = [_cell_zeros()[_cell(s.r_p, s.r_q)] for s in b.summands]
            for r in row:
                assert r.passed and r.residual is None, r.check_id
                assert (not r.witness) is all(zeros[r.check_id] for zeros in cells), r.check_id
            witness = {r.check_id: r.witness for r in row}
            assert (witness["mcut"] == CharPoly()) is all(_mcut_tight(*s) for s in b.summands)
            assert (witness["morse"] == CharPoly()) is all(_morse_tight(*s) for s in b.summands)

    def test_equality_map_by_the_oracles_on_the_grid(self):
        # The same map, with every table taken from the Cech oracles in
        # place of the closed forms.
        for b in grid_bundles((-10, 10), (-10, 10)):
            (s,) = b.summands
            cutd = cut(b)
            tm, tp, tmin = cech_cohomology_p1(b), cech_cohomology_p1(cutd.plus), cech_cohomology_p1(cutd.minus)
            tcut, _, _ = cech_cohomology_nodal(cutd)
            sides = CharPoly([tp.h0 + tmin.h0, tp.h1 + tmin.h1 + one])
            q_mcut = morse_quotient(tcut.euler_poly(), tm.euler_poly())
            q_morse = morse_quotient(sides, tm.euler_poly())
            assert q_mcut.is_nonneg() and q_morse.is_nonneg()
            assert (q_mcut == CharPoly()) is _mcut_tight(s.r_p, s.r_q), b.literal()
            assert (q_morse == CharPoly()) is _morse_tight(s.r_p, s.r_q), b.literal()
