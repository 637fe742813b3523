"""Injected faults in the closed forms and in the oracles, and exactly what catches each.

No test elsewhere hands a check a wrong closed form, so without this file a
check's failure branches, and each comparison inside ``cross_validate``,
could be deleted with every test green.  Each fault below patches one
closed form in ``verify``'s namespace so that one table it returns is off
by u^k in h0, in h1, or in the index alone: ``cohomology`` for M, or one
table of the ``(glued, plus, minus)`` triple of ``mcut_cohomology`` for
the cut space or a side.  Nothing is added to ``src/``.  Each case pins
the set of failing checks on a named bundle.

The oracle-side table patches the three oracle routes in the same
namespace instead, one output at a time, in the same way: the Cech
table or the localization index of the whole bundle, or one table of the
nodal route's triple.  It pins the oracle's exact residual: a route
computed from another route, such as the index taken from the Cech
tables, moves more than its own comparison.
"""

import json
from dataclasses import dataclass

import pytest

import cutchar.verify
from cutchar import ALL_CHECKS, Character, CharPoly, EquivBundleCP1, run_check, sweep
import json_model


@dataclass(frozen=True)
class FaultyTable:
    """Stands in for a CohomologyTable whose index() is h0 - h1 + skew."""

    h0: Character
    h1: Character
    skew: Character

    def index(self) -> Character:
        return self.h0 - self.h1 + self.skew

    def euler_poly(self) -> CharPoly:
        return CharPoly([self.h0, self.h1])


# The oracle's comparisons, in the order of their powers of t in its residual.
COMPARISONS = (
    "cech-h0",
    "cech-h1",
    "nodal-h0",
    "nodal-h1",
    "localization",
    "plus-h0",
    "plus-h1",
    "minus-h0",
    "minus-h1",
)

# name: (table it edits, then the multiples of u^k added to h0, to h1, and
# to the index on top of h0 - h1, then the oracle comparisons it moves, each
# with the multiple of u^k it puts there).  "m" is M itself, "plus" and
# "minus" the sides, "cut" the cut space.  Of the oracle's nine comparisons,
# each is the only one that some fault moves, so deleting any fails a case.
FAULTS = {
    "index-alone": ("m", 0, 0, 1, {"localization": 1}),
    "cut-h1-alone": ("cut", 0, 1, 0, {"nodal-h1": 1}),
    # The semicontinuity slack stays nonnegative, the index moves.
    "cut-h0-alone": ("cut", 1, 0, 0, {"nodal-h0": 1}),
    "m-h0-index-kept": ("m", 1, 0, -1, {"cech-h0": 1}),
    "m-h1-index-kept": ("m", 0, 1, 1, {"cech-h1": 1}),
    # The index is kept, so gluing and localization cannot see it.
    "m-h0-and-h1": ("m", 1, 1, 0, {"cech-h0": 1, "cech-h1": 1}),
    "plus-h0": ("plus", 1, 0, 0, {"plus-h0": 1}),
    "plus-h1": ("plus", 0, 1, 0, {"plus-h1": 1}),
    "minus-h0": ("minus", 1, 0, 0, {"minus-h0": 1}),
    "minus-h1-short": ("minus", 0, -1, 0, {"minus-h1": -1}),
}

RANK_ONE, RANK_THREE = "3:-2", "1:-1,2:2,-3:5"
FAR = 40  # outside the support of every character of both bundles

CASES = [
    ("index-alone", RANK_ONE, FAR, {"gluing", "semicontinuity", "oracle"}),
    ("index-alone", RANK_THREE, 0, {"gluing", "semicontinuity", "oracle"}),
    ("cut-h1-alone", RANK_ONE, FAR, {"mcut", "mv", "semicontinuity", "oracle"}),
    ("cut-h1-alone", RANK_THREE, 1, {"mcut", "mv", "semicontinuity", "oracle"}),
    ("cut-h0-alone", RANK_ONE, FAR, {"mcut", "mv", "semicontinuity", "oracle"}),
    ("cut-h0-alone", RANK_THREE, 0, {"mcut", "mv", "semicontinuity", "oracle"}),
    ("m-h0-and-h1", RANK_ONE, FAR, {"mcut", "morse", "simple", "semicontinuity", "oracle"}),
    ("m-h0-and-h1", RANK_ONE, 0, {"mcut", "semicontinuity", "oracle"}),
    # Inside every slack of the rank-three bundle: only the oracle sees it.
    ("m-h0-and-h1", RANK_THREE, 1, {"oracle"}),
    ("m-h0-index-kept", RANK_ONE, FAR, {"mcut", "morse", "simple", "semicontinuity", "oracle"}),
    ("m-h0-index-kept", RANK_THREE, 1, {"mcut", "morse", "oracle"}),
    ("m-h1-index-kept", RANK_ONE, FAR, {"mcut", "morse", "simple", "semicontinuity", "oracle"}),
    ("m-h1-index-kept", RANK_THREE, 1, {"mcut", "morse", "oracle"}),
    ("plus-h0", RANK_ONE, FAR, {"gluing", "morse", "mv", "oracle"}),
    ("plus-h0", RANK_THREE, FAR, {"gluing", "morse", "mv", "oracle"}),
    ("plus-h1", RANK_ONE, FAR, {"gluing", "morse", "mv", "oracle"}),
    ("minus-h0", RANK_THREE, 0, {"gluing", "morse", "mv", "oracle"}),
    ("minus-h1-short", RANK_ONE, FAR, {"gluing", "morse", "mv", "simple", "oracle"}),
    ("minus-h1-short", RANK_THREE, 0, {"gluing", "morse", "mv", "oracle"}),
]


def edit_triple(monkeypatch, route: str, i: int, edit) -> None:
    """Patch ``route`` in ``verify``'s namespace so that table ``i`` of the triple it returns is ``edit``-ed."""
    original = getattr(cutchar.verify, route)

    def faulty(arg):
        tables = list(original(arg))
        tables[i] = edit(tables[i])
        return tuple(tables)

    monkeypatch.setattr(cutchar.verify, route, faulty)


def inject(monkeypatch, name: str, k: int) -> None:
    target, c0, c1, skew, _ = FAULTS[name]

    def edit(table):
        return FaultyTable(
            table.h0 + Character.monomial(k, c0), table.h1 + Character.monomial(k, c1), Character.monomial(k, skew)
        )

    if target == "m":
        cohomology = cutchar.verify.cohomology
        monkeypatch.setattr(cutchar.verify, "cohomology", lambda bundle: edit(cohomology(bundle)))
    else:
        edit_triple(monkeypatch, "mcut_cohomology", ("cut", "plus", "minus").index(target), edit)


def results(b: EquivBundleCP1) -> dict:
    return {cid: run_check(cid, b) for cid in ALL_CHECKS}


class TestFaultTable:
    def test_named_bundles_pass_unfaulted(self):
        for lit in (RANK_ONE, RANK_THREE):
            assert all(r.passed for r in results(EquivBundleCP1.parse(lit)).values()), lit

    @pytest.mark.parametrize(
        "name, lit, k, failing", CASES, ids=[f"{n}-{lit}-u^{k}" for n, lit, k, _ in CASES]
    )
    def test_exactly_these_checks_fail(self, monkeypatch, name, lit, k, failing):
        b = EquivBundleCP1.parse(lit)
        inject(monkeypatch, name, k)
        got = results(b)
        assert {cid for cid, r in got.items() if not r.passed} == failing
        # Every fault puts its multiple of u^k into each comparison it moves, and 0 elsewhere.
        moves = FAULTS[name][-1]
        want = CharPoly([Character.monomial(k, moves.get(c, 0)) for c in COMPARISONS])
        assert got["oracle"].residual == (want or None)

    def test_cut_h0_fails_semicontinuity_by_its_index_alone(self, monkeypatch):
        b = EquivBundleCP1.parse(RANK_ONE)
        inject(monkeypatch, "cut-h0-alone", FAR)
        r = run_check("semicontinuity", b)
        assert not r.passed
        assert r.witness.is_nonneg()
        assert r.residual == CharPoly([Character.monomial(FAR)])

    def test_every_check_fails_on_some_fault(self):
        assert set().union(*(failing for *_, failing in CASES)) == set(ALL_CHECKS)
        assert {name for name, *_ in CASES} == set(FAULTS)

    @pytest.mark.parametrize(
        "name, lit, k, failing", CASES, ids=[f"{n}-{lit}-u^{k}" for n, lit, k, _ in CASES]
    )
    def test_failing_report_json_text(self, monkeypatch, name, lit, k, failing):
        # Residuals here hold zero coefficients below their top one, and
        # negative multiplicities: the report writer must lay those out as
        # json.dumps does.
        b = EquivBundleCP1.parse(lit)
        inject(monkeypatch, name, k)
        report = sweep([b])
        assert {r.check_id for r in report.results[0] if not r.passed} == failing
        assert report.to_json_text() == json.dumps(json_model.report(report), indent=2)


def inject_oracle(monkeypatch, comparison: str, k: int) -> None:
    """Add u^k to the one oracle output that ``comparison`` reads.

    ``cech-*`` and ``localization`` edit the route's result for the whole
    bundle; ``nodal-*``, ``plus-*`` and ``minus-*`` edit the glued, plus or
    minus table of the nodal route's ``(glued, plus, minus)``.
    """
    uk = Character.monomial(k)
    route, _, part = comparison.partition("-")

    def bump(table):
        return table._replace(**{part: getattr(table, part) + uk})

    if route == "cech":
        cech = cutchar.verify.cech_cohomology_p1
        monkeypatch.setattr(cutchar.verify, "cech_cohomology_p1", lambda bundle: bump(cech(bundle)))
    elif route == "localization":
        loc = cutchar.verify.localization_index
        monkeypatch.setattr(cutchar.verify, "localization_index", lambda bundle: loc(bundle) + uk)
    else:
        edit_triple(monkeypatch, "cech_cohomology_nodal", ("nodal", "plus", "minus").index(route), bump)


ORACLE_CASES = [(c, lit, k) for c in COMPARISONS for lit, k in ((RANK_ONE, FAR), (RANK_THREE, 0))]


class TestOracleFaultTable:
    """Each route is computed on its own: a fault in one oracle output moves only its comparison."""

    @pytest.mark.parametrize(
        "comparison, lit, k", ORACLE_CASES, ids=[f"{c}-{lit}-u^{k}" for c, lit, k in ORACLE_CASES]
    )
    def test_exact_residual(self, monkeypatch, comparison, lit, k):
        b = EquivBundleCP1.parse(lit)
        inject_oracle(monkeypatch, comparison, k)
        got = results(b)
        assert {cid for cid, r in got.items() if not r.passed} == {"oracle"}
        # The residual is closed form minus oracle, so the fault shows as -u^k.
        want = CharPoly([Character.monomial(k, -1 if c == comparison else 0) for c in COMPARISONS])
        assert got["oracle"].residual == want

    def test_markdown_failure_row(self, monkeypatch):
        # The residual's zero coefficients below t^4 are skipped, and t^4 is written as a power.
        b = EquivBundleCP1.parse(RANK_ONE)
        inject_oracle(monkeypatch, "localization", FAR)
        lines = sweep([b]).to_markdown().splitlines()
        rows = lines[lines.index("## Failures") + 4 : lines.index("## Details") - 1]
        assert rows == [f"| `{RANK_ONE}` | oracle |  | t^4*(-u^{FAR}) |"]
