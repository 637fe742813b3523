"""Acceptance gate: every criterion exact (tolerance zero), each timed
against its budget and reporting one pass/fail line.  Run with -s to see
the lines:

    pytest tests/test_acceptance.py -v -s
"""

import random
import time

from cutchar import (
    Character,
    CharPoly,
    EquivBundleCP1,
    LineWeights,
    cech_cohomology_p1,
    cohomology,
    cut,
    equality_region,
    grid_bundles,
    mcut_cohomology,
    morse_quotient,
    run_check,
    sweep,
)

u = Character.monomial(1)

GRID = grid_bundles((-10, 10), (-10, 10))  # 441 rank-one bundles


def in_claimed_region(bundle):
    s = bundle.summands[0]
    return s.r_q <= 0 <= s.r_p


def _criterion(name, budget_ms, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        ms = (time.perf_counter() - t0) * 1000.0
        print(f"acceptance {name}: FAIL ({ms:.3f} ms)")
        raise
    ms = (time.perf_counter() - t0) * 1000.0
    if ms > budget_ms:
        print(f"acceptance {name}: FAIL ({ms:.3f} ms over {budget_ms:g} ms budget)")
        raise AssertionError(f"{name} took {ms:.3f} ms, budget {budget_ms:g} ms")
    print(f"acceptance {name}: PASS ({ms:.3f} ms)")


def test_1_h0_fixture():
    cohomology(EquivBundleCP1.parse("2:0"))  # warm the path before timing

    def body():
        t = cohomology(EquivBundleCP1.parse("2:0"))
        assert t.h0 == 1 + u + Character.monomial(2)
        assert t.h1 == Character()

    _criterion("1 h0 fixture (2:0)", 1.0, body)


def test_2_constant_witness_fixture():
    run_check("morse", EquivBundleCP1.parse("1:1"))  # warm

    for r in (1, 2, 3):
        def body(r=r):
            result = run_check("morse", EquivBundleCP1.parse(f"{r}:{r}"))
            assert result.passed
            assert result.witness == CharPoly([Character.span(0, r - 1)])
            assert result.witness.degree <= 0  # constant in t

        _criterion(f"2 constant witness (r={r})", 1.0, body)


def test_3_gluing_grid():
    rng = random.Random(3)

    def body():
        for bundle in GRID:
            assert run_check("gluing", bundle).passed, bundle.literal()
        for _ in range(100):
            rank = rng.randint(1, 3)
            bundle = EquivBundleCP1(
                tuple(LineWeights(rng.randint(-10, 10), rng.randint(-10, 10)) for _ in range(rank))
            )
            assert run_check("gluing", bundle).passed, bundle.literal()

    _criterion("3 gluing on grid + random rank<=3", 1000.0, body)


def test_4_cut_inequality_grid():
    def body():
        for bundle in GRID:
            result = run_check("mcut", bundle)
            assert result.passed, bundle.literal()
            if in_claimed_region(bundle):
                assert result.witness == CharPoly(), bundle.literal()

    _criterion("4 cut inequality, Q = 0 on region", 1000.0, body)


def test_5_morse_family_grid():
    def body():
        for bundle in GRID:
            for cid in ("morse", "mv", "simple"):
                result = run_check(cid, bundle)
                assert result.passed, (bundle.literal(), cid)
                if cid == "morse" and in_claimed_region(bundle):
                    assert result.witness == CharPoly([1]), bundle.literal()

    _criterion("5 morse family, Q' = 1 on region", 2000.0, body)


def test_6_index_and_semicontinuity_grid():
    def body():
        for bundle in GRID:
            result = run_check("semicontinuity", bundle)
            assert result.passed, bundle.literal()
            t = cohomology(bundle)
            tc, _, _ = mcut_cohomology(cut(bundle))
            assert tc.index() == t.index(), bundle.literal()
            assert (tc.h0 - t.h0).is_nonneg() and (tc.h1 - t.h1).is_nonneg(), bundle.literal()

    _criterion("6 index constancy + semicontinuity", 1000.0, body)


def test_7_oracle_agreement_grid():
    def body():
        for bundle in GRID:
            assert run_check("oracle", bundle).passed, bundle.literal()
        # The h1 weight range is [r_P + 1, r_Q - 1]: the Cech oracle refutes
        # the alternative lower limit r_P - 1 wherever it widens the range.
        s = LineWeights(-3, 0)
        certified = cohomology(EquivBundleCP1((s,))).h1
        assert certified == cech_cohomology_p1(EquivBundleCP1((s,))).h1
        alternative = Character.span(s.r_p - 1, s.r_q - 1)
        assert alternative != cech_cohomology_p1(EquivBundleCP1((s,))).h1
        print(
            "acceptance note: h1 weight range certified as [r_P+1, r_Q-1]; "
            "lower limit r_P-1 is refuted by the Cech oracle at (-3, 0)"
        )

    _criterion("7 oracle agreement (cech, nodal, localization)", 5000.0, body)


def test_8_equality_region_findings():
    def body():
        report = equality_region((-3, 3), (-3, 3))
        assert report.passed  # findings are reported, never failures
        claimed = set(report.claimed_region)
        assert claimed == {f"{a}:{b}" for a in range(0, 4) for b in range(-3, 1)}
        # (a) the morse quotient is 1, not 0, at every claimed point
        by_literal = {
            bundle.literal(): {r.check_id: r for r in row}
            for bundle, row in zip(report.grid, report.results)
        }
        for lit in claimed:
            assert by_literal[lit]["morse"].witness == CharPoly([1]), lit
        assert claimed.isdisjoint(report.equality_sets["morse"])
        # (b) the cut-inequality equality set strictly exceeds the claim
        mcut_eq = set(report.equality_sets["mcut"])
        assert claimed < mcut_eq
        assert "-1:1" in mcut_eq and "-1:1" not in claimed
        # deterministic serialization
        again = equality_region((-3, 3), (-3, 3))
        assert report.to_json_text() == again.to_json_text()

    _criterion("8 equality-region findings on [-3,3]^2", 1000.0, body)


def test_9_randomized_property_batteries():
    rng = random.Random(20260819)

    def rand_char():
        return Character(
            {rng.randint(-20, 20): rng.randint(-10, 10) for _ in range(rng.randint(0, 6))}
        )

    def rand_poly():
        return CharPoly([rand_char() for _ in range(rng.randint(0, 3))])

    def rand_bundle():
        return EquivBundleCP1(
            tuple(
                LineWeights(rng.randint(-10, 10), rng.randint(-10, 10))
                for _ in range(rng.randint(1, 4))
            )
        )

    def body():
        cases = 0
        for _ in range(250):  # additive group axioms, and the dimension
            a, b, c = rand_char(), rand_char(), rand_char()
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a - b == a + (-b) and (a + b) - b == a
            assert a - a == Character() and -(-a) == a
            assert (a + b).dim() == a.dim() + b.dim() and (-c).dim() == -c.dim()
            cases += 1
        for _ in range(250):  # morse_quotient reconstruction: q + t q + r = r + (1+t) q
            q, r = rand_poly(), rand_poly()
            assert morse_quotient(q + CharPoly([0, *q.coeffs]) + r, r) == q
            cases += 1
        for rp in range(-10, 11):  # weight-range duality, whole grid
            for rq in range(-10, 11):
                h1 = cohomology(EquivBundleCP1((LineWeights(rp, rq),))).h1
                h0 = cohomology(EquivBundleCP1((LineWeights(rq - 1, rp + 1),))).h0
                assert h1 == h0, (rp, rq)
                cases += 1
        for _ in range(250):  # direct-sum additivity
            a, b = rand_bundle(), rand_bundle()
            both = EquivBundleCP1(a.summands + b.summands)
            ta, tb, t = cohomology(a), cohomology(b), cohomology(both)
            assert t.h0 == ta.h0 + tb.h0 and t.h1 == ta.h1 + tb.h1
            cases += 1
        assert cases >= 1000, cases

    _criterion("9 randomized property batteries (>=1000 cases)", 5000.0, body)


def test_full_suite_summary():
    # everything above, plus the full check registry, in one sweep
    def body():
        report = sweep(GRID)
        assert report.passed
        assert all(v == {"passed": 441, "failed": 0} for v in report.summary.values())

    _criterion("all checks x full grid sweep", 10000.0, body)
