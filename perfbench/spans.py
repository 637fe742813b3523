"""Per-layer spans and counts, recorded from outside the package.

The tracer rebinds the names that callers resolve at call time, so the
package's own source is untouched:

* the ``geometry``, ``oracles`` and ``characters`` functions that
  ``verify`` imports;
* the check functions that ``sweep`` dispatches through;
* ``cli``'s ``sweep`` and ``SweepReport.to_json_obj`` / ``to_csv``;
* ``Character.__init__``, counted but not timed, because a span per
  construction would cost more than the construction.

Each span accumulates its calls, its total time and the part of that time
covered by its direct child spans; total minus covered is its self time.
Totals stay in memory and are read once, at the end of the process.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.covered_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list[int]] = []
        self._sides_seen: set[tuple[int, int]] = set()  # in earlier bundles
        self._bundle = None  # bundle of the check running now
        self._bundle_sides: set[tuple[int, int]] = set()

    def span(self, name: str, fn, observe=None, enter=None):
        """``fn`` wrapped in a span called ``name``.

        ``enter(args)`` runs before the call and ``observe(args, result)``
        after it, both outside the span.
        """
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args)
            covered = [0]
            stack.append(covered)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                self.calls[name] += 1
                self.total_ns[name] += elapsed
                self.covered_ns[name] += covered[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def enter_bundle(self, bundle) -> None:
        """Note the bundle a check is about to run on."""
        if bundle is not self._bundle:
            self._sides_seen |= self._bundle_sides
            self._bundle = bundle
            self._bundle_sides = set()

    def note_sides(self, summands) -> None:
        """Count line summands handed to a closed form.

        A summand counts once per bundle, under ``geometry.sides``, and is a
        repeat when an earlier bundle of the process had it too; every
        further time the same bundle's checks hand it over again counts
        under ``geometry.bundle_recomputes``.
        """
        for s in summands:
            key = (s.r_p, s.r_q)
            self.counts["geometry.handed"] += 1
            if key in self._bundle_sides:
                self.counts["geometry.bundle_recomputes"] += 1
                continue
            self._bundle_sides.add(key)
            self.counts["geometry.sides"] += 1
            if key in self._sides_seen:
                self.counts["geometry.side_repeats"] += 1

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_ns": dict(self.total_ns),
            "covered_ns": dict(self.covered_ns),
            "counts": dict(self.counts),
        }


def install(cli, verify, characters) -> Tracer:
    """Wrap the layer boundaries of an imported cutchar; return the tracer."""
    tracer = Tracer()
    span = tracer.span

    def cohomology_seen(args, _):
        tracer.note_sides(args[0].summands)

    def mcut_seen(args, _):
        tracer.note_sides(args[0].plus.summands + args[0].minus.summands)

    def check_seen(_, result):
        if not result.passed:
            tracer.counts["verify.failed_checks"] += 1

    verify.cohomology = span("geometry.cohomology", verify.cohomology, cohomology_seen)
    verify.cut = span("geometry.cut", verify.cut)
    verify.mcut_cohomology = span("geometry.mcut_cohomology", verify.mcut_cohomology, mcut_seen)
    verify.morse_quotient = span("characters.morse_quotient", verify.morse_quotient)
    verify.cech_cohomology_p1 = span("oracles.cech_p1", verify.cech_cohomology_p1)
    verify.cech_cohomology_nodal = span("oracles.cech_nodal", verify.cech_cohomology_nodal)
    verify.localization_index = span("oracles.localization", verify.localization_index)
    registry = verify._REGISTRY
    for cid, fn in registry.items():
        registry[cid] = span(f"verify.check.{cid}", fn, check_seen, lambda args: tracer.enter_bundle(args[0]))
    cli.sweep = span("verify.sweep", cli.sweep)
    report = verify.SweepReport
    report.to_json_obj = span("verify.report_json", report.to_json_obj)
    report.to_csv = span("verify.report_csv", report.to_csv)

    character_init = characters.Character.__init__

    def counted_init(self, *args, **kwargs):
        character_init(self, *args, **kwargs)
        tracer.counts["characters.constructions"] += 1
        tracer.counts["characters.terms"] += len(self.coeffs)

    characters.Character.__init__ = counted_init
    return tracer
