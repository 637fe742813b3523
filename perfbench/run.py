"""Benchmark of the cutchar command line, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Traffic model: a user runs one CLI invocation per process, so every
invocation runs ``cutchar.cli.main`` in a fresh child interpreter
(``child.py``), and any cache inside the program starts empty each time.
One client runs a workload's invocations one after another (a closed loop),
which keeps the load within two cores.  A pass is one run of all of a
workload's invocations; passes repeat until ``--seconds`` have gone by, and
every output of every pass is checked (``workloads.check_output``) and must
be byte-identical to the first pass's.

With ``--trace 0`` the last line of stdout reports, as medians over passes:

* ``run_s``: seconds spent in ``main`` over one pass (interpreter start and
  import excluded);
* ``setup_s``: wall seconds for a fresh interpreter to import ``cutchar.cli``
  and run the smallest invocation, a median over spawns made before every
  pass;
* ``peak_rss_mib``: the largest peak resident set of any child in a pass.

With ``--trace 1`` it runs three plain and three traced passes, alternating,
and reports the per-layer metrics of ``spans.py``, summed over a pass: the
time metrics as medians over the traced passes, the count metrics, which
must agree exactly between them, and ``trace.overhead_s``, the median over
the pairs of a traced pass and the plain pass before it of traced ``run_s``
minus plain ``run_s``.  Machine noise moves single passes by a third and
more, so on a workload with few spans the overhead is within the noise and
may read below zero.

``attempted`` counts invocations and ``failed`` those whose output was
wrong; the exit status is 1 when any was, and 2 without a result when the
checkout has no ``src/cutchar`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_ARGV = ("cohomology", "0:0", "--out", str(WORK / "setup.json"))
SETUP_SPAWNS = 8  # before each pass, so set-up is sampled across the run
DEADLINE_S = 170  # a run ends within 180 s even when a child hangs
MIN_PASSES = 2
TRACED_PASSES = 3


@dataclass
class Pass:
    run_s: float = 0.0
    peak_kib: int = 0
    output_bytes: int = 0
    digests: list[str] = field(default_factory=list)
    problems: list[str | None] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    total_ns: Counter = field(default_factory=Counter)
    covered_ns: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)


def _spawn(mode: str, argv, deadline: float) -> tuple[int, bytes, bytes, dict | None]:
    """Run one invocation in a child; return (status, stdout, stderr, report).

    The child is killed at ``deadline`` (a ``time.perf_counter`` value).
    """
    stats = WORK / "stats.json"
    stats.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONOPTIMIZE", "PYTHONPATH")}
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(stats), str(SRC), *argv]
    with subprocess.Popen(cmd, cwd=WORK, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            out, err = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += b"\nkilled at the run's deadline"
    report = json.loads(stats.read_text(encoding="utf-8")) if stats.exists() else None
    return proc.returncode, out, err, report


def _run_pass(invocations, mode: str, deadline: float) -> Pass:
    p = Pass()
    for inv in invocations:
        if inv.config is not None:
            path, content = inv.config
            Path(path).write_text(json.dumps(content), encoding="utf-8")
        if inv.out is not None:
            Path(inv.out).unlink(missing_ok=True)
        rc, out, err, report = _spawn(mode, inv.argv, deadline)
        if inv.out is not None:
            out = Path(inv.out).read_bytes() if Path(inv.out).exists() else b""
        problem = workloads.check_output(inv, rc, out)
        if report is None:
            problem = problem or "the child wrote no report"
        else:
            p.run_s += report["main_s"]
            p.peak_kib = max(p.peak_kib, report["maxrss_kib"])
            for key, value in report.get("trace", {}).items():
                getattr(p, key).update(value)
        if problem is not None:
            tail = err.decode("utf-8", "replace").strip().splitlines()[-1:]
            print(f"FAIL {' '.join(inv.argv)}: {problem} {' '.join(tail)}", file=sys.stderr)
        p.problems.append(problem)
        p.output_bytes += len(out)
        p.digests.append(hashlib.sha256(out).hexdigest())
    return p


def _setup_times(deadline: float) -> list[float]:
    """Wall times of fresh interpreters importing and running the CLI."""
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        rc, _, err, _ = _spawn("plain", SETUP_ARGV, deadline)
        times.append(time.perf_counter() - start)
        if rc != 0:
            raise RuntimeError(f"set-up invocation failed: {err.decode('utf-8', 'replace')}")
    return times


def layer_metrics(p: Pass) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Times are inclusive of child spans except the ``self_s`` ones.  The
    end-to-end metric each should move, and where:

    * ``characters.*``: ``run_s`` and ``peak_rss_mib`` on wide-verify,
      ``run_s`` on grid-sweep;
    * ``geometry.*``: ``run_s`` on grid-sweep, where about two thirds of a
      bundle's summands repeat an earlier bundle's, and not on mixed-config,
      where few do; ``geometry.side_repeat_share`` is the share of a bundle's distinct
      line summands that an earlier bundle in the same process had already
      handed to a closed form (what a memo across bundles could save), and
      ``geometry.bundle_recompute_share`` the share of summands handed over
      that the same bundle had handed over before (what a per-bundle context
      could save);
    * ``oracles.*``: ``run_s`` on mixed-config and grid-sweep;
    * ``verify.check.*``, ``verify.sweep_self_s``, ``verify.failed_checks``:
      ``run_s`` on grid-sweep; ``verify.report_json_s`` on grid-sweep and
      ``verify.report_csv_s`` on mixed-config;
    * ``cli.*``: ``run_s`` on every workload.
    """

    def s(span):
        return p.total_ns[span] / 1e9

    def self_s(span):
        return (p.total_ns[span] - p.covered_ns[span]) / 1e9

    oracles = ("oracles.cech_p1", "oracles.cech_nodal", "oracles.localization")
    m = {
        "characters.constructions": (p.counts["characters.constructions"], "count"),
        "characters.terms": (p.counts["characters.terms"], "count"),
        "characters.morse_quotient_calls": (p.calls["characters.morse_quotient"], "count"),
        "characters.morse_quotient_s": (s("characters.morse_quotient"), "s"),
        "geometry.cohomology_calls": (p.calls["geometry.cohomology"], "count"),
        "geometry.cohomology_s": (s("geometry.cohomology"), "s"),
        "geometry.cut_s": (s("geometry.cut"), "s"),
        "geometry.mcut_cohomology_s": (s("geometry.mcut_cohomology"), "s"),
        "geometry.side_repeat_share": (
            p.counts["geometry.side_repeats"] / max(1, p.counts["geometry.sides"]),
            "ratio",
        ),
        "geometry.bundle_recompute_share": (
            p.counts["geometry.bundle_recomputes"] / max(1, p.counts["geometry.handed"]),
            "ratio",
        ),
        "oracles.cech_p1_s": (s("oracles.cech_p1"), "s"),
        "oracles.cech_nodal_s": (s("oracles.cech_nodal"), "s"),
        "oracles.localization_s": (s("oracles.localization"), "s"),
        "oracles.calls": (sum(p.calls[o] for o in oracles), "count"),
    }
    for cid in workloads.CHECKS:
        m[f"verify.check.{cid}_s"] = (s(f"verify.check.{cid}"), "s")
        m[f"verify.check.{cid}_calls"] = (p.calls[f"verify.check.{cid}"], "count")
    m["verify.sweep_self_s"] = (self_s("verify.sweep"), "s")
    m["verify.failed_checks"] = (p.counts["verify.failed_checks"], "count")
    m["verify.report_json_s"] = (s("verify.report_json"), "s")
    m["verify.report_csv_s"] = (s("verify.report_csv"), "s")
    m["cli.self_s"] = (self_s("cli.main"), "s")
    m["cli.output_bytes"] = (p.output_bytes, "bytes")
    return m


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool = False, tamper=None) -> dict:
    """Run workload ``name`` and return the result object the benchmark prints.

    ``small`` and ``tamper`` serve the self-test: ``tamper`` maps the list
    of invocations to the one whose expectations are checked.
    """
    deadline = time.perf_counter() + DEADLINE_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    invocations = workloads.build(name, seed, str(WORK), small)
    if tamper is not None:
        invocations = tamper(invocations)
    _spawn("plain", SETUP_ARGV, deadline)  # writes the bytecode caches
    problems: list[str] = []
    if trace:
        # Plain and traced passes alternate, so drift in machine speed
        # shifts both sides of the overhead alike.
        passes = [
            _run_pass(invocations, mode, deadline)
            for _ in range(TRACED_PASSES)
            for mode in ("plain", "trace")
        ]
        plain, traced = passes[0::2], passes[1::2]
        per_pass = [layer_metrics(p) for p in traced]
        metrics = {}
        for key, (value, unit) in per_pass[0].items():
            values = [pm[key][0] for pm in per_pass]
            if unit == "s":
                value = statistics.median(values)
            elif len(set(values)) != 1:
                problems.append(f"count {key} differs between traced passes: {values}")
            metrics[key] = (value, unit)
        overhead = statistics.median(t.run_s - p.run_s for p, t in zip(plain, traced))
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        setup: list[float] = []
        passes = []
        start = time.perf_counter()
        while time.perf_counter() < deadline and (
            len(passes) < MIN_PASSES or time.perf_counter() - start < seconds
        ):
            setup += _setup_times(deadline)
            passes.append(_run_pass(invocations, "plain", deadline))
        metrics = {
            "run_s": (statistics.median(p.run_s for p in passes), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mib": (statistics.median(p.peak_kib for p in passes) / 1024, "MiB"),
        }
    failed = 0
    for p in passes:
        for problem, digest, first in zip(p.problems, p.digests, passes[0].digests):
            if problem is None and digest != first:
                problem = "output bytes differ from the first pass"
                print(f"FAIL {problem}", file=sys.stderr)
            failed += problem is not None
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    attempted = sum(len(p.problems) for p in passes)
    shutil.rmtree(WORK, ignore_errors=True)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cutchar" / "cli.py").is_file():
        print(f"error: no cutchar package under {SRC}", file=sys.stderr)
        return 2
    if sys.flags.optimize:
        print("error: run without -O; it strips the program's assert self-checks", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
