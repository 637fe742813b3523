"""Run the benchmark over several seeds and record its baseline.

Usage, from the root of a checkout::

    python3 perfbench/record.py [--first-seed 1] [--out FILE]

Runs the benchmark's command as BENCHMARK.json gives it, ten times per
workload with seeds ``--first-seed``, ``--first-seed + 1``, ..., then twice
traced with the first seed.  For each end-to-end metric it prints the
median, the quartiles and the spread (the quartile distance as a share of
the median) next to the metric's bound.  It checks that the two traced runs
report identical count metrics.  With ``--out`` it writes all of this, the
input properties of each workload and the tracing overhead to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
MACHINE_NOTE = (
    "Shared virtual machine, 2 cores; single runs of the same command vary by up to about 30%, "
    "and single passes by up to 1.9x as the machine's speed drifts over seconds to minutes, "
    "so every figure is a median over passes and runs. The workloads are explained in workloads.py."
)
OVERHEAD_NOTE = (
    "trace_overhead_s is traced run_s minus plain run_s, a median over three pairs of neighbouring "
    "passes in each of two traced runs; it sits within the run-to-run noise, so only a large "
    "difference means anything."
)
RUNS = 10


def _run(bench: dict, name: str, seed: int, trace: int) -> dict:
    argv = [*bench["command"], "--workload", name, "--seed", str(seed)]
    argv += ["--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {k: m["value"] for k, m in result["metrics"].items()}


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    record = {
        "machine": {"python": sys.version.split()[0], "cores": os.cpu_count(), "note": MACHINE_NOTE},
        "trace_overhead_note": OVERHEAD_NOTE,
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for name in workloads.NAMES:
        runs = [_run(bench, name, seed, 0) for seed in seeds]
        metrics = {key: _quartiles([r[key] for r in runs]) for key in bounds}
        for key, q in metrics.items():
            print(
                f"{name:13} {key:13} median {q['median']:9.4f}  q1 {q['q1']:9.4f}  q3 {q['q3']:9.4f}"
                f"  spread {q['spread']:.3f} (bound {bounds[key]})",
                flush=True,
            )
        traced = [_run(bench, name, seeds[0], 1) for _ in range(2)]
        differ = [k for k, v in traced[0].items() if not k.endswith("_s") and traced[1][k] != v]
        if differ:
            raise SystemExit(f"{name}: traced counts differ between runs: {differ}")
        overhead = [t["trace.overhead_s"] for t in traced]
        print(f"{name:13} trace overhead {overhead} s; counts identical across two traced runs", flush=True)
        record["workloads"][name] = {
            "inputs": {"seed": seeds[0], **workloads.input_properties(workloads.build(name, seeds[0], "."))},
            "end_to_end": metrics,
            "trace_overhead_s": overhead,
            "traced": traced[0],
        }
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
