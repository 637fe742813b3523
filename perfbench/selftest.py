"""Quick self-test of the benchmark, on shrunken versions of its workloads.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it runs the plain and the traced path and checks that
each metric named in BENCHMARK.json is emitted with its unit and that all
outputs pass.  It then gives the checks a deliberately wrong expectation,
once in the (bundle, check) pairs and once in the equality map, and
requires both to raise the failed share.  Last, it runs the benchmark in a
directory holding only BENCHMARK.json and the benchmark, where it must fail
without printing a result.  Exit status 0 means every test passed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run
import workloads

ROOT = run.HERE.parent


def _shift_first_bundle(invocations):
    inv = invocations[0]
    (p, q), *rest = inv.bundles[0]
    wrong = ((p + 1, q), *rest)
    return [dataclasses.replace(inv, bundles=(wrong, *inv.bundles[1:])), *invocations[1:]]


def _check_metrics(result: dict, specs: list[dict]) -> list[str]:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {spec["name"]: spec["unit"] for spec in specs}
    return [f"metrics {got} do not match {want}"] if got != want else []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors: list[str] = []
    for name in workloads.NAMES:
        for trace, specs in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            result = run.measure(name, 1, 0, trace, small=True)
            if not result["correct"] or result["failed"]:
                errors.append(f"{name} trace={int(trace)}: outputs failed the checks")
            errors += [f"{name} trace={int(trace)}: {e}" for e in _check_metrics(result, specs)]
        result = run.measure(name, 1, 0, False, small=True, tamper=_shift_first_bundle)
        if result["correct"] or result["failed"] == 0:
            errors.append(f"{name}: a wrong expected bundle left failed_share at 0")
        member = workloads.EXPECTED_SETS["morse"]
        workloads.EXPECTED_SETS["morse"] = lambda bundle: not member(bundle)
        try:
            result = run.measure(name, 1, 0, False, small=True)
        finally:
            workloads.EXPECTED_SETS["morse"] = member
        if result["correct"] or result["failed"] == 0:
            errors.append(f"{name}: a wrong equality map left failed_share at 0")
    errors += _bare_checkout_fails()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


def _bare_checkout_fails() -> list[str]:
    bare = run.WORK / "bare"
    shutil.rmtree(run.WORK, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns(".*", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        command = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["command"]
        argv = [*command, "--workload", workloads.NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, timeout=180)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"a checkout without the program exited {proc.returncode} with output {proc.stdout!r}"]
    return []


if __name__ == "__main__":
    sys.exit(main())
