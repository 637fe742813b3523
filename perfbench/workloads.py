"""The benchmark's workloads: their inputs, and checks of the CLI's outputs.

Each workload is a list of cutchar invocations that one client runs one
after another.  The inputs come from the workload seed alone, and every
output is checked here without calling the code under test:

* exit status 0;
* one result per (bundle, check) in the order given, each passed;
* the ``morse`` and ``mcut`` equality sets match the map pinned on the
  acceptance grid: the ``morse`` set of a line is exactly
  {r_P <= -1, r_Q >= 1}, and the ``mcut`` set fails only on
  {r_P >= 1, r_Q >= 2} | {r_P <= -2, r_Q <= -1}.  Every Morse-type witness
  is a sum over the summands of a bundle, so with all summands passing a
  bundle is in a set exactly when each of its summands is.

Why each workload was chosen:

* ``grid-sweep``: the rank-one grid [-20, 20]^2 in one ``sweep`` with all
  seven checks and JSON output, the grid traffic of the acceptance gate.
  Each plus side (r_P, 0) recurs 41 times, so a per-bundle context or a
  memo of line-summand cohomology shows here.  Weights are small, so span
  arithmetic should barely move it.  The grid is fixed; the seed does not
  change it.
* ``wide-verify``: one ``verify`` per bundle over large weights (|r| from
  10^3 to 10^5, ranks 1 to 3, both r_Q <= r_P and r_Q > r_P, node rank 0
  and 1), every check but ``oracle``.  The dense characters and closed
  forms dominate and the output is small, so span arithmetic shows here.
  Each bundle has a process of its own, so a memo across bundles cannot
  hit; the checks of one bundle still recompute its summands' cohomology
  about ten times over, which a per-bundle context would save.  ``oracle``
  is left out because its cost grows faster than |r| and would swamp the
  rest.
* ``mixed-config``: one ``sweep --config`` over 120 random bundles of rank
  1 to 4 with weights in [-150, 150], all checks, CSV output.  The oracle's
  row reduction dominates and plus sides repeat little, so memoization hits
  little; config loading and CSV take another path through ``cli`` and
  serialization than ``grid-sweep``.

The seed of ``wide-verify`` and ``mixed-config`` reorders the summands and
mirrors each with probability 1/2 by (r_P, r_Q) -> (-r_Q, -r_P), which
swaps the roles of P and Q.  The mirror keeps the degree, the node rank,
the section counts and both equality sets, so every seed asks for the same
amount of work and the spread between seeds measures the program, not the
draw.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass

CHECKS = ("gluing", "mcut", "morse", "mv", "simple", "semicontinuity", "oracle")
NO_ORACLE = CHECKS[:-1]
MORSE_IDS = ("mcut", "morse", "mv")
NAMES = ("grid-sweep", "wide-verify", "mixed-config")

# Large-weight bundles for wide-verify, weights in units of 1000.  The
# list covers r_Q <= r_P and r_Q > r_P, node rank 1 (r_P >= 0 or r_Q <= 0)
# and node rank 0, and ranks 1 to 3.
WIDE_BUNDLES = (
    ((100, 0),),
    ((-1, 20),),
    ((3, -3), (-2, 2)),
    ((5, -5), (-1, 4), (2, 1)),
    ((1, -1),),
)

Bundle = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Invocation:
    """One cutchar run and what its output must be."""

    argv: tuple[str, ...]
    out: str | None  # file the CLI writes; None means stdout
    fmt: str  # "json" or "csv"
    bundles: tuple[Bundle, ...]
    checks: tuple[str, ...]
    config: tuple[str, dict] | None = None  # (path, content) written first


def literal(bundle: Bundle) -> str:
    return ",".join(f"{p}:{q}" for p, q in bundle)


def in_morse_set(bundle: Bundle) -> bool:
    return all(p <= -1 and q >= 1 for p, q in bundle)


def in_mcut_set(bundle: Bundle) -> bool:
    return not any((p >= 1 and q >= 2) or (p <= -2 and q <= -1) for p, q in bundle)


EXPECTED_SETS = {"morse": in_morse_set, "mcut": in_mcut_set}


def _mirror_and_shuffle(rng: random.Random, bundles: list[Bundle]) -> list[Bundle]:
    """Reorder the summands and mirror each with probability 1/2."""
    summands = [s for b in bundles for s in b]
    rng.shuffle(summands)
    summands = [(-q, -p) if rng.random() < 0.5 else (p, q) for p, q in summands]
    ranks = [len(b) for b in bundles]
    rng.shuffle(ranks)
    it = iter(summands)
    return [tuple(next(it) for _ in range(r)) for r in ranks]


def _mixed_population(count: int, bound: int) -> list[Bundle]:
    """Fixed draw: ``count`` bundles, equal numbers of rank 1 to 4."""
    rng = random.Random("mixed-config")
    return [
        tuple((rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(rank))
        for rank in [1, 2, 3, 4] * (count // 4)
    ]


def build(name: str, seed: int, work: str, small: bool = False) -> list[Invocation]:
    """The invocations of one pass of workload ``name``.

    ``small`` shrinks every workload to a quick version of itself, for the
    self-test.  ``work`` is the directory for files the CLI reads or writes.
    """
    rng = random.Random(seed)
    if name == "grid-sweep":
        r = 3 if small else 20
        out = f"{work}/grid.json"
        grid = tuple(((p, q),) for p in range(-r, r + 1) for q in range(-r, r + 1))
        argv = ("sweep", "--rp-range", f"{-r}..{r}", "--rq-range", f"{-r}..{r}", "--out", out)
        return [Invocation(argv, out, "json", grid, CHECKS)]
    if name == "wide-verify":
        unit = 10 if small else 1000
        bundles = [tuple((p * unit, q * unit) for p, q in b) for b in WIDE_BUNDLES]
        # Mirror within each bundle only, so the list keeps its ranks.
        bundles = [_mirror_and_shuffle(rng, [b])[0] for b in bundles]
        rng.shuffle(bundles)
        return [
            Invocation(("verify", literal(b), "--checks", ",".join(NO_ORACLE)), None, "json", (b,), NO_ORACLE)
            for b in bundles
        ]
    if name == "mixed-config":
        population = _mixed_population(8, 15) if small else _mixed_population(120, 150)
        bundles = tuple(_mirror_and_shuffle(rng, population))
        config_path, out = f"{work}/run.json", f"{work}/mixed.csv"
        config = {"bundles": [literal(b) for b in bundles], "checks": list(CHECKS)}
        argv = ("sweep", "--config", config_path, "--format", "csv", "--out", out)
        return [Invocation(argv, out, "csv", bundles, CHECKS, (config_path, config))]
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


def input_properties(invocations: list[Invocation]) -> dict:
    """Properties of a pass's inputs that optimizations depend on."""
    bundles = [b for inv in invocations for b in inv.bundles]
    summands = [s for b in bundles for s in b]
    return {
        "bundles": len(bundles),
        "summands": len(summands),
        "max_abs_weight": max(abs(w) for s in summands for w in s),
        "plus_distinct_share": round(len({p for p, _ in summands}) / len(summands), 4),
        "minus_distinct_share": round(len({q for _, q in summands}) / len(summands), 4),
    }


def check_output(inv: Invocation, returncode: int, data: bytes) -> str | None:
    """Why the output of ``inv`` is wrong, or None when it is right."""
    if returncode != 0:
        return f"exit status {returncode}"
    try:
        text = data.decode("utf-8")
        rows = _json_rows(text, inv) if inv.fmt == "json" else _csv_rows(text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"bad {inv.fmt} output: {exc}"
    expected = [(literal(b), cid) for b in inv.bundles for cid in inv.checks]
    got = [(lit, cid) for lit, cid, _, _ in rows]
    if got != expected:
        return f"{len(got)} results do not match the {len(expected)} (bundle, check) pairs asked for"
    for (lit, cid, passed, zero), (bundle, _) in zip(rows, ((b, c) for b in inv.bundles for c in inv.checks)):
        if not passed:
            return f"check {cid} failed on {lit}"
        if cid in EXPECTED_SETS and zero != EXPECTED_SETS[cid](bundle):
            return f"{cid} witness on {lit} is {'zero' if zero else 'nonzero'}, against the equality map"
    return None


def _json_rows(text: str, inv: Invocation) -> list[tuple[str, str, bool, bool]]:
    report = json.loads(text)
    literals = [literal(b) for b in inv.bundles]
    if report["grid"] != literals:
        raise ValueError("grid differs from the bundles asked for")
    rows = [
        (r["bundle"], r["check_id"], r["passed"] is True, r["witness"] == [])
        for row in report["results"]
        for r in row
    ]
    summary = {cid: {"passed": len(literals), "failed": 0} for cid in inv.checks}
    if report["summary"] != summary:
        raise ValueError(f"summary {report['summary']} is not all passed")
    sets = report["equality_sets"]
    if list(sets) != [cid for cid in inv.checks if cid in MORSE_IDS]:
        raise ValueError(f"equality sets for {list(sets)}")
    for cid, member in EXPECTED_SETS.items():
        if cid in sets and sets[cid] != [literal(b) for b in inv.bundles if member(b)]:
            raise ValueError(f"{cid} equality set differs from the equality map")
    return rows


def _csv_rows(text: str) -> list[tuple[str, str, bool, bool]]:
    reader = csv.reader(io.StringIO(text))
    if next(reader) != ["r_P", "r_Q", "check_id", "passed", "witness"]:
        raise ValueError("bad CSV header")
    rows = []
    for rp, rq, cid, passed, witness in reader:
        lit = ",".join(f"{p}:{q}" for p, q in zip(rp.split(";"), rq.split(";")))
        rows.append((lit, cid, passed == "true", witness == "[]"))
    return rows
