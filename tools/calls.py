"""Exact call counts per layer: a revision against the working tree.

Usage, from the root of a checkout::

    python3 tools/calls.py [REV]

Wall time on a shared machine moves by a third from run to run; the number
of Python-level calls a command makes does not move at all.  This script
runs a fixed set of command lines (:func:`argv_set`) against the package of
REV (``HEAD`` by default), checked out with ``git archive`` into a
temporary directory, and against the package of the working tree.  Each
command line runs in a fresh ``python -S`` child with ``PYTHONHASHSEED=0``,
through ``cutchar.cli.main`` under cProfile, and writes its output to a
temporary file.  Only ``main`` is profiled; the import is not.

The calls of every function defined under that package's ``src/cutchar/``
are counted, generator resumptions included as cProfile counts them, and
grouped into layers by :data:`LAYERS`, a fixed map from module and
function name; a nested function or generator counts with the function it
is defined in, and a function the map does not name goes to
``<module>: other``, so the layers sum to the package total.  For each
command line and layer the table gives REV's count, the working tree's and
the difference, then the package total and cProfile's total of all calls,
the interpreter's own included.  Two runs print the same table.

A count misses work inside one call, such as one ``str.join`` over a
million terms, so it complements time; it does not replace it.

Exit status: 0 when every child ran and exited 0, 1 otherwise.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1  # the one seed of each benchmark workload
WORK = "{work}"  # stands for the run's temporary directory, so the printed argv do not change between runs

_CHARACTERS = "Character arithmetic"
_CLOSED = "closed forms"
_RECORDS = "records and parsing"
_SWEEP = "sweep"
_WRITERS = "writers"
_CLI = "CLI"

#: Module -> function or class name -> layer; a class name covers its methods.  Names since deleted
#: (``_line_cohomology``, ``_node_rank``, the oracles' ``_table``) stay, so that older revisions map
#: as the working tree does.  ``cech_cohomology_p1`` is the loop over blocks that both Cech routes run.
LAYERS = {
    "characters": {
        **dict.fromkeys(
            ("Character", "CharPoly", "NotDivisible", "_check_int", "_canonical", "_runs", "_as_character",
             "_as_charpoly"),
            _CHARACTERS,
        ),
        "morse_quotient": "morse_quotient",
        "_is_factorization": "morse_quotient",
    },
    "geometry": {
        **dict.fromkeys(
            ("cohomology", "cut", "mcut_cohomology", "CohomologyTable", "_line_cohomology", "_node_rank"), _CLOSED
        ),
        **dict.fromkeys(("LineWeights", "EquivBundleCP1", "CutDecomposition", "_parse_weight"), _RECORDS),
    },
    "verify": {
        "verify_gluing": "check gluing",
        "verify_cut_inequality": "check mcut",
        "verify_morse": "check morse",
        "verify_mv_morse": "check mv",
        "_morse_check": "check mcut, morse, mv: shared",
        "verify_simple": "check simple",
        "verify_semicontinuity": "check semicontinuity",
        "cross_validate": "check oracle",
        **dict.fromkeys(
            ("_tables", "run_check", "sweep", "_normalize_checks", "grid_bundles", "equality_region", "CheckResult",
             "SweepReport.passed", "SweepReport.summary", "SweepReport.equality_sets", "SweepReport.claimed_region"),
            _SWEEP,
        ),
        **dict.fromkeys(
            ("_write_json", "_csv_cell", "SweepReport.to_json_obj", "SweepReport._json_members",
             "SweepReport.to_json_text", "SweepReport.to_csv", "SweepReport.to_markdown"),
            _WRITERS,
        ),
    },
    "oracles": {
        "cech_cohomology_nodal": "oracle: nodal Cech",
        **dict.fromkeys(
            ("cech_cohomology_p1", "_table", "_block", "_row_rank"), "oracle: Cech blocks, both Cech routes"
        ),
        **dict.fromkeys(("localization_index", "_over_one_minus_u", "NonPolynomialResult"), "oracle: localization"),
    },
    "cli": {
        **dict.fromkeys(
            ("_parse_bundle", "_parse_range", "_parse_checks", "_is_str_list", "RunConfig", "_timestamp",
             "_cmd_cohomology", "_cmd_cut", "_cmd_verify", "_cmd_sweep", "_cmd_equality_region", "_arg", "_is_value",
             "_scan", "_build_parser", "main", "console_main"),
            _CLI,
        ),
        "_table": _WRITERS,
        "_write": _WRITERS,
    },
}

#: The order of the rows: the layers as the map first names them.
ORDER = list(dict.fromkeys(layer for names in LAYERS.values() for layer in names.values()))

# The child: profile cutchar.cli.main on ARG..., then write "count<TAB>module<TAB>qualname" for
# each package function it called and "total<TAB>n" for cProfile's total to RESULT.
_CHILD = """\
import cProfile, sys
src, result, *argv = sys.argv[1:]
sys.path.insert(0, src)
from cutchar.cli import main
profile = cProfile.Profile()
profile.enable()
status = main(argv)
profile.disable()
stats = profile.getstats()
package = src.rstrip("/") + "/cutchar/"
with open(result, "w", encoding="utf-8") as fh:
    for entry in stats:
        code = entry.code
        if not isinstance(code, str) and code.co_filename.startswith(package):
            name = getattr(code, "co_qualname", code.co_name)
            fh.write(f"{entry.callcount}\\t{code.co_filename[len(package):-3]}\\t{name}\\n")
    fh.write(f"total\\t{sum(entry.callcount for entry in stats)}\\n")
sys.exit(status)
"""


def argv_set() -> list[tuple[str, list[tuple[tuple[str, ...], tuple[str, dict] | None]]]]:
    """``(label, runs)`` per entry; each run is an argv and the config file it reads, if any."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    entries = []
    for name in workloads.NAMES:
        runs = [(inv.argv, inv.config) for inv in workloads.build(name, SEED, WORK)]
        entries.append((f"{name}, seed {SEED}, {len(runs)} run{'s' * (len(runs) > 1)}", runs))
    for argv in (
        ("cohomology", "1000000:0"),
        ("verify", "1000000:-1000000", "--checks", "oracle"),
        *(("verify", "1000:1000", "--checks", "morse", "--format", fmt) for fmt in ("json", "csv", "md")),
    ):
        entries.append((" ".join(argv), [(argv, None)]))
    return entries


def _layer(module: str, qualname: str) -> str:
    owner = qualname.partition(".<locals>")[0]
    names = LAYERS.get(module, {})
    return names.get(owner) or names.get(owner.partition(".")[0]) or f"{module}: other"


def _count(src: Path, runs) -> tuple[Counter, int, list[str]]:
    """Per-layer package calls and cProfile's total over ``runs`` against the package in ``src``, and any failures."""
    layers: Counter = Counter()
    total = 0
    failures = []
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
    for argv, config in runs:
        with tempfile.TemporaryDirectory(prefix="calls-") as work:
            argv = [arg.replace(WORK, work) for arg in argv]
            if config is not None:
                path, content = config
                Path(path.replace(WORK, work)).write_text(json.dumps(content), encoding="utf-8")
            result = Path(work, "counts.tsv")
            with open(Path(work, "stdout"), "wb") as out:
                proc = subprocess.run(
                    [sys.executable, "-S", "-c", _CHILD, str(src), str(result), *argv],
                    cwd=work, env=env, stdout=out, stderr=subprocess.PIPE, text=True,
                )
            if proc.returncode != 0 or not result.exists():
                failures.append(f"{' '.join(argv)}: exit {proc.returncode} {proc.stderr.strip()[-500:]}")
                continue
            for line in result.read_text(encoding="utf-8").splitlines():
                count, *where = line.split("\t")
                if count == "total":
                    total += int(where[0])
                else:
                    layers[_layer(*where)] += int(count)
    return layers, total, failures


def _checkout(rev: str, into: Path) -> Path:
    """Extract REV's ``src/cutchar`` under ``into`` and return its ``src``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src/cutchar"], cwd=ROOT, capture_output=True)
    if tar.returncode != 0:
        raise SystemExit(f"git archive {rev}: {tar.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    failures = []
    with tempfile.TemporaryDirectory(prefix="calls-rev-") as tmp:
        rev_src = _checkout(rev, Path(tmp))
        for label, runs in argv_set():
            before, before_total, failed = _count(rev_src, runs)
            after, after_total, failed_here = _count(ROOT / "src", runs)
            failures += failed + failed_here
            rows = [layer for layer in ORDER if before[layer] or after[layer]]
            rows += sorted((set(before) | set(after)) - set(ORDER))
            rows += ["package total", "cProfile total"]
            before["package total"], after["package total"] = before.total(), after.total()
            before["cProfile total"], after["cProfile total"] = before_total, after_total
            print(f"\n## {label}\n")
            print(f"| layer | {rev} | working tree | difference |\n| --- | ---: | ---: | ---: |")
            for layer in rows:
                print(f"| {layer} | {before[layer]:,} | {after[layer]:,} | {after[layer] - before[layer]:+,} |")
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
