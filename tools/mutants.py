"""Mutation check of the tier-1 tests: each mutant below must fail a test.

Usage, from the root of a checkout::

    python3 tools/mutants.py [NAME ...]

A mutant replaces one exact piece of a file under ``src/cutchar/``, most
often one line, by another.  For each mutant (or only those named) the
script copies ``src``, ``tests``, ``perfbench`` and ``pyproject.toml`` to a
temporary directory and applies the mutant there; the checkout itself is
never edited.  It then runs ``python -m pytest -x -q`` on the copy, first
on the test files that cover the mutated module (:data:`COVERING`), and on
the whole suite only if those pass.  A mutant is killed when pytest fails,
and survives when the whole suite passes, so the first stage changes how
soon a verdict comes, never which.  Every run draws hypothesis's examples
from one fixed seed (:data:`HYPOTHESIS_SEED`), so a rerun gives the same
verdicts and names the same first failing tests, and skips the shrink phase
(the ``mutants`` profile of ``tests/conftest.py``): a verdict needs a failing
example, not the smallest one.  The tests themselves, run without the tool,
keep their fresh draws and their shrinking.  Two mutants run at a time, each
in its own copy, and the report lists them in table order.

Equivalent mutants change no behaviour any input can show, so no test can
kill them; they carry the reason, are run like the others, and are
reported as expected survivors.  An equivalent mutant that a test kills is
reported too, because its reason no longer holds.

Exit status: 0 when every mutant has the expected outcome, 1 when some
mutant survives unexplained or an equivalent one is killed, 2 when a
mutant's text is not found exactly once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900
WORKERS = 2
HYPOTHESIS_SEED = 0


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/cutchar
    old: str  # must occur exactly once in the file
    new: str
    equivalent: str | None = None  # why no test can kill it


MUTANTS = [
    # The five survivors of an earlier mutation run, each now killed.
    Mutant("plus-node-weight-sign", "geometry.py", "if s.r_q != 0:", "if s.r_q > 0:"),
    Mutant("minus-node-weight-sign", "geometry.py", "if s.r_p != 0:", "if s.r_p > 0:"),
    Mutant(
        "localization-from-cech",
        "verify.py",
        "(t.m_index, localization_index(t.bundle))",
        "(t.m_index, cech.h0 - cech.h1)",
    ),
    Mutant(
        "config-fail-fast-ignored",
        "cli.py",
        "fail_fast = args.fail_fast if args.fail_fast is not None else bool(config.fail_fast)",
        "fail_fast = bool(args.fail_fast)",
    ),
    # The one exit-status line, mutated so that every report exits 0.
    Mutant(
        "equality-region-exits-0",
        "cli.py",
        "return 1 if isinstance(result, SweepReport) and not result.passed else 0",
        "return 0",
    ),
    Mutant(
        "check-ids-not-stripped",
        "cli.py",
        'ids = tuple(piece.strip() for piece in text.split(","))',
        'ids = tuple(text.split(","))',
    ),
    # The one JSON writer and the timestamp it places.  No mutant targets
    # reading a report: no command reads one back, so the package has no
    # loader, and tests/test_golden.py pins the writer's exact bytes.
    Mutant("writer-pad-step", "verify.py", 'inner = pad + "  "', 'inner = pad + " "'),
    Mutant(
        "stamp-first",
        "cli.py",
        'members["generated_at"] = _timestamp()',
        'members = {"generated_at": _timestamp(), **members}',
    ),
    Mutant("empty-container-as-list", "verify.py", "        write(brackets)\n", '        write("[]")\n'),
    Mutant(
        "empty-character-as-list",
        "verify.py",
        'write(f"\\n{pad}}}" if opened else "{}")',
        'write(f"\\n{pad}}}" if opened else "[]")',
    ),
    Mutant(
        "passed-always-true",
        "verify.py",
        '{"true" if r.passed else "false"}',
        '{"true" if r.passed is not None else "false"}',
    ),
    Mutant(
        "scalars-as-python",
        "verify.py",
        'write("null" if value is None else "true" if value else "false")',
        "write(str(value))",
    ),
    Mutant(
        "quoted-literal-reused-across-rows",
        "verify.py",
        'at, bundle = inner + "  ", _quote(value[0].bundle.literal())',
        'at, bundle = inner + "  ", _write_json.__dict__.setdefault("q", _quote(value[0].bundle.literal()))',
    ),
    Mutant(
        "character-separator",
        "verify.py",
        """sep = f'": {q},\\n{inner}"'""",
        """sep = f'":{q},\\n{inner}"'""",
    ),
    # A run longer than one piece of the writer repeats the term at each cut.
    Mutant(
        "run-chunk-off-by-one",
        "verify.py",
        "min(start + _RUN_CHUNK, hi)",
        "min(start + _RUN_CHUNK + 1, hi)",
    ),
    # The CSV witness cell is compact JSON, written run by run, quoted with its quotes doubled;
    # a zero witness is a bare [] and a missing one an empty cell.
    Mutant("csv-cell-separator", "verify.py", """f'"":{q},""'""", """f'"": {q},""'"""),
    Mutant(
        "csv-quotes-not-doubled",
        "verify.py",
        """'""' + f'"":{q},""'.join(map(str, range(lo, hi))) + f'"":{q}'""",
        """'"' + f'":{q},"'.join(map(str, range(lo, hi))) + f'":{q}'""",
    ),
    Mutant(
        "csv-zero-witness-quoted",
        "verify.py",
        'return "" if poly is None else "[]"',
        """return "" if poly is None else '"[]"'""",
    ),
    Mutant("csv-missing-witness-as-zero", "verify.py", 'return "" if poly is None else "[]"', 'return "[]"'),
    # A failed write to stdout exits 2.
    Mutant("output-not-flushed", "cli.py", "                dest.flush()\n", "                pass\n"),
    Mutant(
        "write-error-uncaught",
        "cli.py",
        "except OSError as exc:  # the work itself does no I/O",
        "except ValueError as exc:  # the work itself does no I/O",
    ),
    # The closed forms as their formulas: each line's span, and the cut space glued from its two
    # whole sides with delta node fibers hit, which the P/Q mirror also constrains.
    Mutant("node-rank-plus-strict", "geometry.py", "if ps.r_p >= 0 or ms.r_q <= 0", "if ps.r_p > 0 or ms.r_q <= 0"),
    Mutant("cohomology-branch-strict", "geometry.py", "if s.r_q <= s.r_p:", "if s.r_q < s.r_p:"),
    Mutant("h1-span-one-early", "geometry.py", "Character.span(s.r_p + 1, s.r_q - 1)", "Character.span(s.r_p, s.r_q - 1)"),
    Mutant("node-h1-count-as-delta", "geometry.py", "len(cutd.plus.summands) - delta", "delta"),
    # The closed form hands back its two side tables in order, as the nodal route does: plus, then minus.
    Mutant("mcut-sides-swapped", "geometry.py", "return glued, plus, minus", "return glued, minus, plus"),
    # The Morse self-check compares p_m with r_m + q_m + q_{m-1}.
    Mutant("factorization-unshifted", "characters.py", "(ZERO, *q._coeffs)", "q._coeffs"),
    # Localization as -u N of every summand, divided twice by 1 - u.
    Mutant(
        "localization-rp-shift",
        "oracles.py",
        "((r_p + 1, -1), (r_p + 2, 1),",
        "((r_p, -1), (r_p + 1, 1),",
    ),
    Mutant("localization-rq-sign", "oracles.py", "(r_q + 1, -1), (r_q, 1))", "(r_q + 1, -1), (r_q, -1))"),
    Mutant(
        "localization-first-summand-only",
        "oracles.py",
        "for r_p, r_q in bundle.summands:",
        "for r_p, r_q in bundle.summands[:1]:",
    ),
    # The Cech route sums the tables of every line of the bundle.
    Mutant("cech-first-line-only", "oracles.py", "for line in bundle.summands:", "for line in bundle.summands[:1]:"),
    Mutant(
        "localization-remainder-unchecked",
        "oracles.py",
        "    if ch.dim():\n",
        "    if False:\n",
    ),
    # A u^0 multiple hashes as the int it equals.
    Mutant(
        "u0-hash-as-jumps",
        "characters.py",
        "return hash(c) if self == c else hash(tuple(self._jumps.items()))",
        "return hash(tuple(self._jumps.items()))",
    ),
    # + and - share one body, which takes the sign.
    Mutant("plus-minus-sign-ignored", "characters.py", "get(k, 0) + sign * q", "get(k, 0) + q"),
    # span and monomial write their jumps as they are canonical, with no _canonical pass to mend them.
    Mutant(
        "span-end-jump-one-short",
        "characters.py",
        "new._jumps = {lo: 1, hi + 1: -1} if lo <= hi else {}",
        "new._jumps = {lo: 1, hi: -1} if lo <= hi else {}",
    ),
    # The same span built densely, term by term: right, but linear in the range, so only the exact
    # call counts of tests/test_characters.py::TestCostClass tell it apart, before any wide draw.
    Mutant(
        "span-built-densely",
        "characters.py",
        "new._jumps = {lo: 1, hi + 1: -1} if lo <= hi else {}",
        "new._jumps = cls((m, 1) for m in range(lo, hi + 1))._jumps",
    ),
    Mutant(
        "monomial-keeps-zero-multiplicity",
        "characters.py",
        "new._jumps = {weight: mult, weight + 1: -mult} if mult else {}",
        "new._jumps = {weight: mult, weight + 1: -mult}",
    ),
    # The --checks flag and a config's checks list share one validator; each adds its own context,
    # and every error in a config's entries names the config.
    Mutant(
        "config-check-prefix-dropped",
        "cli.py",
        'raise _UsageError(f"config {path!r}: {exc}") from None',
        "raise _UsageError(str(exc)) from None",
    ),
    # A weight is accepted only in the one spelling the writer writes back.
    Mutant("weight-grammar-widened", "geometry.py", ' and digits[0] != "0"', ""),
    Mutant("weight-digits-not-ascii", "geometry.py", "digits.isascii() and digits.isdigit()", "digits.isdigit()"),
    # An empty flag value is parsed, and refused, like any other.
    Mutant(
        "empty-config-flag-dropped",
        "cli.py",
        "RunConfig.load(args.config) if args.config is not None else RunConfig()",
        "RunConfig.load(args.config) if args.config else RunConfig()",
    ),
    Mutant(
        "empty-range-flags-dropped",
        "cli.py",
        "args.rp_range is not None else None\n    rq = _parse_range(args.rq_range) if args.rq_range is not None",
        "args.rp_range else None\n    rq = _parse_range(args.rq_range) if args.rq_range",
    ),
    # A verdict that reads a position's value, through dim(), which no check calls: right for small
    # weights, wrong past 10^9, where only tests/test_verify.py::TestUnboundedWeights draws.
    Mutant(
        "verdict-reads-dim",
        "verify.py",
        "return CheckResult(check_id, bundle, q.is_nonneg(), witness=q)",
        "return CheckResult(check_id, bundle, q.is_nonneg() and all(c.dim() < 10**9 for c in q.coeffs), witness=q)",
    ),
    # Each bundle's checks read that bundle's own closed-form pass.
    Mutant("pass-from-first-bundle", "verify.py", "t = _tables(bundle)", "t = _tables(grid[0])"),
    # Each line's runs close inside its window, so a short window trips the closing assert.
    Mutant(
        "oracle-window-one-short",
        "oracles.py",
        "max(r_p, r_q) + 2)",
        "max(r_p, r_q) + 1)",
    ),
    # Records are NamedTuples: _make, and so _replace, must still run the constructor's checks.
    Mutant(
        "bundle-make-skips-checks",
        "geometry.py",
        "return super().__new__(cls, summands)\n\n    _make =",
        "return super().__new__(cls, summands)\n\n    _unused =",
    ),
    Mutant(
        "cut-make-skips-checks",
        "geometry.py",
        "return super().__new__(cls, plus, minus)\n\n    _make =",
        "return super().__new__(cls, plus, minus)\n\n    _unused =",
    ),
    # The node term reads both sides' weight-0 blocks.  Deciding it from the weights gives the
    # same ranks, as the closed form does, so only the exact block count in test_oracles.py kills it.
    Mutant(
        "node-term-from-weights",
        "oracles.py",
        "d_plus, d_minus = (len(row) - _row_rank(row) for row in (_block(ps, 0), _block(ms, 0)))",
        "d_plus, d_minus = int(ps.r_p >= 0 or ms.r_q <= 0), 0",
    ),
    Mutant(
        "node-term-minus-side-dropped",
        "oracles.py",
        "rank = 1 if d_plus + d_minus > 0 else 0",
        "rank = 1 if d_plus > 0 else 0",
    ),
    # The nodal route hands back its two side tables in order: plus, then minus.
    Mutant("nodal-sides-swapped", "oracles.py", "return glued, plus, minus", "return glued, minus, plus"),
    # The generation time is UTC whatever the local zone.
    Mutant("stamp-in-local-time", "cli.py", "time.gmtime()", "time.localtime()"),
    # A library caller's report object is the written text read back: plain dicts and lists.
    Mutant(
        "report-obj-not-read-back",
        "verify.py",
        "return json.loads(self.to_json_text())",
        "return self._json_members()",
    ),
    # The scanner takes a plain argv, and must leave every other to argparse.  Each is killed by
    # tests/test_cli.py::TestScan (test_leaves_to_argparse, or test_agrees_on_golden_rows for the last).
    Mutant(
        "scan-choices-unchecked",
        "cli.py",
        ' or value not in spec.get("choices", (value,)):',
        ":",
    ),
    Mutant("scan-dash-led-value-taken", "cli.py", "if not _is_value(value) or value", "if value"),
    Mutant("scan-missing-value-taken", "cli.py", 'value = next(tokens, "-")', 'value = next(tokens, "")'),
    Mutant(
        "scan-required-range-unchecked",
        "cli.py",
        "if positionals or any(values[dest] is None for dest in required):",
        "if positionals:",
    ),
    Mutant("scan-positional-unchecked", "cli.py", "if positionals or any(", "if any("),
    Mutant(
        "scan-negative-weight-left-to-argparse",
        "cli.py",
        'return token[:1] != "-" or token[1:2].isdecimal()',
        'return token[:1] != "-"',
    ),
    # A dash-led token is a value when argparse's ^-\d matches it: \d is a decimal digit, which "²" is not.
    Mutant("scan-negative-weight-any-digit", "cli.py", "token[1:2].isdecimal()", "token[1:2].isdigit()"),
]


#: The test files that cover each module, the one that most often kills its mutants first.
COVERING = {
    "characters.py": ("test_characters.py", "test_character_model.py", "test_properties.py"),
    "geometry.py": ("test_geometry.py", "test_records.py", "test_golden.py"),
    "oracles.py": ("test_oracles.py", "test_faults.py"),
    "verify.py": ("test_golden.py", "test_verify.py", "test_faults.py"),
    "cli.py": ("test_golden.py", "test_cli.py"),
}


def _mutated(mutant: Mutant) -> str:
    """The text of the mutant's file with the mutant applied."""
    text = (ROOT / "src" / "cutchar" / mutant.path).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise LookupError(f"{mutant.name}: text found {count} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def _pytest(work: Path, files: list[str]) -> tuple[bool, str]:
    """Whether ``pytest -x`` fails on ``files`` of the copy (all when empty), and the first failing test's line."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    hypothesis = [f"--hypothesis-seed={HYPOTHESIS_SEED}", "--hypothesis-profile=mutants"]
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *hypothesis, *files]
    try:
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True, f"timed out after {TIMEOUT_S} s"
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    last = (proc.stdout.strip().splitlines() or proc.stderr.strip().splitlines() or [""])[-1]
    return proc.returncode != 0, failed[0] if failed else last


def _killed(mutant: Mutant) -> tuple[bool, str, float]:
    """Whether the tests fail with ``mutant`` applied, the first failing test's line, and the seconds taken.

    The covering files run first, then the whole suite if they pass.
    """
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for tree in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / tree, work / tree, ignore=shutil.ignore_patterns("__pycache__", ".work"))
        shutil.copy(ROOT / "pyproject.toml", work)
        (work / "src" / "cutchar" / mutant.path).write_text(_mutated(mutant), encoding="utf-8")
        killed, detail = _pytest(work, [f"tests/{name}" for name in COVERING[mutant.path]])
        if not killed:
            killed, detail = _pytest(work, [])
    return killed, detail, time.monotonic() - start


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    try:  # every mutant must apply before any runs
        for m in chosen:
            _mutated(m)
    except LookupError as exc:
        print(exc, file=sys.stderr)
        return 2
    unexpected = []
    with ThreadPoolExecutor(WORKERS) as pool:
        # map hands back the outcomes in table order, each as soon as it and those before it are in.
        for m, (killed, detail, seconds) in zip(chosen, pool.map(_killed, chosen)):
            if killed:
                outcome = "KILLED (equivalent?)" if m.equivalent else "killed"
            else:
                outcome = "survived (equivalent)" if m.equivalent else "SURVIVED"
            if killed == bool(m.equivalent):
                unexpected.append(m.name)
            print(f"{outcome:22} {m.name:36} {seconds:6.1f} s  {detail}", flush=True)
    equivalent = [m for m in chosen if m.equivalent]
    print(f"\n{len(chosen)} mutants, {len(unexpected)} unexpected outcomes")
    for m in equivalent:
        print(f"equivalent: {m.name}: {m.equivalent}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
