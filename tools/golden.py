"""Print the golden-output table of ``tests/test_golden.py`` from the current code.

Usage, from the root of a checkout::

    python3 tools/golden.py

Runs the argv of every row of ``GOLDEN`` again, each in a fresh temporary
directory as the test does, and prints the ``GOLDEN = [...]`` assignment
that the test file holds; paste it over the old one.  To add a row, add its
argv to the table with any placeholder values first.  A row whose values
change is a behaviour change, to be recorded in ``CHANGES.md`` with its
reason.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_golden  # noqa: E402


def main() -> int:
    print("GOLDEN = [")
    for old in test_golden.GOLDEN:
        with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
            argv, status, stderr, stdout, out = test_golden.run(old[0], Path(tmp))
        print(f"    (\n        {json.dumps(argv)},\n        {status},\n        {json.dumps(stderr)},")
        print(f"        ({stdout[0]}, {json.dumps(stdout[1])}),")
        print(f"        {'None' if out is None else f'({out[0]}, {json.dumps(out[1])})'},\n    ),")
    print("]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
