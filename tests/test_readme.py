"""README's fenced ``python`` blocks run as doctests, so the documented Library surface cannot drift.

``--doctest-modules`` reads only the package's own docstrings, and
``doctest.testfile`` would read a closing fence that follows an output line
as part of that output; so each block between its fences is parsed alone.
"""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_pass():
    text = README.read_text(encoding="utf-8")
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    report = []
    blocks = list(BLOCK.finditer(text))
    assert blocks
    for match in blocks:
        lineno = text.count("\n", 0, match.start(1))
        test = parser.get_doctest(match.group(1), {}, f"README.md:{lineno + 1}", str(README), lineno)
        assert test.examples, test.name
        runner.run(test, out=report.append)
    result = runner.summarize(verbose=False)
    assert result.failed == 0, "".join(report)
