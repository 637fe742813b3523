"""Golden outputs: the exact bytes, exit status and stderr of command lines.

Each row of ``GOLDEN`` runs one argv in process through :func:`cutchar.cli.main`
and holds what it did: the exit status, the exact stderr, and the length and
SHA-256 of stdout and of the file the command wrote, if any.  These are
characterization tests: the table was printed from the code, and pins what
the code does.  A row that changes is a behaviour change, to be recorded in
``CHANGES.md`` with its reason.

``{tmp}`` in an argv, in a config below or in stderr stands for the test's
temporary directory.  The configs are written there before each row, and a
command's output file goes to ``{tmp}/out/``.  ``{long}`` in an argv or in
stderr stands for :data:`LONG`, a 5000-digit weight.  A generation time
written by ``--timestamps`` is masked before hashing, keeping its length.

``python3 tools/golden.py`` prints the table from the current code.  To add
a row, add its argv with any placeholder values and regenerate.
"""

import hashlib
import io
import json
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

from cutchar.cli import main

TMP = "{tmp}"

#: A canonical weight literal of more digits than int() converts by default (4300).
LONG, LONG_MARK = "1" * 5000, "{long}"

_STAMP = re.compile(rb"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")


def _mixed_bundles(seed: int = 77, count: int = 120, bound: int = 150) -> list[str]:
    """``count`` random bundles, equal numbers of rank 1 to 4, weights in [-bound, bound]."""
    rng = random.Random(seed)
    return [
        ",".join(f"{rng.randint(-bound, bound)}:{rng.randint(-bound, bound)}" for _ in range(rank))
        for rank in [1, 2, 3, 4] * (count // 4)
    ]


CONFIGS = {
    "mixed.json": {"bundles": _mixed_bundles()},
    "grid-fail-fast.json": {
        "grid": {"rp_range": "-2..2", "rq_range": "-1..3"},
        "checks": ["gluing", "simple"],
        "fail_fast": True,
    },
    "no-checks.json": {"bundles": ["0:0"], "checks": []},
    "output.json": {
        "grid": {"rp_range": "0..2", "rq_range": "-1..1"},
        "checks": ["mcut", "morse"],
        "output": {"path": f"{TMP}/out/report.md", "format": "md"},
    },
    "nul-output.json": {"bundles": ["1:-1"], "output": {"path": "a\u0000b"}},
    "long-range.json": {"grid": {"rp_range": f"0..{LONG}", "rq_range": "0..0"}},
    "bad-bundle.json": {"bundles": ["01:0"]},
}


def _digest(data: bytes) -> tuple[int, str]:
    return len(data), hashlib.sha256(_STAMP.sub(b"YYYY-MM-DDTHH:MM:SSZ", data)).hexdigest()


def run(argv: list[str], tmp) -> tuple:
    """The row of ``argv``, run in process with ``{tmp}`` standing for the directory ``tmp``."""
    (tmp / "out").mkdir()
    for name, obj in CONFIGS.items():
        (tmp / name).write_text(json.dumps(obj).replace(TMP, str(tmp)), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    # argparse wraps its usage lines to the terminal width, read from COLUMNS first.
    with redirect_stdout(stdout), redirect_stderr(stderr), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            status = main([arg.replace(TMP, str(tmp)).replace(LONG_MARK, LONG) for arg in argv])
        except SystemExit as exc:
            status = exc.code
    written = list((tmp / "out").iterdir())
    assert len(written) <= 1, written
    out = _digest(written[0].read_bytes()) if written else None
    stderr = stderr.getvalue().replace(str(tmp), TMP).replace(LONG, LONG_MARK)
    return argv, status, stderr, _digest(stdout.getvalue().encode()), out


# (argv, exit status, stderr, (stdout length, stdout SHA-256), the same for the output file or None)
GOLDEN = [
    (
        ["sweep", "--rp-range", "-20..20", "--rq-range", "-20..20"],
        0,
        "",
        (2778250, "beedd233925270191e709d379c177ec8e101df220119756f7922b7cda6137d2f"),
        None,
    ),
    (
        ["sweep", "--rp-range", "-20..20", "--rq-range", "-20..20", "--fail-fast"],
        0,
        "",
        (2778250, "beedd233925270191e709d379c177ec8e101df220119756f7922b7cda6137d2f"),
        None,
    ),
    (
        ["sweep", "--rp-range", "-10..10", "--rq-range", "-10..10", "--format", "md"],
        0,
        "",
        (4140, "aaf15555fb10904627520ba620a689d7994f2967726872723249df06dc90082d"),
        None,
    ),
    (
        ["sweep", "--config", "{tmp}/mixed.json", "--format", "csv"],
        0,
        "",
        (383497, "f13d3c7f4f19e975eb8db72fe64ad83f54ed62c1c7b6f1be8f5694c46b11e87f"),
        None,
    ),
    (
        ["sweep", "--config", "{tmp}/mixed.json", "--format", "csv", "--out", "{tmp}/out/mixed.csv"],
        0,
        "",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (383497, "f13d3c7f4f19e975eb8db72fe64ad83f54ed62c1c7b6f1be8f5694c46b11e87f"),
    ),
    (
        ["sweep", "--config", "{tmp}/grid-fail-fast.json"],
        0,
        "",
        (10138, "2c9f8ebd2d8db9b74d006507493a89a5f6facd86f474c6cef1c57ea1401c8285"),
        None,
    ),
    (
        ["sweep", "--config", "{tmp}/no-checks.json"],
        2,
        "error: config '{tmp}/no-checks.json': no checks selected\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["sweep", "--config", "{tmp}/no-checks.json", "--format", "md"],
        2,
        "error: config '{tmp}/no-checks.json': no checks selected\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["sweep", "--config", "{tmp}/output.json"],
        0,
        "",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (279, "c99bb2bff04b17113c9c50bcf39ff083374b8d760119e961bb43eacbd06759e4"),
    ),
    (
        ["sweep", "--config", "{tmp}/output.json", "--format", "json", "--out", "{tmp}/out/flags.json"],
        0,
        "",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (3605, "db66ee0dd01ff630b95d693e1c8023a9479f0db0c969eeeb167259007db3d824"),
    ),
    (
        ["sweep", "--config", "{tmp}/nul-output.json"],
        2,
        "error: cannot write 'a\\x00b': embedded null byte\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["verify", "1:-1,2:2,-3:5"],
        0,
        "",
        (2074, "02a5a202c50039453308354246a1f74325df0559d89f17a760fb28db53f47d34"),
        None,
    ),
    (
        ["verify", "1500:-1500,-1000:1000"],
        0,
        "",
        (1965, "171f49b883e393a8601342a5e00eb4f5462709f176be5c110059b2b15f4a7fc8"),
        None,
    ),
    (
        ["verify", "7:-9,-4:4,0:0,3:12", "--checks", "oracle", "--format", "md"],
        0,
        "",
        (247, "3c31d10fdc2d3191b4f9fed634c71e500869c321d77e73b1e74d3e9392d394cc"),
        None,
    ),
    (
        ["verify", "2:2,-1:3", "--format", "csv"],
        0,
        "",
        (296, "9c1bbd28bf4f29baba0180d5003f94db1ca7a5664f923e9a52e687fc6db0e6ab"),
        None,
    ),
    (
        ["verify", "-1:3", "--checks", " gluing , simple,oracle"],
        0,
        "",
        (723, "38954b34482ff6b5302e0852d812bd55c804919ffb86cac552a955475add8ec7"),
        None,
    ),
    (
        ["verify", "1:0", "--checks", "nope"],
        2,
        "error: unknown check id 'nope'; known: gluing, mcut, morse, mv, simple, semicontinuity, oracle, all\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["verify", "1:0", "--checks", "nope", "--out", "{tmp}/out/nope.json"],
        2,
        "error: unknown check id 'nope'; known: gluing, mcut, morse, mv, simple, semicontinuity, oracle, all\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["equality-region", "--rp-range", "-3..3", "--rq-range", "-3..3"],
        0,
        "",
        (772, "4701a10a008b886b6513e88cc482c4dd29fe0bb1e9522994bbdb389c0f022d76"),
        None,
    ),
    (
        ["equality-region", "--rp-range", "-3..3", "--rq-range", "-3..3", "--format", "json"],
        0,
        "",
        (19431, "dc8ba302ee0db7dc2c3ef2b0559d83aa060205d831655e362f7d67ae0405f90b"),
        None,
    ),
    (
        ["equality-region", "--rp-range", "-3..3", "--rq-range", "-3..3", "--format", "csv"],
        0,
        "",
        (2579, "750298226df211d88c6111fa3269c9a8780796ee4287a4ad498789e8c93257d0"),
        None,
    ),
    (
        ["cohomology", "5:2,1:-1"],
        0,
        "",
        (124, "da7045ca49341f7980b5e4986d7bf942f7f838ff9e40f626da759dbcd85531ef"),
        None,
    ),
    (
        ["cohomology", "1_0:0"],
        2,
        "error: bad summand '1_0:0': weights must match 0|-?[1-9][0-9]*\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["cohomology", "-3:4", "--out", "{tmp}/out/h.json"],
        0,
        "",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (113, "7997564317a61ae408315b38d29b830aa66c7667fee687ffa58a7da8a9ebd469"),
    ),
    (
        ["cut", "1:-1,2:2,-3:5"],
        0,
        "",
        (633, "75f83438d2d78986914fcc25ae33923e0241a60e70ac5dfacd765ce4981c9d03"),
        None,
    ),
    (
        ["cut", "1:-1", "--out", "{tmp}/missing/cut.json"],
        2,
        "error: cannot write '{tmp}/missing/cut.json': [Errno 2] No such file or directory: '{tmp}/missing/cut.json'\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["sweep", "--rp-range", "0..1", "--rq-range", "0..1", "--out", "{tmp}/missing/sweep.json"],
        2,
        "error: cannot write '{tmp}/missing/sweep.json': [Errno 2] No such file or directory: '{tmp}/missing/sweep.json'\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["sweep", "--rp-range", "1..0", "--rq-range", "0..0"],
        2,
        "error: bad range '1..0': 1 > 0\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["sweep", "--rp-range", "0..1"],
        2,
        "error: --rp-range and --rq-range go together\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["sweep"],
        2,
        "error: no bundles: give --rp-range/--rq-range or --config\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["sweep", "--rp-range", "0..1", "--rq-range", "0..1", "--checks", ""],
        2,
        "error: no checks selected\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["verify"],
        2,
        "usage: cutchar verify [-h] [--out PATH] [--timestamps] [--checks CHECKS]\n                      [--format {json,csv,md}]\n                      bundle\ncutchar verify: error: the following arguments are required: bundle\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["sweep", "--rp-range", "0..1", "--rq-range", "0..1", "--format", "xml"],
        2,
        "usage: cutchar sweep [-h] [--out PATH] [--timestamps] [--rp-range A..B]\n                     [--rq-range A..B] [--checks CHECKS]\n                     [--format {json,csv,md}] [--fail-fast] [--config PATH]\ncutchar sweep: error: argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'md')\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["cohomology", "2:0", "--timestamps"],
        0,
        "",
        (117, "efba8a8a1164ed15b0b26374f90a9788be3118ed505b05170b92db633e3b5ccb"),
        None,
    ),
    (
        ["cut", "2:-1", "--timestamps"],
        0,
        "",
        (451, "e8fa8abd9afa9d6eb43ad500bac890bbd2a98d57457153eaf058574a57488f48"),
        None,
    ),
    (
        ["verify", "2:2", "--timestamps"],
        0,
        "",
        (2036, "3a59ca2afee62fb3411039e2028b3ac5167d4667ef99e329c564236d37df2987"),
        None,
    ),
    (
        ["sweep", "--rp-range", "-1..1", "--rq-range", "-1..1", "--timestamps"],
        0,
        "",
        (11727, "d5a56adc2b816dd18039873fb76553aff6845a677327c01a15da661b315cb1e0"),
        None,
    ),
    (
        ["equality-region", "--rp-range", "-2..2", "--rq-range", "-2..2", "--format", "json", "--timestamps"],
        0,
        "",
        (9904, "ddbf1ba5dfc3b1382cc415b21ca3e805ad07b66b7ce0714586f56f27257ddea1"),
        None,
    ),
    (
        ["verify", "2:2", "--format", "md", "--timestamps"],
        0,
        "",
        (695, "486ff91df28b17cc7b64548fb088fa1edad51b190f1ef6528c378d3dc74518e2"),
        None,
    ),
    (
        ["verify", "2:2", "--format", "csv", "--timestamps"],
        0,
        "",
        (261, "a148d1acdeac98cff7c70cc94f85b06f7000fdf17d08d694dd6ad8787163781a"),
        None,
    ),
    (
        ["cohomology", "100000:0"],
        0,
        "",
        (1588946, "602fa548f155610015b2b7dcf49a3e11acd872b08fb806ae9bc4a8517c286035"),
        None,
    ),
    (
        ["cut", "30000:-30000"],
        0,
        "",
        (2175915, "2d267e4beb4a3f7344b1639cf1a632506619dbaae4ccdc3da7d5cef4d315e9a3"),
        None,
    ),
    (
        ["cut", "-10000:8193", "--out", "{tmp}/out/cut.json"],
        0,
        "",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (634373, "7a72f247b57c094deddfa7d83e15b6fa792e4020af445eb6735c9ac195bb689c"),
    ),
    (
        ["sweep", "--config", "{tmp}/mixed.json", "--rp-range", "", "--rq-range", ""],
        2,
        "error: bad range '': expected A..B\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["sweep", "--config", "", "--rp-range", "0..0", "--rq-range", "0..0"],
        2,
        "error: cannot read config '': [Errno 2] No such file or directory: ''\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["sweep", "--rp-range", "", "--rq-range", ""],
        2,
        "error: bad range '': expected A..B\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["cohomology", "01:0"],
        2,
        "error: bad summand '01:0': weights must match 0|-?[1-9][0-9]*\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["verify", "-0:1"],
        2,
        "error: bad summand '-0:1': weights must match 0|-?[1-9][0-9]*\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["sweep", "--rp-range", "00..1", "--rq-range", "0..0"],
        2,
        "error: bad range '00..1': endpoints must match 0|-?[1-9][0-9]*\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["verify", "{long}:0"],
        2,
        "error: bad summand '{long}:0': weights must have at most 4300 digits\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["sweep", "--rp-range", "0..{long}", "--rq-range", "0..0"],
        2,
        "error: bad range '0..{long}': endpoints must have at most 4300 digits\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["sweep", "--config", "{tmp}/long-range.json"],
        2,
        "error: config '{tmp}/long-range.json': bad range '0..{long}': endpoints must have at most 4300 digits\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["sweep", "--config", "{tmp}/bad-bundle.json"],
        2,
        "error: config '{tmp}/bad-bundle.json': bad summand '01:0': weights must match 0|-?[1-9][0-9]*\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["verify", "1:0", "--checks", "all,gluing"],
        2,
        "error: 'all' must stand alone as the whole --checks value\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["verify", "1:0", "--checks", "all"],
        0,
        "",
        (1803, "2eb56acf933ba5daecf354285623948fbdd04e003d85ec6289e6070c7bd8159c"),
        None,
    ),
    (
        ["verify", "1:0", "--checks", " all"],
        0,
        "",
        (1803, "2eb56acf933ba5daecf354285623948fbdd04e003d85ec6289e6070c7bd8159c"),
        None,
    ),
    (
        ["verify", "1:0", "--checks", "all "],
        0,
        "",
        (1803, "2eb56acf933ba5daecf354285623948fbdd04e003d85ec6289e6070c7bd8159c"),
        None,
    ),
    (
        [],
        2,
        "usage: cutchar [-h] {cohomology,cut,verify,sweep,equality-region} ...\ncutchar: error: the following arguments are required: command\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["bogus"],
        2,
        "usage: cutchar [-h] {cohomology,cut,verify,sweep,equality-region} ...\ncutchar: error: argument command: invalid choice: 'bogus' (choose from 'cohomology', 'cut', 'verify', 'sweep', 'equality-region')\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["--"],
        2,
        "usage: cutchar [-h] {cohomology,cut,verify,sweep,equality-region} ...\ncutchar: error: the following arguments are required: command\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["verify", "1:0", "extra"],
        2,
        "usage: cutchar [-h] {cohomology,cut,verify,sweep,equality-region} ...\ncutchar: error: unrecognized arguments: extra\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["--help"],
        0,
        "",
        (642, "105fc572b180bcd0fd4a27e367e4f2675154439cea64c4d3923f3eb1e5407923"),
        None,
    ),
    (
        ["verify", "--help"],
        0,
        "",
        (613, "1318135bbe31528bc4002f262fa8759f4c1ba5eab7cedc754280e60da2595b7f"),
        None,
    ),
    (
        ["sweep", "-h"],
        0,
        "",
        (808, "37206d3e71d0dca92701c4110d399de7758d93127307ac0723a411e25e9929a7"),
        None,
    ),
    (
        ["verify", "1:0", "--chec", "gluing"],
        0,
        "",
        (309, "888ce61bf80b3493b2042701d2e36f9e6ea4f07f0031eb3725fe76980bf379e1"),
        None,
    ),
    (
        ["cohomology", "0:0", "--out", ""],
        2,
        "error: cannot write '': [Errno 2] No such file or directory: ''\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["verify", "--checks", "gluing", "1:0"],
        0,
        "",
        (309, "888ce61bf80b3493b2042701d2e36f9e6ea4f07f0031eb3725fe76980bf379e1"),
        None,
    ),
    (
        ["verify", "1:0", "--checks", "gluing", "--checks", "mcut"],
        0,
        "",
        (338, "108d974a690c608d194ae1ee313e704aea6a42c055c32990e62c7f06e3157f93"),
        None,
    ),
    (
        ["verify", "1:0", "--out={tmp}/out/eq.json"],
        0,
        "",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (1803, "2eb56acf933ba5daecf354285623948fbdd04e003d85ec6289e6070c7bd8159c"),
    ),
    (
        ["sweep", "--rp-range=-1..1", "--rq-range", "-1..0"],
        0,
        "",
        (8093, "ac8fab349efc8cb163a4b4551c1e280990cabf58d6e8c38aeeb270e380471459"),
        None,
    ),
    (
        ["verify", "--", "1:0"],
        0,
        "",
        (1803, "2eb56acf933ba5daecf354285623948fbdd04e003d85ec6289e6070c7bd8159c"),
        None,
    ),
    (
        ["verify", "1:0", "--checks", "-x"],
        2,
        "usage: cutchar verify [-h] [--out PATH] [--timestamps] [--checks CHECKS]\n                      [--format {json,csv,md}]\n                      bundle\ncutchar verify: error: argument --checks: expected one argument\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
    (
        ["verify", "1:0", "--format"],
        2,
        "usage: cutchar verify [-h] [--out PATH] [--timestamps] [--checks CHECKS]\n                      [--format {json,csv,md}]\n                      bundle\ncutchar verify: error: argument --format: expected one argument\n",
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        None,
    ),
]


@pytest.mark.parametrize("row", GOLDEN, ids=lambda row: " ".join(row[0]))
def test_golden_output(row, tmp_path):
    assert run(row[0], tmp_path) == row
