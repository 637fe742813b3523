import json
import os
import subprocess
import sys
from pathlib import Path

import cutchar
from cutchar import characters, geometry, oracles, verify

MODULES = (characters, geometry, oracles, verify)


def test_package_exports_each_modules_names_once():
    # A name in two modules' lists would be shadowed by the later star import.
    assert len(cutchar.__all__) == len(set(cutchar.__all__))
    assert set(cutchar.__all__) == {name for m in MODULES for name in m.__all__} | {"__version__"}
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(cutchar, name) is obj, name
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_cli_start_up_loads_no_heavy_stdlib_modules(tmp_path):
    # Every CLI process pays for its imports; dataclasses pulls in inspect, and so ast, dis and
    # tokenize; argparse's first message pulls in gettext and locale; typing and json load re, enum,
    # functools and contextlib, which cost twice the rest of the package's start-up under -S.  A
    # plain command line is scanned without argparse or re, CSV is laid out without the csv module,
    # and json is imported only to read a config.  -S keeps the site hook from importing any of
    # these first, and the harness swaps sys.stdout itself, not through contextlib.
    src = Path(cutchar.__file__).resolve().parent.parent
    heavy = {"dataclasses", "inspect", "datetime", "argparse", "gettext", "locale", "csv"}
    heavy |= {"re", "typing", "json", "contextlib", "enum", "functools"}
    runs = [
        ["cohomology", "0:0", "--out", str(tmp_path / "out.json")],
        ["cut", "1:-1"],
        *(["verify", "1:0", "--format", fmt] for fmt in ("json", "csv", "md")),
        ["sweep", "--rp-range", "0..1", "--rq-range", "0..1"],
        ["equality-region", "--rp-range", "0..1", "--rq-range", "0..1"],
    ]
    code = (
        "import io, sys\n"
        "import cutchar.cli\n"
        f"for argv in {runs!r}:\n"
        "    stdout, sys.stdout = sys.stdout, io.StringIO()\n"
        "    status = cutchar.cli.main(argv)\n"
        "    sys.stdout = stdout\n"
        f"    print(status, sorted({sorted(heavy)!r} & sys.modules.keys()))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "0 []\n" * len(runs)
    assert (tmp_path / "out.json").read_text(encoding="utf-8").startswith('{\n  "h0": {\n    "0": 1\n')


def test_benchmark_tracer_binds_the_package_names_it_wraps():
    # perfbench/spans.py rebinds names of the package from outside: deleting one of them, such as
    # SweepReport.to_json_obj or to_csv, Character.__init__ or Character.coeffs, breaks the
    # benchmark's traced runs.  Its spans must install, and fire through main.
    root = Path(__file__).resolve().parent.parent
    code = (
        "import contextlib, io, json\n"
        "import cutchar.characters, cutchar.cli, cutchar.verify, spans\n"
        "tracer = spans.install(cutchar.cli, cutchar.verify, cutchar.characters)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cutchar.cli.main(['verify', '1:0']) == 0\n"
        "    assert cutchar.cli.main(['sweep', '--rp-range', '0..1', '--rq-range', '-1..0', '--format', 'csv']) == 0\n"
        "cutchar.characters.Character({0: 2, 1: 1})\n"
        "print(json.dumps(tracer.snapshot()))\n"
    )
    src = Path(cutchar.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(root / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    trace = json.loads(proc.stdout)
    assert trace["calls"]["verify.sweep"] == 2
    assert trace["calls"]["verify.report_csv"] == 1
    assert trace["calls"]["verify.check.oracle"] == 5
    assert trace["counts"]["characters.terms"] >= 2
