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
    # tokenize; argparse's first message pulls in gettext and locale.  A plain command line is
    # scanned without argparse.  -S keeps the site hook from importing any of these first.
    src = Path(cutchar.__file__).resolve().parent.parent
    heavy = {"dataclasses", "inspect", "datetime", "argparse", "gettext", "locale"}
    code = (
        "import contextlib, io, sys\n"
        "import cutchar.cli\n"
        f"assert cutchar.cli.main(['cohomology', '0:0', '--out', {str(tmp_path / 'out.json')!r}]) == 0\n"
        f"loaded = {sorted(heavy)!r}\n"
        "print(sorted(set(loaded) & set(sys.modules)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cutchar.cli.main(['verify', '1:0']) == 0\n"
        "print(sorted(set(loaded) & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n[]\n"
    assert (tmp_path / "out.json").read_text(encoding="utf-8").startswith('{\n  "h0": {\n    "0": 1\n')
