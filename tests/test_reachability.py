"""Every function of the package runs for some command, or says why not.

The golden command lines run in process under ``sys.setprofile``, and every
function defined under ``src/cutchar/`` must be called by one of them:
plain functions, methods, properties, classmethods and class-attribute
lambdas, found in the modules' namespaces and keyed by ``__qualname__``.  A
comprehension, generator, lambda or function nested in one counts with the
function it is defined in.  Class bodies, and ``cli._arg``, run at import.
What no command calls is on :data:`ALLOWED`, each entry with its reason, and
the allowlist is exactly what the commands leave unreached: a name the
commands start to call, or a name deleted, must leave it too.
"""

import sys
import types
from pathlib import Path

import cutchar
from cutchar import characters, cli, geometry, oracles, verify
from test_golden import GOLDEN, run

MODULES = (characters, geometry, oracles, verify, cli)

#: Rows 0-4 are the two [-20,20]^2 sweeps, the [-10,10]^2 Markdown sweep and the two 120-bundle CSV
#: runs; the rest reach the same functions in a fraction of the time.
ROWS = GOLDEN[5:]

ALLOWED = {
    "cli._arg": "runs at import, to declare every command's arguments in _COMMANDS",
    "cli.console_main": "the [project.scripts] entry point; it calls main, which the rows run",
    "verify.run_check": "README's Library block runs it (tests/test_readme.py)",
    "verify.SweepReport.to_json_obj": "perfbench/spans.py binds it to time the JSON writer (ROADMAP item 3)",
    "characters.Character.coeffs": "perfbench/spans.py binds it to count dense terms (ROADMAP item 3)",
    "verify.SweepReport.to_json_text": "the JSON text that to_json_obj reads back",
    "characters.Character.__hash__": "the records are namedtuples and hash as tuples of their fields",
    "characters.CharPoly.__hash__": "the records are namedtuples and hash as tuples of their fields",
    "characters.CharPoly.__eq__": "the equality CharPoly's docstring promises, which __hash__ pairs with",
    "characters.Character.__repr__": "README's Library block shows it",
    "characters.CharPoly.__repr__": "README's Library block shows it",
    "geometry.EquivBundleCP1.<lambda>": "_make, which validates as the constructor does; namedtuple's own skips __new__",
    "geometry.CutDecomposition.<lambda>": "_make, which validates as the constructor does; namedtuple's own skips __new__",
    "characters.NotDivisible.__init__": (
        "fault-only: no consistent table leaves a remainder; "
        "tests/test_verify.py::TestFailurePaths::test_morse_check_not_divisible reaches it"
    ),
}


def _functions(module) -> dict[str, types.FunctionType]:
    """``"module.qualname"`` -> each function defined in ``module``'s own namespace or its classes'."""
    found = {}

    def add(obj):
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if isinstance(obj, property):
            for f in (obj.fget, obj.fset, obj.fdel):
                add(f)
        elif isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            key = f"{module.__name__.rpartition('.')[2]}.{obj.__qualname__}"
            assert found.setdefault(key, obj) is obj, key  # an alias such as __radd__ is the same function

    for obj in vars(module).values():
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            for attr in vars(obj).values():
                add(attr)
        else:
            add(obj)
    return found


def _owners(functions) -> dict[types.CodeType, str]:
    """Each code object of ``functions``, nested ones included, -> the key of the function it is in."""
    owner = {}
    for key, func in functions.items():
        stack = [func.__code__]
        while stack:
            code = stack.pop()
            owner[code] = key
            stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return owner


def _called(rows, tmp_path) -> set[types.CodeType]:
    """The code objects under the package that ``rows`` call, run as the golden test runs them."""
    package = str(Path(cutchar.__file__).parent)
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            seen.add(frame.f_code)

    for i, row in enumerate(rows):
        tmp = tmp_path / str(i)
        tmp.mkdir()
        sys.setprofile(profile)
        try:
            got = run(row[0], tmp)
        finally:
            sys.setprofile(None)
        assert got[:2] == row[:2], row[0]
    return seen


def test_every_function_is_called_or_allowed(tmp_path):
    functions = {key: f for module in MODULES for key, f in _functions(module).items()}
    assert set(ALLOWED) <= set(functions), sorted(set(ALLOWED) - set(functions))
    owner = _owners(functions)
    called = _called(ROWS, tmp_path)
    # Every called code object is a function found above, or nested in one: none is missed.
    loose = {c.co_qualname if hasattr(c, "co_qualname") else c.co_name for c in called if c not in owner}
    assert not loose, sorted(loose)
    unreached = set(functions) - {owner[c] for c in called}
    assert not unreached - set(ALLOWED), f"no command calls {sorted(unreached - set(ALLOWED))}"
    assert not set(ALLOWED) - unreached, f"allowed, but a command calls {sorted(set(ALLOWED) - unreached)}"
