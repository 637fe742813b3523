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
