import importlib
import pkgutil

import pytest

import kdvcrit

# __main__ runs the CLI on import, and declares no names
MODULES = ["kdvcrit"] + [
    f"kdvcrit.{m.name}" for m in pkgutil.iter_modules(kdvcrit.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
