"""Every name the benchmark's tracer wraps still exists in kdvcrit.

The tracer (perfbench/tracer.py) patches functions by (module, attribute);
a renamed or deleted one would break traced benchmark runs without failing
any library test, so the bindings are checked here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist_in_kdvcrit():
    tracer = _load_tracer()
    home = {name: importlib.import_module(f"{tracer.PACKAGE}.{name}") for name in tracer.MODULES}
    traced = {}
    for mod, attr in tracer.FUNCTIONS:
        assert callable(getattr(home[mod], attr, None)), f"{mod}.{attr}"
        traced[f"{mod}.{attr}"] = getattr(home[mod], attr)
    for mod, cls, attr, name in tracer.METHODS:
        assert callable(vars(getattr(home[mod], cls)).get(attr)), f"{mod}.{cls}.{attr}"
        traced[name] = vars(getattr(home[mod], cls))[attr]
    assert callable(home["pde"].sparse_linalg.splu)
    # the argument counted as "points" is still a positional parameter
    for name, index in tracer._POINTS_ARG.items():
        assert len(inspect.signature(traced[name]).parameters) > index, name
