"""The public surface: what the CLI and the benchmark call, and its input contract.

The public functions are exactly those that src/kdvcrit/cli.py or
perfbench/workloads.py call as ``module.name``, plus the PENDING names; each
public callable has a row of bad calls in BAD_INPUT, every one of which must
raise a KdvCritError subclass (a warning fails through pytest's
filterwarnings = error).
"""

import ast
import importlib
import inspect
import math
import pkgutil
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import kdvcrit
from kdvcrit import kernel, numbertheory, pde, spectral, synthesis, unreachable
from kdvcrit.errors import KdvCritError

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kdvcrit"
CALLERS = (SRC / "cli.py", ROOT / "perfbench" / "workloads.py")

# public functions that wait on a production caller
PENDING = {
    "kernel.intB_closed",  # ROADMAP direction 4
    "spectral.paley_wiener_check",  # ROADMAP direction 4
    "synthesis.fractional_norm",  # ROADMAP direction 9
}

# __main__ runs the CLI on import, and declares no names
MODULES = ["kdvcrit"] + [
    f"kdvcrit.{m.name}" for m in pkgutil.iter_modules(kdvcrit.__path__) if m.name != "__main__"
]


def _module(ref: str):
    return importlib.import_module(f"kdvcrit.{ref.split('.')[0]}")


def _resolve(ref: str):
    return getattr(_module(ref), ref.split(".")[1])


def _caller_references() -> set[str]:
    """``module.name`` references of the callers to kdvcrit modules; private names skipped."""
    refs = set()
    for path in CALLERS:
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> kdvcrit module name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("kdvcrit", None):
                modules.update({a.asname or a.name: a.name for a in node.names})
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not node.attr.startswith("_")
            ):
                refs.add(f"{modules[node.value.id]}.{node.attr}")
    return refs


def _public_functions() -> set[str]:
    out = set()
    for name in MODULES[1:]:  # the package itself exports modules only
        module = importlib.import_module(name)
        short = name.split(".")[1]
        names = getattr(module, "__all__", ())
        out |= {f"{short}.{n}" for n in names if inspect.isfunction(getattr(module, n))}
    return out


def _surface() -> set[str]:
    """Every public callable: the functions and classes the callers call, plus PENDING."""
    return {ref for ref in _caller_references() if callable(_resolve(ref))} | PENDING


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_public_functions_are_what_the_callers_call():
    refs = _caller_references()
    called = {ref for ref in refs if inspect.isfunction(_resolve(ref))}
    assert _public_functions() == called | PENDING
    outside = [ref for ref in refs if ref.split(".")[1] not in _module(ref).__all__]
    assert not outside, f"the callers reach past __all__: {outside}"


def test_library_never_imports_the_tests():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            else:
                continue
            heads = {n.split(".")[0] for n in names}
            assert not heads & {"oracles", "tests"}, f"{path.name} imports {names}"


# ---------------------------------------------------------------------------
# bad-input table
# ---------------------------------------------------------------------------

P21 = numbertheory.CriticalPair(2, 1)
ETA = unreachable.eta_triple(P21)
GRID = pde.Grid(L=1.0, nx=8, T=1.0, nt=10)
SPEC = synthesis.make_spec(P21, 1.0)
X = np.linspace(0.0, 1.0, 5)
U = np.zeros(GRID.nt + 1)
Y = np.zeros(GRID.nx + 2)
SIGNAL = np.ones(16)

# bad values of each kind of argument
POSITIVE = (math.nan, math.inf, 0.0, -1.0)
ARRAY = (np.full(3, math.nan), np.array([0.0, math.inf]), np.array([]))
OBJECT = (3, (2, 1))


def bad_ints(low):
    return (2.5, True, math.nan, low - 1, -1)


# public callable: (callable, a good call's arguments, bad values of each argument);
# each bad call replaces one argument of the good call
BAD_INPUT = {
    "numbertheory.CriticalPair": (
        numbertheory.CriticalPair, {"k": 2, "l": 1}, {"k": bad_ints(1), "l": bad_ints(1) + (3,)}
    ),
    "numbertheory.enumerate_pairs": (numbertheory.enumerate_pairs, {"k_max": 3}, {"k_max": bad_ints(1)}),
    "numbertheory.representations": (
        numbertheory.representations, {"N": 7}, {"N": bad_ints(1) + (9.0, 2)}
    ),
    "spectral.roots": (spectral.roots, {"z": 1.0}, {"z": (math.nan, math.inf, complex(0.0, math.nan))}),
    "spectral.asymptotic_roots": (
        spectral.asymptotic_roots,
        {"z": 1e3, "order": 3, "p": 0.2, "shifted": True},
        {"z": ARRAY + (0.0, -1.0), "order": bad_ints(1) + (4,), "p": (math.nan, math.inf)},
    ),
    "spectral.frame": (spectral.frame, {"z": 1.0, "L": 3.0}, {"z": (math.nan, math.inf), "L": POSITIVE}),
    "spectral.paley_wiener_check": (
        spectral.paley_wiener_check,
        {"u": SIGNAL, "dt": 0.1, "T": 1.6, "L": 3.0, "z_max": 5.0, "n_z": 5},
        {"u": ARRAY, "dt": POSITIVE, "T": POSITIVE, "L": POSITIVE, "z_max": POSITIVE,
         "n_z": bad_ints(1)},
    ),
    "kernel.intB_closed": (
        kernel.intB_closed, {"pair": P21, "z": 10.0}, {"pair": OBJECT, "z": (math.nan, math.inf)}
    ),
    "kernel.verify_expansion": (kernel.verify_expansion, {"pair": P21}, {"pair": OBJECT}),
    "unreachable.eta_triple": (unreachable.eta_triple, {"pair": P21}, {"pair": OBJECT}),
    "unreachable.constants": (unreachable.constants, {"pair": P21}, {"pair": OBJECT}),
    "unreachable.e1_over_e": (unreachable.e1_over_e, {"pair": P21}, {"pair": OBJECT}),
    "unreachable.phi": (unreachable.phi, {"eta": ETA, "x": X}, {"eta": OBJECT, "x": ARRAY}),
    "unreachable.phi_x": (unreachable.phi_x, {"eta": ETA, "x": X}, {"eta": OBJECT, "x": ARRAY}),
    "unreachable.psi": (
        unreachable.psi, {"eta": ETA, "t": 0.5, "x": X}, {"eta": OBJECT, "t": ARRAY, "x": ARRAY}
    ),
    "pde.Grid": (
        pde.Grid,
        {"L": 1.0, "nx": 8, "T": 1.0, "nt": 10},
        {"L": POSITIVE, "nx": bad_ints(8), "T": POSITIVE, "nt": bad_ints(1)},
    ),
    "pde.solve_linear": (
        pde.solve_linear,
        {"grid": GRID, "y0": Y, "u": U},
        {"grid": OBJECT, "y0": ARRAY + (Y[:-1], (), (Y, Y, Y)), "u": ARRAY + (U[:-1],)},
    ),
    "pde.solve_second_order": (
        pde.solve_second_order, {"grid": GRID, "u1": U}, {"grid": OBJECT, "u1": ARRAY}
    ),
    "pde.solve_nonlinear": (
        pde.solve_nonlinear,
        {"grid": GRID, "y0": Y, "u": U},
        {"grid": OBJECT, "y0": ARRAY + (Y[:-1],), "u": ARRAY + (U[:-1],)},
    ),
    "pde.gramian": (
        pde.gramian,
        {"grid": GRID, "length_class": numbertheory.representations(3)},
        {"grid": OBJECT, "length_class": OBJECT + (P21,)},
    ),
    "pde.hum_control": (
        pde.hum_control,
        {"grid": GRID, "target": Y, "tol": 1e-6},
        {"grid": OBJECT, "target": ARRAY, "tol": POSITIVE},
    ),
    "synthesis.make_spec": (
        synthesis.make_spec, {"pair": P21, "T": 1.0}, {"pair": OBJECT, "T": POSITIVE}
    ),
    "synthesis.steering_spectrum": (
        synthesis.steering_spectrum,
        {"spec": SPEC, "n_fft": 1 << 12},
        {"spec": OBJECT, "n_fft": bad_ints(2) + (1001,)},
    ),
    "synthesis.sign_report": (
        synthesis.sign_report, {"spec": SPEC, "n_side": 101}, {"spec": OBJECT, "n_side": bad_ints(2)}
    ),
    "synthesis.fractional_norm": (
        synthesis.fractional_norm,
        {"u": SIGNAL, "s": 0.5, "dt": 0.1},
        {"u": ARRAY, "s": (math.nan, math.inf, 3.0, -3.0), "dt": POSITIVE},
    ),
}


def test_every_public_callable_has_a_row():
    assert set(BAD_INPUT) == _surface()


@pytest.mark.parametrize("key", sorted(BAD_INPUT))
def test_good_call_of_each_row_passes(key):
    func, good, _ = BAD_INPUT[key]
    func(**good)


def _bad_calls():
    for key, (func, good, bad) in BAD_INPUT.items():
        for name, values in bad.items():
            for value in values:
                yield pytest.param(partial(func, **{**good, name: value}), id=f"{key}({name}={value!r})")


@pytest.mark.parametrize("call", _bad_calls())
def test_bad_input_raises_kdvcrit_error(call):
    with pytest.raises(KdvCritError):
        call()
