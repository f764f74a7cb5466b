"""The benchmark's seed-0 pins hold on the library as it stands.

perfbench/workloads.py pins the key outputs of each workload's default-seed
operation list in perfbench/reference.json.  The benchmark reads them only
when it runs, so a library change that moves a pin would pass the tests;
here each workload's list runs through its checks, read-only: once on a
cleared per-pair store and once more on the store it left, as the
benchmark times its warm repetitions.  The PDE workloads' outputs are also
checked to be the same bits whether pde's entry points share the held
system of the last grid or each builds its own.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from kdvcrit import pde, synthesis

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


wl = _load_workloads()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_default_seed_outputs_match_the_pins(name):
    reference = wl.load_reference()
    assert name in reference
    synthesis._pair_tables.cache_clear()
    for _ in range(2):
        workload = wl.build(name, wl.DEFAULT_SEED)
        for op in workload.ops:
            assert op.name in reference[name], op.name
            outputs = op.check(op.run())
            assert wl.pin_mismatches(name, op.name, outputs, reference) == []


def _pde_arrays(result) -> list:
    """The arrays of a control or simulate operation's result, in order."""
    if isinstance(result, pde.GramianReport):
        return [result.singular_values, result.restricted, result.complement]
    if isinstance(result, pde.Trajectory):
        return [result.dofs, np.array(result.xnorm)]
    if isinstance(result, tuple):
        return [a for part in result for a in _pde_arrays(part)]
    return [result]  # HUM's u*


@pytest.mark.parametrize("name", ["control", "simulate"])
def test_held_pde_system_gives_the_outputs_of_a_fresh_one(name, monkeypatch):
    workload = wl.build(name, wl.DEFAULT_SEED)
    with monkeypatch.context() as m:
        m.setattr(pde, "_system", pde._System)  # every call builds its own system
        cold = [_pde_arrays(op.run()) for op in workload.ops]
    for _ in range(2):  # the list twice, as the benchmark repeats it
        for op, want in zip(workload.ops, cold):
            got = _pde_arrays(op.run())
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), op.name
