"""The benchmark's seed-0 pins hold on the library as it stands.

perfbench/workloads.py pins the key outputs of each workload's default-seed
operation list in perfbench/reference.json.  The benchmark reads them only
when it runs, so a library change that moves a pin would pass the tests;
here each workload's list runs through its checks, read-only: once on a
cleared per-pair store and once more on the store it left, as the
benchmark times its warm repetitions.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from kdvcrit import synthesis

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
