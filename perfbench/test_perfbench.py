"""Self-tests of the benchmark: tracer arithmetic, patching, derived ratios.

Run with ``python3 -m pytest perfbench -q`` from the repository root; the
two tests marked slow run full operations to check grid-only exact counts.
"""

import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tr
import workloads
from kdvcrit import jets, kernel, pde, spectral, synthesis
from workloads import Op, Workload

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _traced(ops, name="test"):
    runner = run.Runner(Workload(name, {}, ops), {}, {})
    metrics = run.traced_metrics(runner)
    return runner, {k: v["value"] for k, v in metrics.items()}


def _trace_only(ops):
    """Layer metrics of one traced pass (no untraced pass before it)."""
    runner = run.Runner(Workload("test", {}, ops), {}, {})
    t = tr.Tracer()
    runner.run_list(tracer=t)
    assert runner.failed == 0, runner.errors
    return tr.layer_metrics(t.spans)


def _span(sid, parent, t0, t1):
    span = tr.Span(sid, parent, "op", "x", "pde", {})
    span.t0, span.t1 = t0, t1
    return span


def test_self_time_arithmetic_synthetic_nesting():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0), _span(2, 1, 2.0, 3.0), _span(3, 0, 5.0, 9.0)]
    assert tr.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_live_nesting_parents_and_self_time_sum():
    t = tr.Tracer()
    t.op = "op-1"

    def leaf():
        s = t.open("leaf", "spectral")
        t.close(s)

    root = t.open("root", "pde")
    for _ in range(3):
        mid = t.open("mid", "jets")
        leaf()
        t.close(mid)
    t.close(root)
    parents = [s.parent for s in t.spans]
    assert parents == [None, 0, 1, 0, 3, 0, 5]
    assert {s.op for s in t.spans} == {"op-1"}
    assert math.isclose(sum(tr.self_times(t.spans)), root.duration, rel_tol=1e-12)
    assert t.stack == []


def _bindings():
    """Every (owner, attribute) the tracer replaces, with its original object."""
    mods = {"spectral": spectral, "jets": jets, "kernel": kernel, "synthesis": synthesis, "pde": pde}
    out = []
    for name in ("roots", "gh_scaled", "h_jets_scaled", "interaction_numerator", "quad", "cholesky"):
        for mod in mods.values():
            if name in vars(mod):
                out.append((mod, name, vars(mod)[name]))
    out += [(synthesis.BumpTable, "__init__", vars(synthesis.BumpTable)["__init__"])]
    out += [(synthesis.BumpTable, "eval_w", vars(synthesis.BumpTable)["eval_w"])]
    out += [(pde, "sparse_linalg", pde.sparse_linalg)]
    return out


def test_patch_and_restore_round_trip():
    before = _bindings()
    # the copies made by ``from .spectral import roots`` are wrapped too
    assert {m.__name__ for m, n, _ in before if n == "roots"} >= {
        "kdvcrit.spectral", "kdvcrit.jets", "kdvcrit.kernel", "kdvcrit.synthesis"
    }
    t = tr.Tracer()
    t.install()
    try:
        for owner, attr, original in before:
            assert vars(owner)[attr] is not original, f"{owner}.{attr} not wrapped"
        jets.root_jets(np.array([1.0, 2.0]))
    finally:
        t.restore()
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"
    names = [s.name for s in t.spans]
    assert names[0] == "jets.root_jets" and "spectral.roots" in names
    roots_span = t.spans[names.index("spectral.roots")]
    assert roots_span.owner == "jets" and roots_span.attrs["points"] == 2


def test_warning_origin():
    pkg = Path(spectral.__file__).resolve().parent
    t = tr.Tracer()
    assert tr.warning_origin(str(pkg / "pde.py"), t, pkg) == "pde"
    assert tr.warning_origin("/elsewhere/x.py", t, pkg) == "other"
    span = t.open("synthesis.quad", "synthesis")
    # quad warns with stacklevel=2, which names the tracer's wrapper
    assert tr.warning_origin(tr.__file__, t, pkg) == "synthesis"
    t.close(span)


def test_picard_per_step_tiny_grid():
    grid = pde.Grid(L=2.0, nx=16, T=0.2, nt=10)
    _, zero = _traced([Op("zero", lambda: pde.solve_nonlinear(grid), lambda r: {})])
    assert zero["pde.picard_per_step"] == 1.0  # zero data converges at once
    u = 0.3 * np.sin(math.pi * grid.t_nodes / grid.T)
    _, data = _traced([Op("data", lambda: pde.solve_nonlinear(grid, u=u), lambda r: {})])
    assert 1.0 < data["pde.picard_per_step"] <= 25.0
    assert data["pde.picard_per_step"] == data["pde.lu_solve.calls"] / grid.nt
    assert data["pde.splu.calls"] == 1 and data["pde.lu_solve.rhs_columns"] == data["pde.lu_solve.calls"]


def test_vhat1_redundancy_tiny_grid():
    z = np.linspace(0.5, 2.5, 5)
    z2 = np.array([3.0, 4.0, 5.0])

    def op_repeated():
        synthesis.vhat1_scaled(1.0, 1.0, z)
        synthesis.vhat1_scaled(1.0, 1.0, z)
        return synthesis.vhat1_scaled(1.0, 1.0, z2)

    ops = [Op("a", op_repeated, lambda r: {}), Op("b", lambda: synthesis.vhat1_scaled(1.0, 1.0, z2), lambda r: {})]
    _, m = _traced(ops)
    assert m["synthesis.vhat1_scaled.points"] == 16
    # distinct z are counted within one operation: 8 in "a", 3 in "b"
    assert m["synthesis.vhat1_scaled.redundancy"] == 16 / 11
    assert m["synthesis.quad.calls"] == 16


def test_metric_names_match_benchmark_json():
    runner, layer = _traced([Op("r", lambda: spectral.roots(np.array([0.5])), lambda r: {})])
    assert set(layer) == {m["name"] for m in BENCHMARK["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(run.layer_unit(name) == units[name] for name in layer)
    runner = run.Runner(Workload("test", {}, [Op("r", lambda: 1, lambda r: {})]), {}, {})
    e2e = run.timed_metrics(runner, 0.0, [0.5])
    assert {k: v["unit"] for k, v in e2e.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_failed_check_and_pin_mismatch_count_as_failures():
    def bad_check(result):
        raise workloads.CheckFailed("no")

    ops = [Op("raises", lambda: 1 / 0, lambda r: {}), Op("bad", lambda: 1, bad_check), Op("pinned", lambda: 2.0, lambda r: {"v": r})]
    runner = run.Runner(Workload("w", {}, ops), {"w": {"pinned": {"v": 1.0}}}, {})
    runner.run_list()
    assert (runner.attempted, runner.failed) == (3, 3)


def test_warnings_are_captured_not_shown(capsys):
    import warnings

    counts = Counter()
    with run.capture_warnings(counts):
        warnings.warn_explicit("w", UserWarning, str(Path(pde.__file__)), 1)
        warnings.warn_explicit("w", UserWarning, str(Path(pde.__file__)), 1)
    assert counts == {("pde", "UserWarning"): 2}
    assert capsys.readouterr().err == ""


def test_exits_nonzero_without_program():
    # a directory holding only BENCHMARK.json and the benchmark's own files
    bare = HERE / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "signs", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.slow
def test_exact_rhs_columns_on_control():
    m = _trace_only(workloads.build("control", 0).ops)
    # nt (nt + 1) per control map: 650 * 651 + 2 * 400 * 401, plus 400 for the target
    assert m["pde.lu_solve.rhs_columns"] == 744_350
    assert m["pde.lu_solve.calls"] == 1_850


@pytest.mark.slow
def test_exact_vhat1_points_on_spectrum_at_T25():
    m = _trace_only([workloads._spectrum_op("steering_spectrum(T)", 25.0)])
    # three evaluations on the 262,144-point grid plus the 400-point probe
    assert m["synthesis.vhat1_scaled.points"] == 786_832
    assert m["synthesis.BumpTable.eval_w.points"] == 786_432
    assert m["synthesis.vhat1_scaled.redundancy"] == pytest.approx(786_832 / 262_544)


def test_calibration_scales_each_operation():
    class FixedSpeed:
        def __init__(self, seconds):
            self.seconds = iter(seconds)

        def measure(self):
            return next(self.seconds)

    ops = [Op("r", lambda: spectral.roots(np.array([0.5])), lambda r: {})]
    runner = run.Runner(Workload("w", {}, ops), {}, {}, FixedSpeed([0.1, 0.1, 0.3]))
    wall, scaled = runner.run_list()
    assert scaled == pytest.approx(wall * run.REFERENCE_SECONDS / 0.1)
    wall, scaled = runner.run_list()
    assert scaled == pytest.approx(wall * run.REFERENCE_SECONDS / 0.2)
    assert runner.speed_samples == [0.1, 0.1, 0.3]
