"""Benchmark of kdvcrit: four solve workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout; no install or build step):

    python3 perfbench/run.py --workload signs --seed 0 --seconds 22 --trace 0

Load model: one process, closed loop, one client.  Each operation starts
when the previous one returns, and the operation list is repeated while at
least half of another repetition fits in ``--seconds`` (at least once).  The
BLAS and OpenMP pools are pinned to one thread before numpy loads, so the
timings do not measure the thread scheduler of a small machine.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the median
wall time of one operation list, the median set-up time of five fresh
processes that import kdvcrit, the peak resident memory of this process and
the share of operations that passed their checks.  Both times are in seconds
of a reference machine speed: the fixed block of calibration.py runs before
and after every operation and set-up sample, and each time is scaled by the
block's reference time over its mean time around that sample, which removes
most of the drift of a shared machine's speed between runs.  The raw wall
times and the calibration times are kept in the run record.

``--trace 1`` runs the list under the outside-in tracer (tracer.py) between
two untraced passes and reports the per-layer metrics.  Either way the last
line of standard output is one JSON object; the run record, per-operation
outputs, captured warnings and (traced) all spans are written to
perfbench/results/.
"""

import os

# must precede the first numpy import in this process and its children
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import REFERENCE_SECONDS, Calibration  # noqa: E402
from tracer import MODULES, Tracer, layer_metrics, self_times, warning_origin  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
WORKLOAD_NAMES = ("signs", "spectrum", "control", "simulate")


def measure_setup(calibration: Calibration) -> list[float]:
    """Seconds from process start until kdvcrit and scipy are imported.

    Each sample is scaled to the reference machine speed by the calibration
    runs just before and after it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    before = calibration.measure()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py")],
            env=env,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        seconds = float(proc.stdout.strip().splitlines()[-1]) - t0
        after = calibration.measure()
        samples.append(seconds * REFERENCE_SECONDS / (0.5 * (before + after)))
        before = after
    return samples


@contextmanager
def capture_warnings(counts: Counter, tracer=None):
    """Count warnings by (originating kdvcrit module, category); show none."""
    package_dir = SRC / "kdvcrit"

    def show(message, category, filename, lineno, file=None, line=None):
        counts[(warning_origin(filename, tracer, package_dir), category.__name__)] += 1

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        yield


class Runner:
    """Runs operation lists and accumulates failures, outputs and warnings."""

    def __init__(self, workload, reference, record, calibration=None):
        self.workload = workload
        self.reference = reference
        self.record = record
        self.calibration = calibration
        self.speed_samples = []  # calibration seconds, one per operation and one before
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.outputs = {}
        self.warnings = Counter()

    def run_list(self, tracer=None, label="") -> tuple[float, float]:
        """One pass over the operation list.

        Returns the summed wall time of the calls and, with a calibration,
        the same sum with each call scaled to the reference machine speed by
        the calibration runs just before and after it (else the raw sum).
        """
        wall = 0.0
        scaled = 0.0
        if self.calibration is not None and not self.speed_samples:
            self.speed_samples.append(self.calibration.measure())
        for op in self.workload.ops:
            self.attempted += 1
            op_wall = self._run_op(op, tracer, label)
            wall += op_wall
            if self.calibration is None:
                scaled += op_wall
                continue
            self.speed_samples.append(self.calibration.measure())
            speed = 0.5 * (self.speed_samples[-2] + self.speed_samples[-1])
            scaled += op_wall * REFERENCE_SECONDS / speed
        return wall, scaled

    def _run_op(self, op, tracer, label) -> float:
        """Run, time and check one operation; returns its wall time."""
        from workloads import pin_mismatches

        if tracer is not None:
            tracer.op = f"{label}{op.name}"
            tracer.install()
        t0 = time.perf_counter()
        try:
            with capture_warnings(self.warnings, tracer):
                try:
                    result = op.run()
                finally:
                    wall = time.perf_counter() - t0
        except Exception as exc:  # an operation that raises is a failed operation
            self.failed += 1
            self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
            return wall
        finally:
            if tracer is not None:
                tracer.restore()
        try:
            outputs = op.check(result)
        except Exception as exc:  # a check may call kdvcrit too
            self.failed += 1
            self.errors.append(f"{op.name}: check failed: {type(exc).__name__}: {exc}")
            return wall
        finally:
            del result
        mismatches = pin_mismatches(self.workload.name, op.name, outputs, self.reference)
        if mismatches:
            self.failed += 1
            self.errors.extend(mismatches)
        self.outputs[op.name] = outputs
        return wall

    def warning_table(self) -> list:
        return [
            {"module": mod, "category": cat, "count": n}
            for (mod, cat), n in sorted(self.warnings.items())
        ]


def run_record(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.inputs,
        "blas_threads": {
            var: os.environ[var]
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def timed_metrics(runner: Runner, seconds: float, setup: list[float]) -> dict:
    walls = []
    scaled = []
    start = time.perf_counter()
    while True:
        wall, wall_scaled = runner.run_list()
        walls.append(wall)
        scaled.append(wall_scaled)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * max(walls) > seconds:
            break
    runner.record.update(
        walls=walls, scaled_walls=scaled, speed_samples=runner.speed_samples, setup_samples=setup
    )
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": {"value": statistics.median(scaled), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        "ok_ratio": {"value": (runner.attempted - runner.failed) / runner.attempted, "unit": "ratio"},
    }


def traced_metrics(runner: Runner) -> dict:
    """Per-layer metrics of one traced pass, bracketed by two untraced passes.

    The overhead compares the traced pass with the mean of the passes just
    before and after it, which cancels warm-up and linear drift of the
    machine's speed.
    """
    before, _ = runner.run_list(label="untraced-1:")
    tracer = Tracer()
    seen = Counter(runner.warnings)
    traced, _ = runner.run_list(tracer=tracer, label="traced:")
    warned = runner.warnings - seen
    after, _ = runner.run_list(label="untraced-2:")
    spans = tracer.spans
    values = layer_metrics(spans)
    for mod in MODULES + ("other",):
        values[f"{mod}.warnings"] = sum(n for (origin, _), n in warned.items() if origin == mod)
    values["traced_wall_s"] = traced
    values["trace_overhead_s"] = traced - 0.5 * (before + after)
    values["trace_unaccounted_s"] = traced - sum(self_times(spans))
    runner.record["walls"] = {"untraced": [before, after], "traced": traced}
    runner.record["spans"] = [s.as_dict() for s in spans]
    return {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("pde.picard_per_step", "synthesis.vhat1_scaled.redundancy"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kdvcrit" / "__init__.py").is_file():
        print(f"kdvcrit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import build, DEFAULT_SEED, load_reference

    reference = load_reference() if args.seed == DEFAULT_SEED else {}
    workload = build(args.workload, args.seed)
    record = run_record(args, workload)
    if args.trace == 0:
        calibration = Calibration()
        setup = measure_setup(calibration)
        runner = Runner(workload, reference, record, calibration)
        metrics = timed_metrics(runner, args.seconds, setup)
    else:
        runner = Runner(workload, reference, record)
        metrics = traced_metrics(runner)
    runner.record.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors,
        outputs=runner.outputs,
        warnings=runner.warning_table(),
        metrics=metrics,
    )
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(runner.record, indent=1))
    for line in runner.errors:
        print(line, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
