"""Fixed reference work that tracks how fast the machine runs right now.

On a shared virtual machine the speed of one core drifts by tens of percent
over tens of seconds, so wall times of separate runs differ by more than the
changes the benchmark has to resolve.  The runner times this block between
operations and scales each operation's wall time by the block's reference
time over its current time.  The block is independent of kdvcrit, so a change
to the program moves the operation times but not the scale, and it mixes the
kinds of work kdvcrit does: vectorized complex arithmetic, banded sparse
triangular solves, small dense LAPACK, adaptive quadrature with a Python
integrand, and interpreter-bound loops over tiny arrays.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg
from scipy.integrate import quad

# seconds one ``Calibration.measure`` took on the machine the benchmark was
# defined on (2-core x86-64 VM, one BLAS thread); normalized times are in
# seconds of that machine
REFERENCE_SECONDS = 0.2


def _bump(t: float) -> float:
    om = 1.0 - t * t
    return math.exp(-0.5 / om) if om > 1e-12 else 0.0


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._z = rng.standard_normal(50_000) + 1j * rng.standard_normal(50_000)
        n = 512
        band = sparse.diags(
            [rng.uniform(-1, 1, n - k) for k in (3, 2, 1)]
            + [rng.uniform(6, 8, n)]
            + [rng.uniform(-1, 1, n - k) for k in (1, 2, 3)],
            [-3, -2, -1, 0, 1, 2, 3],
            format="csc",
        )
        self._lu = sparse_linalg.splu(band)
        self._rhs = rng.standard_normal((n, 16))
        self._dense = rng.standard_normal((96, 96))
        self._small = rng.standard_normal(4)
        self._weights = rng.standard_normal(8)
        self.measure()  # the first pass pays one-time costs

    def measure(self) -> float:
        """Seconds taken by the fixed block of reference work."""
        t0 = time.perf_counter()
        for _ in range(26):
            np.exp(-0.01 * self._z * self._z).sum()
        for _ in range(200):
            self._lu.solve(self._rhs)
        for _ in range(70):
            np.linalg.svd(self._dense, compute_uv=False)
        for k in range(250):
            quad(_bump, 0.0, 1.0, weight="cos", wvar=20.0 + k, limit=300, epsabs=1e-13, epsrel=1e-10)
        acc = 0.0
        for _ in range(20000):
            acc += float(np.concatenate([self._small, self._small]) @ self._weights)
        return time.perf_counter() - t0
