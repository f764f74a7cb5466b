"""Test-only oracles and wrappers around kdvcrit internals.

None of these is on a production path, so they live with the tests; no
module under src/kdvcrit imports this one (tests/test_exports.py checks it).
"""

import numpy as np

from kdvcrit.errors import DomainError, ResolutionError
from kdvcrit.kernel import _check_poles, _eta_terms
from kdvcrit.spectral import POLE_TOL, detq_scaled, profile_scaled, roots, shifted_roots
from kdvcrit.synthesis import _h_deriv_scaled, vhat1_scaled


def B_eval(pair, z, x):
    """Pointwise kernel B(z, x); vectorized over x for scalar z."""
    L = pair.L
    zc = complex(z)
    lam = roots(zc)
    lamt = shifted_roots(zc, pair.p)
    (qm, qs), (qtm, qts) = detq_scaled(lam, L), detq_scaled(lamt, L)
    _check_poles((abs(qm) < POLE_TOL) | (abs(qtm) < POLE_TOL), zc)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    fa = profile_scaled(lam, L, x_arr, qs).sum(axis=-1) / qm
    ga = profile_scaled(lamt, L, x_arr, qts).sum(axis=-1) / qtm
    ec, ee = _eta_terms(pair)
    phix = (ec * np.exp(np.multiply.outer(x_arr, ee))).sum(axis=-1)
    out = fa * ga * phix
    return complex(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


_MAX_DOUBLINGS = 14


def intb_quadrature(pair, z, tol: float = 1e-10):
    """Adaptive Gauss-Legendre oracle for int_0^L B dx.

    Panel count doubles until two successive composite values agree to tol
    relative (the integrand oscillates with frequency O(z^{1/3}), so the
    cost grows with z).
    """
    L = pair.L
    zc = complex(z)
    # resolve the oscillation: O(|z|^{1/3}) panels
    n0 = max(8, int(4 * (abs(zc) ** (1 / 3) + 1)))
    nodes, weights = np.polynomial.legendre.leggauss(10)
    prev = None
    n = n0
    for _ in range(_MAX_DOUBLINGS):
        edges = np.linspace(0.0, L, n + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        xs = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        vals = B_eval(pair, zc, xs).reshape(n, -1)
        terms = vals * weights[None, :] * half[:, None]
        total = complex(terms.sum())
        # the oscillatory sum cannot converge below roundoff on its own mass
        floor = 1e-14 * float(np.abs(terms).sum())
        if prev is not None and abs(total - prev) <= max(tol * abs(total), floor):
            return total
        prev = total
        n *= 2
    raise ResolutionError(f"quadrature did not converge at z = {z}")


def vieta_residuals(lam: np.ndarray, z) -> np.ndarray:
    """Absolute residuals of the three Vieta identities, stacked on axis -1."""
    z_arr = np.asarray(z, dtype=complex)
    e1 = lam.sum(axis=-1)
    e2 = (
        lam[..., 0] * lam[..., 1]
        + lam[..., 1] * lam[..., 2]
        + lam[..., 2] * lam[..., 0]
    )
    e3 = lam[..., 0] * lam[..., 1] * lam[..., 2]
    return np.stack(
        [np.abs(e1), np.abs(e2 - 1.0), np.abs(e3 + 1j * z_arr)], axis=-1
    )


def bump_vhat(spec, z):
    """v-hat(z) = e^{-i beta z} v1(beta z), unscaled (0.0 once it underflows)."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    m, s = vhat1_scaled(spec.nu, spec.beta, z_arr)
    with np.errstate(under="ignore"):
        vals = np.exp(-1j * spec.beta * z_arr) * m * np.exp(s)
    return complex(vals[0]) if np.ndim(z) == 0 else vals.reshape(np.shape(z))


def h_derivative_on_line(pair, gamma: float, z, d: int):
    """d-th derivative of H at z + i gamma via jets (d in {1, 3})."""
    if d not in (1, 3):
        raise DomainError(f"derivative order must be 1 or 3, got {d}")
    m, s0 = _h_deriv_scaled(pair, gamma, z, d)
    with np.errstate(over="ignore"):
        return m * np.exp(s0)
