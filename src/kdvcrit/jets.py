"""Truncated Taylor jets for analytic derivatives through the root map.

A jet is an ndarray whose last axis holds Taylor coefficients
[f, f', f''/2!, f'''/3!, ...] of an analytic function at a base point.  The
root lambda(z) of lambda^3 + lambda + i z = 0 is differentiated implicitly:
with D = 3 lambda^2 + 1 its Taylor coefficients have the closed form

    lambda' = -i / D,   lambda''/2 = -3 lambda lambda'^2 / D,
    lambda'''/6 = -(lambda'^3 + 6 lambda lambda' lambda''/2) / D,

and every downstream quantity (det Q, Xi, H) inherits exact chain rules
through jet arithmetic.  Jet operations carry as many coefficients as their
inputs, so H is expanded only to the order its caller reads (H' for generic
pairs, H''' for caseE0 pairs); a shorter jet is a bit-identical prefix.

All operations broadcast over leading axes, so a whole z-grid is one call.
"""

from __future__ import annotations

import numpy as np

from .errors import RootDerivativeSingular
from .spectral import roots

__all__: list[str] = []  # internal: synthesis reads H^(d) through h_jets_scaled

_BLOCK = 1 << 13  # points per h_jets_scaled pass; bounds the jet temporaries (~7 MB at order 1)


def jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (n,), dtype=complex)
    for k in range(n):
        for i in range(k + 1):
            out[..., k] += a[..., i] * b[..., k - i]
    return out


def jet_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (n,), dtype=complex)
    inv0 = 1.0 / b[..., 0]
    for k in range(n):
        acc = a[..., k].astype(complex) * np.ones_like(inv0)
        for i in range(k):
            acc = acc - out[..., i] * b[..., k - i]
        out[..., k] = acc * inv0
    return out


def jet_exp(a: np.ndarray) -> np.ndarray:
    """exp of a jet; the base coefficient may have large negative real part."""
    out = np.zeros_like(a)
    out[..., 0] = np.exp(a[..., 0])
    for k in range(1, a.shape[-1]):
        acc = np.zeros_like(out[..., 0])
        for i in range(1, k + 1):
            acc = acc + i * a[..., i] * out[..., k - i]
        out[..., k] = acc / k
    return out


_SINGULAR_TOL = 1e-8  # |3 lambda^2 + 1| below this is a root collision


def root_jets(z0) -> np.ndarray:
    """Jets of the three roots at base points z0; shape z0.shape + (3, 4).

    Closed-form implicit derivatives at the exact base roots; raises
    RootDerivativeSingular if 3 lambda^2 + 1 nearly vanishes (root collision
    at the base point, where the root map is not differentiable).
    """
    lam = roots(z0)  # (..., 3)
    d = 3.0 * lam * lam + 1.0
    if np.any(np.abs(d) < _SINGULAR_TOL):
        raise RootDerivativeSingular(
            "3*lambda^2 + 1 ~ 0: root collision on the evaluation set"
        )
    d1 = -1j / d
    d2 = -3.0 * lam * d1 * d1 / d
    d3 = -(d1 * d1 * d1 + 6.0 * lam * d1 * d2) / d
    return np.stack([lam, d1, d2, d3], axis=-1)


def h_jets_scaled(z0: np.ndarray, L: float, order: int):
    """Jet of H(z) e^{-s0} to ``order`` (at most 3) at the 1-D base points z0, plus s0.

    H = det Q / Xi explodes like exp(c |z|^{1/3} L) along the real axis, so
    the jet is computed for the rescaled function: the true derivatives are
    H^{(d)}(z0) = d! * jet[:, d] * exp(s0) for d <= order.  Evaluated in
    blocks of _BLOCK points.
    """
    jet = np.empty((z0.size, order + 1), dtype=complex)
    s0 = np.empty(z0.size)
    for i in range(0, z0.size, _BLOCK):
        sl = slice(i, i + _BLOCK)
        jet[sl], s0[sl] = _h_jets_block(z0[sl], L, order)
    return jet, s0


def _h_jets_block(z0: np.ndarray, L: float, order: int):
    lam = root_jets(z0)[..., : order + 1]  # (n, 3, order + 1)
    s0 = np.max(-lam[..., 0].real, axis=-1) * L  # dominant |e^{-lambda L}|
    lp1 = np.roll(lam, -1, axis=-2)
    lp2 = np.roll(lam, -2, axis=-2)
    expo = -L * lp2
    expo[..., 0] -= s0[..., None]
    terms = jet_mul(lp1 - lam, jet_exp(expo))
    detq = terms.sum(axis=-2)
    l1, l2, l3 = lam[..., 0, :], lam[..., 1, :], lam[..., 2, :]
    xi_jet = -jet_mul(jet_mul(l2 - l1, l3 - l2), l1 - l3)
    return jet_div(detq, xi_jet), s0
