"""Truncated Taylor jets for analytic derivatives through the root map.

A jet is an ndarray whose last axis holds Taylor coefficients
[f, f', f''/2!, f'''/3!] of an analytic function at a base point.  The root
lambda(z) of lambda^3 + lambda + i z = 0 is differentiated implicitly
(lambda' = -i / (3 lambda^2 + 1)) by running Newton's iteration in jet
arithmetic from the exact base root; every downstream quantity (det Q, Xi, H)
then inherits exact chain rules.  Order 3 is all the synthesis layer needs
(H' and H''' on a shifted line).

All operations broadcast over leading axes, so a whole z-grid is one call.
"""

from __future__ import annotations

import numpy as np

from .errors import RootDerivativeSingular
from .spectral import roots

__all__ = [
    "JET_ORDER",
    "jet_const",
    "jet_var",
    "jet_mul",
    "jet_div",
    "jet_exp",
    "root_jets",
    "h_jets_scaled",
]

JET_ORDER = 3  # highest derivative carried
_K = JET_ORDER + 1


def jet_const(c, shape=()) -> np.ndarray:
    out = np.zeros(shape + (_K,), dtype=complex)
    out[..., 0] = c
    return out


def jet_var(z0) -> np.ndarray:
    """Jet of the identity map z -> z at base point z0."""
    z0 = np.asarray(z0, dtype=complex)
    out = np.zeros(z0.shape + (_K,), dtype=complex)
    out[..., 0] = z0
    out[..., 1] = 1.0
    return out


def jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (_K,), dtype=complex)
    for k in range(_K):
        for i in range(k + 1):
            out[..., k] += a[..., i] * b[..., k - i]
    return out


def jet_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (_K,), dtype=complex)
    inv0 = 1.0 / b[..., 0]
    for k in range(_K):
        acc = a[..., k].astype(complex) * np.ones_like(inv0)
        for i in range(k):
            acc = acc - out[..., i] * b[..., k - i]
        out[..., k] = acc * inv0
    return out


def jet_exp(a: np.ndarray) -> np.ndarray:
    """exp of a jet; the base coefficient may have large negative real part."""
    out = np.zeros_like(a)
    out[..., 0] = np.exp(a[..., 0])
    for k in range(1, _K):
        acc = np.zeros_like(out[..., 0])
        for i in range(1, k + 1):
            acc = acc + i * a[..., i] * out[..., k - i]
        out[..., k] = acc / k
    return out


def root_jets(z0, singular_tol: float = 1e-8) -> np.ndarray:
    """Jets of the three roots at base points z0; shape z0.shape + (3, 4).

    Newton in jet arithmetic from the exact base roots; raises
    RootDerivativeSingular if 3 lambda^2 + 1 nearly vanishes (root collision
    at the base point, where the root map is not differentiable).
    """
    z0 = np.asarray(z0, dtype=complex)
    lam0 = roots(z0)  # (..., 3)
    if np.any(np.abs(3.0 * lam0 * lam0 + 1.0) < singular_tol):
        raise RootDerivativeSingular(
            "3*lambda^2 + 1 ~ 0: root collision on the evaluation set"
        )
    zj = jet_var(z0)[..., None, :]  # broadcast over the three roots
    lam = jet_const(0.0, lam0.shape)
    lam[..., 0] = lam0
    iz = jet_mul(jet_const(1j, zj.shape[:-1]), zj)
    for _ in range(JET_ORDER + 1):
        f = jet_mul(jet_mul(lam, lam), lam)
        f = f + lam + iz
        df = 3.0 * jet_mul(lam, lam)
        df[..., 0] += 1.0
        lam = lam - jet_div(f, df)
    return lam


def h_jets_scaled(z0, L: float):
    """Jet of H(z) e^{-s0} at base points z0, plus the log-scale s0.

    H = det Q / Xi explodes like exp(c |z|^{1/3} L) along the real axis, so
    the jet is computed for the rescaled function: the true derivatives are
    H^{(d)}(z0) = d! * jet[..., d] * exp(s0).  s0 has shape z0.shape.
    """
    lam = root_jets(z0)  # (..., 3, 4)
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
