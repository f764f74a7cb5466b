"""Derivatives of H = det Q / Xi through the root map, in closed form.

Partial fractions: with p(lambda) = lambda^3 + lambda + i z and
D = p'(lambda) = 3 lambda^2 + 1, each coefficient of det Q over Xi is one
reciprocal, (lambda_{j+1} - lambda_j) / Xi = 1 / p'(lambda_{j+2}), so

    H = sum_j e^{-lambda_j L} / D_j.

The roots move with z as lambda' = -i / D, and D' = 6 lambda lambda', so
each derivative of a term e^{-lambda L} P(lambda) / D^{2d+1} is again of
that form:

    H^(d) = sum_j e^{-lambda_j L} P_d(lambda_j) / D_j^{2d+1},
    P_0 = 1,  P_{d+1} = -i (D P_d' - 6 (2d+1) lambda P_d - L D P_d),

with P_d a polynomial of degree 2d in lambda.  Vectorized over a 1-D set of
base points z0.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import RootDerivativeSingular
from .spectral import exp_sum_scaled, roots

__all__: list[str] = []  # internal: synthesis reads H^(d) through h_jets_scaled

_SINGULAR_TOL = 1e-8  # |3 lambda^2 + 1| below this is a root collision
_D = np.array([1.0, 0.0, 3.0])  # D = 1 + 3 lambda^2, coefficients low to high


def root_jets(z0) -> np.ndarray:
    """[lambda, lambda'] of the three roots at base points z0; shape z0.shape + (3, 2).

    lambda' = -i / D at the exact base roots; raises RootDerivativeSingular
    if D = 3 lambda^2 + 1 nearly vanishes (root collision at the base point,
    where the root map is not differentiable).
    """
    lam = roots(z0)  # (..., 3)
    d = 3.0 * lam * lam + 1.0
    if np.any(np.abs(d) < _SINGULAR_TOL):
        raise RootDerivativeSingular(
            "3*lambda^2 + 1 ~ 0: root collision on the evaluation set"
        )
    return np.stack([lam, -1j / d], axis=-1)


def h_jets_scaled(z0: np.ndarray, L: float, order: int):
    """H^(order) at the 1-D base points z0 as (m, s), H^(order)(z0) = m e^s.

    H = det Q / Xi explodes like exp(c |z|^{1/3} L) along the real axis, so
    the sum of the partial fractions is returned in exp_sum_scaled's form.
    """
    lam, dlam = np.moveaxis(root_jets(z0), -1, 0)
    poly = np.array([1.0 + 0j])
    for d in range(order):
        dp = npoly.polymul(_D, npoly.polysub(npoly.polyder(poly), L * poly))
        poly = -1j * npoly.polysub(dp, npoly.polymulx(6 * (2 * d + 1) * poly))
    # one named operand per product: a value does not depend on the batch size
    c = (1j * dlam) ** (2 * order + 1)
    c *= npoly.polyval(lam, poly)
    return exp_sum_scaled(c, -lam * L)
