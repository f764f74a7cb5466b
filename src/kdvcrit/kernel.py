"""The quadratic-interaction kernel B(z, x) and its x-integral.

B is the triple product of the solution profile at z, the conjugate-shifted
profile at z - p, and phi_x:

    B(z, x) = f(z, x)/D(z) * g(z, x)/D~(z) * phi_x(x),

    f = sum_j (e^{l_{j+1}L} - e^{l_j L}) e^{l_{j+2} x},   D = det Q(z),

with g, D~ built from the roots of mu^3 + mu - i(z - p) = 0.  Each profile is
three exponentials F_j e^{l_{j+2} x}, so the closed-form x-integral sums the
27 exponents a = l_{j+2} + mu~_{m+2} + eta_{k+2}; each term integrates to
c (e^{aL} - 1)/a (series branch for small aL).  The profiles carry the det Q
and det Q~ scales, so the dominant exponentials cancel analytically and the
evaluation stays inside double range for z up to 1e6 and beyond.

Everything is exercised against the expansions

    int B = E z^{-4/3} + E_1 |z|^{-2} + O(|z|^{-7/3})          (generic case)
    int B = F |z|^{-2} + F_1 |z|^{-8/3} + O(|z|^{-3})          (exp(eta_1 L) = 1)

whose constants come from the unreachable-direction module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NearPole, check_type
from .numbertheory import CriticalPair
from .spectral import POLE_TOL, detq_scaled, profile_scaled, roots, shifted_roots, xi
from .unreachable import UnreachableData, constants, eta_triple

# intB_closed waits on ROADMAP direction 4 for a production caller
__all__ = ["intB_closed", "AsymptoticReport", "verify_expansion"]

_SERIES_CUT = 1e-3  # switch (e^{aL}-1)/a to its series below |a|L = 1e-3


def _eta_terms(pair: CriticalPair):
    """(coefficients, exponents) of phi_x = sum eta_{k+2}(eta_{k+1}-eta_k) e^{eta_{k+2} x}."""
    e = eta_triple(pair).eta
    ep1, ep2 = np.roll(e, -1), np.roll(e, -2)
    return (ep1 - e) * ep2, ep2


def _series_int(aL: np.ndarray) -> np.ndarray:
    """(e^{aL} - 1)/(aL) via its Taylor series, accurate for |aL| <= 1e-3."""
    out = np.ones_like(aL)
    term = np.ones_like(aL)
    for n in range(1, 8):
        term = term * aL / (n + 1)
        out = out + term
    return out


def _check_poles(near, z):
    if np.any(near):
        zb = np.atleast_1d(np.asarray(z))[np.atleast_1d(near)]
        raise NearPole(f"scaled denominator below {POLE_TOL:g} near z = {zb[:3]}")


def _scaled_parts(pair: CriticalPair, z):
    """Flattened (numerator mantissa, qm, qtm, qs + qts, lam, lamt) of int B at real z.

    int B = num / (qm qtm), because the numerator carries the scale
    e^{qs + qts} of det Q det Q~; lam and lamt are the root triples it is built from.
    """
    L = pair.L
    z_arr = np.asarray(z, dtype=complex).reshape(-1)
    lam = roots(z_arr)
    lamt = shifted_roots(z_arr, pair.p)
    qm, qs = detq_scaled(lam, L)
    qtm, qts = detq_scaled(lamt, L)
    num = _numerator_scaled(L, lam, lamt, qs, qts, *_eta_terms(pair))
    return num, qm, qtm, qs + qts, lam, lamt


def _intB_masked(pair: CriticalPair, z):
    """int_0^L B dx over the flattened z, and the mask of near-pole points.

    A masked value is not meaningful; intB_closed raises NearPole instead.
    """
    num, qm, qtm, *_ = _scaled_parts(pair, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = num / (qm * qtm)
    return vals, (np.abs(qm) < POLE_TOL) | (np.abs(qtm) < POLE_TOL)


def intB_closed(pair: CriticalPair, z):
    """Closed-form int_0^L B(z, x) dx, vectorized over real z.

    The 27 exponential terms of f g phi_x are summed against the common
    scale of det Q * det Q~, which keeps every mantissa O(1) for z up to 1e6
    and L up to ~30.
    """
    vals, near = _intB_masked(check_type(pair, CriticalPair, "pair"), z)
    _check_poles(near, z)
    return complex(vals[0]) if np.ndim(z) == 0 else vals.reshape(np.shape(z))


def _numerator_scaled(L, lam, lamt, qs, qts, ec, ee):
    """Mantissa of int_0^L f g phi_x dx against the scale e^{qs + qts}.

    f0, fL (g0, gL) are the profile terms at x = 0 and x = L; with
    w = e^{eta_k L}, common to every k, term (j, m, k) is
    c_k (w fL_j gL_m - f0_j g0_m)/a_jmk, or c_k f0_j g0_m L S(aL) for small aL,
    where a_jmk = l_{j+2} + mu~_{m+2} + eta_{k+2}.  One (j, m) block per k
    keeps the temporaries at 9 values per point.
    """
    f0, fL = profile_scaled(lam, L, 0.0, qs), profile_scaled(lam, L, L, qs)
    g0, gL = profile_scaled(lamt, L, 0.0, qts), profile_scaled(lamt, L, L, qts)
    low = f0[..., :, None] * g0[..., None, :]
    rise = np.exp(ee[0] * L) * fL[..., :, None] * gL[..., None, :] - low
    lm = np.roll(lam, -2, axis=-1)[..., :, None] + np.roll(lamt, -2, axis=-1)[..., None, :]
    acc = 0.0
    for c, e in zip(ec, ee):
        a = lm + e
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = c * rise / a
        small = np.abs(a * L) < _SERIES_CUT
        if np.any(small):
            terms[small] = c * low[small] * L * _series_int(a[small] * L)
        acc = acc + terms.sum(axis=(-2, -1))
    return acc


def interaction_numerator(pair: CriticalPair, z):
    """N / (Xi(lambda) Xi(lambda~)) as (mantissa, log-scale), no pole exclusion.

    N = int_0^L f g phi_x dx; both Xi come from N's own root triples, so the
    antisymmetric N and Xi Xi~ share one root order per point.  With the
    det Q det Q~ scale s and H = det Q / Xi, intB = m e^s / (H(z) H(p - z)):
    the synthesis cancels the H factors against u-hat's, so the value stays
    finite across det Q zeros, and at the floats nearest the collisions z or
    z - p = +-COLLISION_Z it is ~1e-8 relative off (~1e-14 from 1e-5 away).
    """
    num, _, _, s, lam, lamt = _scaled_parts(pair, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = num / (xi(lam) * xi(lamt))
    if np.ndim(z) == 0:
        return m[0], float(s[0])
    return m.reshape(np.shape(z)), s.reshape(np.shape(z))


# ---------------------------------------------------------------------------
# expansion verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticReport:
    """Fitted log-log slopes of |int B - partial sums| on a dyadic grid."""

    pair: tuple[int, int]
    case: int  # 1 generic, 2 when exp(eta_1 L) = 1
    z_grid: np.ndarray
    slopes: tuple[float, float, float]  # after subtracting 0, 1, 2 terms
    expected: tuple[float, float, float]
    constants: UnreachableData = field(repr=False)
    excluded: tuple[float, ...] = ()

    def as_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "case": self.case,
            "z_grid": [float(v) for v in self.z_grid],
            "slopes": list(self.slopes),
            "expected": list(self.expected),
            "excluded": list(self.excluded),
        }


def _fit_slope(z: np.ndarray, r: np.ndarray) -> float:
    mask = r > 0
    return float(np.polyfit(np.log10(z[mask]), np.log10(r[mask]), 1)[0])


def verify_expansion(pair: CriticalPair) -> AsymptoticReport:
    """Fit the residual decay orders of the two-term kernel expansion.

    The grid is dyadic in [1e3, 1e6] (>= 8 points).  The third-level residual
    is fitted on [1e3, 1e5] only: beyond that the subtraction
    int B - E z^{-4/3} - E_1 z^{-2} cancels ~8 significant digits and double
    precision floors the fit.
    """
    z_grid = 1e3 * 2.0 ** np.arange(0, 10.5, 1.0)
    data = constants(pair)
    vals, near = _intB_masked(pair, z_grid)
    z, vals = z_grid[~near], vals[~near]
    if pair.caseE0:
        case = 2
        t1 = data.F / np.abs(z) ** 2
        t2 = data.F1 / np.abs(z) ** (8.0 / 3.0)
        expected = (-2.0, -8.0 / 3.0, -3.0)
    else:
        case = 1
        t1 = data.E * z ** (-4.0 / 3.0)
        t2 = data.E1 / np.abs(z) ** 2
        expected = (-4.0 / 3.0, -2.0, -7.0 / 3.0)
    r0 = np.abs(vals)
    r1 = np.abs(vals - t1)
    r2 = np.abs(vals - t1 - t2)
    third = z <= 1e5
    slopes = (
        _fit_slope(z, r0),
        _fit_slope(z, r1),
        _fit_slope(z[third], r2[third]),
    )
    return AsymptoticReport(
        pair=(pair.k, pair.l),
        case=case,
        z_grid=z,
        slopes=slopes,
        expected=expected,
        constants=data,
        excluded=tuple(z_grid[near]),
    )
