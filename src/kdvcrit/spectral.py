"""Characteristic roots of lambda^3 + lambda + i z = 0 and derived quantities.

The three roots carry everything: the boundary determinant

    det Q = sum_j (lambda_{j+1} - lambda_j) exp(-lambda_{j+2} L),

the trace numerator P, the Vandermonde factor

    Xi = -(l2 - l1)(l3 - l2)(l1 - l3),

and the entire quotients G = P/Xi, H = det Q / Xi.  For real z the roots grow
like mu_j z^{1/3} with mu_j = exp(-i pi/6 - 2j i pi/3), so exp(lambda L)
overflows well inside the working range; every exponential sum here is
therefore evaluated with the dominant exponential factored out analytically
and is available in (mantissa, log-scale) form.

Index conventions are cyclic: lambda_{j+3} = lambda_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite, check_int, check_positive

__all__ = [
    "MU",
    "MU_TILDE",
    "COLLISION_Z",
    "SpectralFrame",
    "roots",
    "asymptotic_roots",
    "frame",
    "paley_wiener_check",  # waits on ROADMAP direction 4 for a production caller
    "PaleyWienerReport",
]

# Cube-root directions of -i (mu_j^3 = -i) and their conjugates, ordered so
# that Re mu_1 < Re mu_2 < Re mu_3, matching the large-z root ordering.
MU = np.exp(-1j * np.pi / 6 - 2j * np.pi * np.arange(1, 4) / 3)
MU_TILDE = np.exp(1j * np.pi / 6 + 2j * np.pi * np.arange(1, 4) / 3)

# Real double-root points of the cubic: z = +/- 2/(3 sqrt 3).
COLLISION_Z = 2.0 / (3.0 * np.sqrt(3.0))

_OMEGA = np.exp(2j * np.pi / 3)

# Scaled det Q mantissas below this mark z as too close to the pole set.
POLE_TOL = 1e-10


def _cardano(z: np.ndarray) -> np.ndarray:
    """Raw Cardano roots of lambda^3 + lambda + iz = 0, shape z.shape + (3,)."""
    q = 1j * z
    s = np.sqrt(0.25 * q * q + 1.0 / 27.0)
    # pick the branch that keeps |u|^3 away from zero (avoids cancellation)
    a = -0.5 * q + s
    b = -0.5 * q - s
    u3 = np.where(np.abs(a) >= np.abs(b), a, b)
    u = u3 ** (1.0 / 3.0)
    lam = np.empty(np.shape(z) + (3,), dtype=complex)
    for m in range(3):
        w = u * _OMEGA**m
        lam[..., m] = w - 1.0 / (3.0 * w)
    return lam


def _newton_polish(lam: np.ndarray, z: np.ndarray, steps: int = 2) -> np.ndarray:
    for _ in range(steps):
        d = 3.0 * lam * lam + 1.0
        d = np.where(np.abs(d) < 1e-8, np.nan, d)  # NaN sends the point to roots' fallback
        with np.errstate(invalid="ignore"):
            lam = lam - (lam**3 + lam + 1j * z[..., None]) / d
    return lam


def _sort_roots(lam: np.ndarray) -> np.ndarray:
    """Sort the last axis by (Re, Im); ties at collisions are harmless."""
    order = np.lexsort((lam.imag, lam.real), axis=-1)
    return np.take_along_axis(lam, order, axis=-1)


def roots(z) -> np.ndarray:
    """Three roots of lambda^3 + lambda + i z = 0, sorted by (Re, Im).

    Vectorized over z (any shape, real or complex).  Cardano with a two-step
    Newton polish; points too close to the double-root configuration fall
    back to companion-matrix eigenvalues.  Non-finite z raise DomainError.
    """
    z_arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z_arr)):
        raise DomainError("roots: z must be finite")
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    lam = _newton_polish(_cardano(z_arr), z_arr)
    resid = np.abs(lam**3 + lam + 1j * z_arr[..., None])
    bad = np.any(~np.isfinite(lam), axis=-1) | np.any(
        resid > 1e-10 * (1.0 + np.abs(z_arr))[..., None], axis=-1
    )
    if np.any(bad):
        flat = z_arr.reshape(-1)
        lam_flat = lam.reshape(-1, 3)
        for i in np.flatnonzero(bad.reshape(-1)):
            r = np.roots([1.0, 0.0, 1.0, 1j * flat[i]])
            d = 3.0 * r * r + 1.0
            safe = np.abs(d) > 1e-6
            r[safe] -= (r[safe] ** 3 + r[safe] + 1j * flat[i]) / d[safe]
            lam_flat[i] = r
        lam = lam_flat.reshape(lam.shape)
    lam = _sort_roots(lam)
    return lam[0] if scalar else lam


def shifted_roots(z, p: float) -> np.ndarray:
    """Roots of mu^3 + mu - i(z - p) = 0, sorted by (Re, Im).

    For real z - p these are the conjugates of the roots at z - p; the
    defining cubic is the one at -(z - p), which is what is solved here (the
    identity mu^3 + mu - iw = 0  <=>  mu^3 + mu + i(-w) = 0).
    """
    z_arr = np.asarray(z, dtype=complex)
    return roots(-(z_arr - p))


def asymptotic_roots(z, order: int, p: float = 0.0, shifted: bool = False) -> np.ndarray:
    """Large-z expansions of the (shifted) roots for real z > 0.

    order 1: mu_j z^{1/3}
    order 2: + (-1/(3 mu_j)) z^{-1/3}
    order 3: + the shifted corrections -(1/3) mu~_j p z^{-2/3} - p z^{-4/3}/(9 mu~_j)

    For the plain roots the z^{-1} coefficient vanishes identically, so order
    3 coincides with order 2 there; the third-order terms are the p-linear
    corrections of the shifted family.
    """
    if check_int(order, "order", 1) > 3:
        raise DomainError(f"order must be 1, 2 or 3, got {order}")
    z_arr = check_finite(z, "z")
    if np.any(z_arr <= 0):
        raise DomainError("asymptotic root expansions require z > 0")
    check_finite(p, "p")
    mu = MU_TILDE if shifted else MU
    c = np.cbrt(z_arr)[..., None]
    lam = mu * c
    if order >= 2:
        lam = lam - 1.0 / (3.0 * mu * c)
    if order >= 3 and shifted:
        lam = lam - mu * p / (3.0 * c**2) - p / (9.0 * mu * c**4)
    return lam


# ---------------------------------------------------------------------------
# scaled exponential sums
# ---------------------------------------------------------------------------


def exp_sum_scaled(coeffs: np.ndarray, exps: np.ndarray):
    """Evaluate sum_t coeffs_t exp(exps_t) as (mantissa, log-scale).

    The returned pair (m, s) satisfies value = m * exp(s) with s real and the
    largest term of the sum having unit magnitude, so m never overflows.  The
    sum runs over the last axis.
    """
    s = np.max(exps.real, axis=-1)
    m = np.sum(coeffs * np.exp(exps - s[..., None]), axis=-1)
    return m, s


def detq_scaled(lam: np.ndarray, L: float):
    """det Q = sum_j (lambda_{j+1} - lambda_j) e^{-lambda_{j+2} L}, scaled."""
    lp1 = np.roll(lam, -1, axis=-1)
    lp2 = np.roll(lam, -2, axis=-1)
    return exp_sum_scaled(lp1 - lam, -lp2 * L)


def profile_scaled(lam: np.ndarray, L: float, x, s) -> np.ndarray:
    """Terms (e^{lambda_{j+1} L} - e^{lambda_j L}) e^{lambda_{j+2} x - s}, last axis j.

    Their sum is the solution profile divided by e^s.  x and s broadcast
    against lam[..., 0]; each exponent is formed whole, so with s the det Q
    scale nothing overflows for x in [0, L].
    """
    lp2x = np.roll(lam, -2, axis=-1) * np.asarray(x)[..., None]
    s = np.asarray(s)[..., None]
    return np.exp(np.roll(lam, -1, axis=-1) * L + lp2x - s) - np.exp(lam * L + lp2x - s)


def p_scaled(lam: np.ndarray, L: float):
    """P = sum_j lambda_j (e^{lambda_{j+2} L} - e^{lambda_{j+1} L}), scaled."""
    lp1 = np.roll(lam, -1, axis=-1)
    lp2 = np.roll(lam, -2, axis=-1)
    coeffs = np.concatenate([lam, -lam], axis=-1)
    exps = np.concatenate([lp2 * L, lp1 * L], axis=-1)
    return exp_sum_scaled(coeffs, exps)


def xi(lam: np.ndarray) -> np.ndarray:
    """Xi = -(l2 - l1)(l3 - l2)(l1 - l3) (antisymmetric Vandermonde factor)."""
    l1, l2, l3 = lam[..., 0], lam[..., 1], lam[..., 2]
    return -(l2 - l1) * (l3 - l2) * (l1 - l3)


def _dd2(expsign: float, lam: np.ndarray, L: float) -> np.ndarray:
    """Second divided difference of t -> exp(expsign * t * L) at the roots.

    Uses expm1 on the closest pair so the value stays finite through root
    collisions (the quotient det Q / Xi is entire; the raw ratio is 0/0).
    """
    lam = np.atleast_2d(lam)
    d01 = np.abs(lam[..., 0] - lam[..., 1])
    d12 = np.abs(lam[..., 1] - lam[..., 2])
    d02 = np.abs(lam[..., 0] - lam[..., 2])
    # rotate so the closest pair sits in slots (0, 1)
    closest = np.argmin(np.stack([d01, d12, d02], axis=-1), axis=-1)
    a = lam.copy()
    a[closest == 1] = np.roll(lam[closest == 1], -1, axis=-1)
    a[closest == 2] = lam[closest == 2][..., [0, 2, 1]]

    def pair_dd(x, y):
        d = x - y
        tiny = np.abs(d) * abs(L) < 1e-14
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.exp(expsign * y * L) * np.expm1(expsign * d * L) / d
        if np.any(tiny):
            out[tiny] = expsign * L * np.exp(expsign * x[tiny] * L)
        return out

    f01 = pair_dd(a[..., 0], a[..., 1])
    f12 = pair_dd(a[..., 1], a[..., 2])
    return (f01 - f12) / (a[..., 0] - a[..., 2])


@dataclass(frozen=True)
class SpectralFrame:
    """Root triple and boundary determinants at one frequency z."""

    z: complex
    L: float
    lam: np.ndarray
    detQ: complex
    P: complex
    Xi: complex
    G: complex
    H: complex


_XI_FALLBACK = 0.1  # below it det Q/Xi's eps/|Xi| error exceeds _dd2's (against mpmath)


def _over_xi(lam: np.ndarray, L: float, num, expsign: float):
    """num / Xi in (mantissa, log-scale) form; num is scaled P (expsign +1) or det Q (-1).

    Near root collisions (|Xi| < _XI_FALLBACK) the divided-difference form
    -expsign * dd2(expsign) is used, which is finite there by entirety.
    """
    m, s = num
    x = xi(lam)
    with np.errstate(invalid="ignore", divide="ignore"):
        m = m / x
    near = np.abs(x) < _XI_FALLBACK
    if np.any(near):
        m[near] = -expsign * _dd2(expsign, lam[near], L)
        s = np.where(near, 0.0, s)
    return m, s


def _shaped(z, m, s):
    if np.ndim(z) == 0:
        return m[0], float(np.atleast_1d(s)[0])
    return m.reshape(np.shape(z)), s.reshape(np.shape(z))


def h_scaled(z, L: float):
    """H = det Q / Xi as (hm, hs) with H = hm*exp(hs), valid for arbitrarily large z."""
    check_positive(L, "L")
    lam = np.atleast_2d(roots(z))
    return _shaped(z, *_over_xi(lam, L, detq_scaled(lam, L), -1.0))


def gh_scaled(z, L: float):
    """G and H in (mantissa, log-scale) form, valid for arbitrarily large z.

    Returns (gm, gs, hm, hs) with G = gm*exp(gs), H = hm*exp(hs); H is the
    h_scaled value, from the same root triple as G.
    """
    check_positive(L, "L")
    lam = np.atleast_2d(roots(z))
    gm, gs = _over_xi(lam, L, p_scaled(lam, L), 1.0)
    hm, hs = _over_xi(lam, L, detq_scaled(lam, L), -1.0)
    return _shaped(z, gm, gs) + _shaped(z, hm, hs)


def frame(z, L: float) -> SpectralFrame:
    """Full frame at one frequency; raw complex fields (may overflow for huge z).

    G and H are computed through the scaled path, so they are exact whenever
    they are representable even if det Q and P themselves overflow.
    """
    check_positive(L, "L")
    zc = complex(z)
    lam = roots(zc)[None, :]  # one root triple serves every field
    p, q = p_scaled(lam, L), detq_scaled(lam, L)
    parts = (q, p, _over_xi(lam, L, p, 1.0), _over_xi(lam, L, q, -1.0))
    with np.errstate(over="ignore"):
        detq, pval, g, h = (complex(m[0] * np.exp(s[0])) for m, s in parts)
    # Xi by scalar arithmetic on the triple: array products round differently
    x = complex(xi(lam[0]))
    return SpectralFrame(z=zc, L=L, lam=lam[0], detQ=detq, P=pval, Xi=x, G=g, H=h)


# ---------------------------------------------------------------------------
# Paley-Wiener gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PaleyWienerReport:
    """Fitted exponential-type constants of u-hat and u-hat*G/H on three lines."""

    T: float
    lines: tuple[float, ...]
    C_uhat: float
    C_uhat_gh: float
    n_excluded: int
    bound_holds: bool


_PW_LINES = (0.0, 1.0, -1.0)  # Im z of the sampled lines
_PW_POLE_TOL = 1e-6


def paley_wiener_check(
    u: np.ndarray, dt: float, T: float, L: float, z_max: float = 60.0, n_z: int = 241
) -> PaleyWienerReport:
    """Check |u^(z)| and |u^ G/H| <= C e^{T |Im z|} along horizontal lines.

    u is sampled on a uniform grid of step dt with support in [0, T].  The
    transform u^(z) = dt * sum u_j e^{-i z t_j} is evaluated directly (the
    lines are short), u^ G/H is sampled off the poles of H (points with a
    scaled |H| mantissa below _PW_POLE_TOL are excluded and counted), and the
    report carries the fitted constants C = max |f| e^{-T |Im z|}.
    """
    u = check_finite(u, "u")
    check_positive(dt, "dt")
    check_positive(T, "T")
    check_positive(z_max, "z_max")
    check_int(n_z, "n_z", 1)
    t = np.arange(u.size) * dt
    zs = np.linspace(-z_max, z_max, n_z)
    c_u = 0.0
    c_ugh = 0.0
    excluded = 0
    for y in _PW_LINES:
        z = zs + 1j * y
        uhat = dt * (u[None, :] * np.exp(-1j * np.outer(z, t))).sum(axis=1)
        c_u = max(c_u, float(np.max(np.abs(uhat) * np.exp(-T * abs(y)))))
        gm, gs, hm, hs = gh_scaled(z, L)
        ok = np.abs(hm) > _PW_POLE_TOL
        excluded += int(np.sum(~ok))
        ratio = np.abs(uhat[ok]) * np.abs(gm[ok] / hm[ok]) * np.exp(
            (gs[ok] - hs[ok]) - T * abs(y)
        )
        if ratio.size:
            c_ugh = max(c_ugh, float(np.max(ratio)))
    return PaleyWienerReport(
        T=T,
        lines=_PW_LINES,
        C_uhat=c_u,
        C_uhat_gh=c_ugh,
        n_excluded=excluded,
        bound_holds=np.isfinite(c_u) and np.isfinite(c_ugh),
    )
