"""Bump-based steering controls and the sign integrals I and J.

The construction: a Gevrey bump

    v-hat(z) = int_0^2 exp(-nu/(1-(t-1)^2)) exp(-i beta t z) dt,
    beta = T/2,  nu = 1.617 / sqrt(beta),

multiplied by the entire function H gives u-hat = v-hat * H, the transform of
a real control supported in [0, T] that steers the linearized system from 0
back to 0.  The companion spectrum

    w-hat = (3/(mu_3 L)) v-hat H'_gamma            (generic case)
    w-hat = (27/(mu_3^3 L^3)) z v-hat H'''_gamma    (case exp(eta_1 L) = 1)

normalizes the quadratic projection (the 1/L^d factor makes
|w-hat / u-hat| -> |z|^{-2d/3}, the normalization under which the leading
identity Re I ~ int |w|^2 holds with constant 1: the log-derivative of H is
-lambda_1'(z) L, so each H-derivative carries a factor of L): the integrals

    I = (1/E) int u-hat(z) conj(u-hat(z-p)) intB(z) dz      (and J with 1/F)

satisfy Re I ~ int |w|^2 with Im I < 0, which is what buys the improved
controllability time.

Numerics: |H| grows like exp(0.87 L z^{1/3}) along the real axis while
|v-hat| decays like exp(-sqrt(beta nu z)), so the integrands carry an interior
hump that can reach exp(hundreds) at small T.  Everything is therefore
evaluated in (mantissa, log-scale) form: the bump transform by contour
deformation through its endpoint saddles, H and its derivatives by scaled
Taylor jets, and intB by the kernel module's factored numerator (the det Q
poles cancel exactly against u-hat's H factors, leaving only the two
root-collision points of Xi, which are bridged by local polynomial fits).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .errors import CaseError, DomainError, ResolutionError, SupportLeak
from .jets import h_jets_scaled
from .kernel import interaction_numerator
from .numbertheory import CriticalPair
from .spectral import COLLISION_Z, MU, h_scaled, roots, xi
from .unreachable import constants

__all__ = [
    "ControlSpec",
    "SpectrumTriple",
    "SignReport",
    "SobolevNorm",
    "make_spec",
    "bump_vhat",
    "vhat1_scaled",
    "h_derivative_on_line",
    "steering_spectrum",
    "sign_report",
    "fractional_norm",
]

_GAMMA_CANDIDATES = (0.5, 1.0, 1.5, 2.0)
_BRIDGE_R = 1e-2  # half-width of the bridged interval around Xi zeros
# log of the largest spectral hump a double-precision reconstruction can cancel
_HUMP_LOG_LIMIT = 36.0 * math.log(10.0)


# ---------------------------------------------------------------------------
# bump transform
# ---------------------------------------------------------------------------


def _v1_direct(nu: float, w: float) -> float:
    """v1(w) = int_{-1}^1 e^{-nu/(1-t^2)} cos(w t) dt by weighted quadrature."""

    def body(t):
        om = 1.0 - t * t
        return math.exp(-nu / om) if om > 1e-12 else 0.0

    res = quad(
        body, 0.0, 1.0, weight="cos", wvar=abs(w), limit=300, epsabs=1e-15, epsrel=1e-13,
        full_output=1,
    )
    v1, err = 2.0 * res[0], 2.0 * res[1]
    # a fourth result means quad missed its tolerance; keep v1 only if the
    # error is below 1e-12 of |v1| or of the envelope e^{-sqrt(nu w)}
    if len(res) > 3 and err > 1e-12 * max(abs(v1), math.exp(-math.sqrt(nu * abs(w)))):
        raise ResolutionError(f"direct bump quadrature error {err:.2e} at w = {w:g}: {res[3]}")
    return v1


def _graded_panels(lo, hi, n: int, grow: float, from_lo: bool):
    """Panel endpoints on [lo, hi] with geometrically growing sizes (on a new last axis)."""
    r = grow ** np.arange(n)
    r = r / r.sum()
    cuts = np.concatenate([[0.0], np.cumsum(r)])
    if not from_lo:
        cuts = 1.0 - cuts[::-1]
    lo = np.asarray(lo)[..., None]
    return lo + (np.asarray(hi)[..., None] - lo) * cuts


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_CONTOUR_CHUNK = 512  # half-contour nodes per array pass; bounds the temporaries


def _leg_integral(panel_edges, phi_func):
    """Integrate e^{phi} along the panels on the last axis; returns (value, max Re phi)."""
    mid = 0.5 * (panel_edges[..., :-1] + panel_edges[..., 1:])
    half = 0.5 * (panel_edges[..., 1:] - panel_edges[..., :-1])
    lead = panel_edges.shape[:-1]
    t = (mid[..., None] + half[..., None] * _GL_X).reshape(lead + (-1,))
    wq = (half[..., None] * _GL_W).reshape(lead + (-1,))
    ph = phi_func(t)
    smax = ph.real.max(axis=-1)
    # temporary first: numpy reuses a large temporary as the output and then
    # puts it first, and the fused complex product rounds by operand order
    return (np.exp(ph - smax[..., None]) * wq).sum(axis=-1), smax


def _half_contour(nu: float, w):
    """(mantissa, log-scale) of C = e^{iw} * int over the right half path.

    By the t -> -conj(t) symmetry of the integrand, v1 = 2 Re(e^{-iw} C); the
    e^{iw} factor strips the fast endpoint phase, leaving the saddle exponent
    -(1 - i) sqrt(nu w) + O(1) that BumpTable removes before it interpolates.
    Vectorized over a 1-D w, in chunks of _CONTOUR_CHUNK nodes; every node
    takes the same steps it would alone.
    """
    w = np.asarray(w, dtype=float)
    total = np.empty(w.shape, dtype=complex)
    s_ref = np.empty(w.shape)
    for i in range(0, w.size, _CONTOUR_CHUNK):
        sl = slice(i, i + _CONTOUR_CHUNK)
        total[sl], s_ref[sl] = _half_contour_chunk(nu, w[sl])
    return total, s_ref


def _saddle(nu: float, w: np.ndarray) -> np.ndarray:
    """Saddle t+ near 1 of -nu/(1-t^2) - iwt by Newton; a node stops once its step converged."""
    t_plus = 1.0 - cmath.exp(1j * math.pi / 4) * np.sqrt(nu / (2.0 * w))
    active = np.arange(w.size)
    for _ in range(60):
        t, wa = t_plus[active], w[active]
        om = 1.0 - t * t
        fval = -2.0 * nu * t / om**2 - 1j * wa
        fder = -2.0 * nu * (1.0 / om**2 + 4.0 * t**2 / om**3)
        step = fval / fder
        t = t - step
        t_plus[active] = t
        active = active[np.abs(step) >= 1e-15 * np.abs(t)]
        if active.size == 0:
            break
    return t_plus


def _half_contour_chunk(nu: float, w: np.ndarray):
    t_plus = _saddle(nu, w)
    depth = np.minimum(np.abs(t_plus.imag) + (40.0 + np.sqrt(nu * w)) / w, 0.7)
    b_hi = t_plus.real - 1j * depth

    def phi(t):
        return -nu / (1.0 - t * t) - 1j * w[:, None] * (t - 1.0)

    legs = [
        np.linspace(-1j * depth, b_hi, 3, axis=-1),
        _graded_panels(b_hi, t_plus, 12, 1.5, from_lo=False),
        _graded_panels(t_plus, 1.0 + 0j, 14, 1.35, from_lo=True),
    ]
    vals, smaxs = zip(*(_leg_integral(edges, phi) for edges in legs))
    s_ref = np.maximum.reduce(smaxs)
    total = sum(v * np.exp(s - s_ref) for v, s in zip(vals, smaxs))
    return total, s_ref


_LAT_H = 0.04  # lattice step in ln q, q = sqrt(w)
_LAT_OFFS = np.arange(-3, 5)  # Lagrange stencil about the base node q_j <= q < q_{j+1}
_LAT_C = np.array([1.0 / np.prod([a - b for b in _LAT_OFFS if b != a]) for a in _LAT_OFFS])


def _wrap(x):
    """x reduced to [-pi, pi)."""
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def vhat1_scaled(nu: float, beta: float, z):
    """The real even factor v1(beta z) of the bump transform, as (m, log-scale).

    v-hat(z) = e^{-i beta z} v1(beta z).  Every call reads BumpTable(nu), so a
    value depends on (nu, beta z) alone: any subset of a grid, the scalar call
    included, gives values bit-identical to the full call.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    m, s = BumpTable(nu).eval_w(beta * np.abs(z_arr))
    if np.ndim(z) == 0:
        return float(m[0]), float(s[0])
    return m, s


class BumpTable:
    """v1(w) for one nu: direct quadrature below w_sw, a lattice table of the half contour above.

    Below the switch w_sw = (nu + 18)^2 / nu (sqrt(nu w) <= nu + 18, where the
    direct branch's cancellation of e^{sqrt(nu w) - nu} still leaves ~8
    digits) each distinct |w| gets one weighted quadrature.  Above it, v1 =
    2 Re(e^{-iw} C) with C the half contour, whose saddle exponent is
    -(1 - i) sqrt(nu w) + O(1).  With that exponent removed, log|C| + sqrt(nu w)
    and arg(C e^{-i sqrt(nu w)}) vary slowly in ln q, q = sqrt(w); they are
    tabulated at the lattice nodes q_k = q_0 e^{k h}, with q_0 and h fixed by
    nu alone, and each point is interpolated from its own 8-node Lagrange
    stencil, its phase unwrapped about the stencil's base node.  Only the nodes
    a request touches are built.  For T in [0.05, 50] and w <= 1e6 the result
    is within 1.2e-10 of |C| of the exact half contour, which is the rounding
    of the phase w itself.
    """

    def __init__(self, nu: float):
        self.nu = nu
        # (nu + 18)^2 / nu >= 72 for every nu > 0
        self.w_sw = (nu + 18.0) ** 2 / nu
        # the lowest stencil of a point above the switch starts at node 0
        self._lq0 = 0.5 * math.log(self.w_sw) + _LAT_OFFS[0] * _LAT_H

    def eval_w(self, w):
        w = np.asarray(w, dtype=float)
        aw = np.abs(w)
        m = np.empty(w.shape)
        s = np.zeros(w.shape)
        direct = aw <= self.w_sw
        # one quadrature per distinct |w|: symmetric grids repeat each twice
        uw, inv = np.unique(aw[direct], return_inverse=True)
        m[direct] = np.array([_v1_direct(self.nu, wi) for wi in uw])[inv]
        rest = ~direct
        if np.any(rest):
            m[rest], s[rest] = self._lattice(aw[rest])
        return m, s

    def _lattice(self, w: np.ndarray):
        x = (0.5 * np.log(w) - self._lq0) / _LAT_H
        j = np.floor(x)
        t = x - j
        base, row = np.unique(j.astype(np.int64), return_inverse=True)
        k = np.unique(base[:, None] + _LAT_OFFS)
        q = np.exp(self._lq0 + k * _LAT_H)
        c, cs = _half_contour(self.nu, q * q)
        rq = math.sqrt(self.nu) * q
        # log C + (1 - i) sqrt(nu w) = f + i g, g known modulo 2 pi
        f = np.log(np.abs(c)) + cs + rq
        g = np.angle(c) - rq
        # a stencil spans 7 steps; below pi/7 each the local unwrap is the true phase
        steps = np.abs(_wrap(np.diff(g)))[np.diff(k) == 1]
        if steps.max() > math.pi / (_LAT_OFFS.size - 1):
            raise ResolutionError(f"bump lattice phase step {steps.max():.2f} rad is under-resolved")
        first = np.searchsorted(k, base + _LAT_OFFS[0])
        cols = first[:, None] + np.arange(_LAT_OFFS.size)
        g0 = g[first - _LAT_OFFS[0]][:, None]
        tab_f, tab_g = f[cols].T, (g0 + _wrap(g[cols] - g0)).T
        d = [t - o for o in _LAT_OFFS]
        fi = gi = 0.0
        for i in range(_LAT_OFFS.size):
            wi = _LAT_C[i]
            for dm in d[:i] + d[i + 1 :]:
                wi = wi * dm
            fi = fi + wi * tab_f[i][row]
            gi = gi + wi * tab_g[i][row]
        rw = math.sqrt(self.nu) * np.sqrt(w)
        return 2.0 * np.cos(gi + rw - w), fi - rw


# ---------------------------------------------------------------------------
# control spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlSpec:
    """Bump parameters and the admissible shift gamma for one pair."""

    pair: CriticalPair
    T: float
    beta: float
    nu: float
    gamma: float
    case: int  # 1 generic, 2 when exp(eta_1 L) = 1

    @property
    def h_order(self) -> int:
        return 1 if self.case == 1 else 3


def h_derivative_on_line(pair: CriticalPair, gamma: float, z, d: int):
    """d-th derivative of H at z + i gamma via jets (d in {1, 3})."""
    if d not in (1, 3):
        raise DomainError(f"derivative order must be 1 or 3, got {d}")
    m, s0 = _h_deriv_scaled(pair, gamma, z, d)
    with np.errstate(over="ignore"):
        return m * np.exp(s0)


def _h_deriv_scaled(pair: CriticalPair, gamma: float, z, d: int):
    z_arr = np.asarray(z, dtype=complex) + 1j * gamma
    jet, s0 = h_jets_scaled(z_arr, pair.L, d)
    return jet[..., d] * math.factorial(d), s0


def _gamma_admissible(pair: CriticalPair, gamma: float, d: int) -> bool:
    zs = np.concatenate([np.linspace(-60.0, 60.0, 1201), np.geomspace(60.0, 1e5, 80)])
    zs = np.concatenate([zs, -np.geomspace(60.0, 1e5, 80)])
    m, s = _h_deriv_scaled(pair, gamma, zs, d)
    logmag = np.log(np.abs(m) + 1e-300) + s
    return bool(np.min(logmag) > math.log(1e-10))


def make_spec(pair: CriticalPair, T: float, gamma: float | None = None) -> ControlSpec:
    """Fix beta, nu and the first admissible gamma from {0.5, 1, 1.5, 2}.

    nu^2 = (1.617)^2 / beta exactly (the rounded restatement 5.223/T of the
    same choice is recorded by reports, not used).
    """
    if T <= 0:
        raise DomainError("T must be positive")
    beta = T / 2.0
    nu = 1.617 / math.sqrt(beta)
    case = 2 if pair.caseE0 else 1
    d = 1 if case == 1 else 3
    if gamma is None:
        for cand in _GAMMA_CANDIDATES:
            if _gamma_admissible(pair, cand, d):
                gamma = cand
                break
        else:
            raise DomainError(
                f"no admissible gamma among {_GAMMA_CANDIDATES} for pair "
                f"{(pair.k, pair.l)}"
            )
    return ControlSpec(pair=pair, T=T, beta=beta, nu=nu, gamma=gamma, case=case)


def bump_vhat(spec: ControlSpec, z):
    """v-hat(z) = e^{-i beta z} v1(beta z), unscaled (0.0 once it underflows)."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    m, s = vhat1_scaled(spec.nu, spec.beta, z_arr)
    with np.errstate(under="ignore"):
        vals = np.exp(-1j * spec.beta * z_arr) * m * np.exp(s)
    return complex(vals[0]) if np.ndim(z) == 0 else vals.reshape(np.shape(z))


# ---------------------------------------------------------------------------
# steering spectrum and time reconstruction
# ---------------------------------------------------------------------------


@dataclass
class SpectrumTriple:
    """Sampled spectra and the reconstructed time signals of one spec."""

    spec: ControlSpec
    z: np.ndarray
    vhat: np.ndarray
    uhat: np.ndarray
    what: np.ndarray
    t: np.ndarray
    u_time: np.ndarray
    w_time: np.ndarray
    outside_mass: float
    z_max: float


def _uhat_scaled(spec: ControlSpec, z: np.ndarray, v1, h):
    """u-hat = v-hat H on the real axis; v1 = v1(beta z), h = H(z) and the result are (m, s)."""
    (v1m, v1s), (hm, hs) = v1, h
    phase = np.exp(-1j * spec.beta * z)
    return phase * v1m * hm, v1s + hs


def _what_scaled(spec: ControlSpec, z: np.ndarray, v1, dh):
    """w-hat as (m, s): (3/mu3) v H'_g or (27/mu3^3) z v H'''_g; dh = H^(h_order)(z + i gamma)."""
    (v1m, v1s), (dm, ds) = v1, dh
    phase = np.exp(-1j * spec.beta * z)
    L = spec.pair.L
    if spec.case == 1:
        pref = 3.0 / (MU[2] * L)
        return pref * phase * v1m * dm, v1s + ds
    pref = 27.0 / (MU[2] ** 3 * L**3)
    return pref * z * phase * v1m * dm, v1s + ds


def _spectrum_cutoff(spec: ControlSpec, drop: float = 32.2) -> tuple[float, float]:
    """(Z, peak): Z beyond which log|u-hat| sits ``drop`` below its probed peak (1e-14)."""
    z_probe = np.geomspace(1.0, 1e9, 400)
    v1 = vhat1_scaled(spec.nu, spec.beta, z_probe)
    m, s = _uhat_scaled(spec, z_probe, v1, h_scaled(z_probe, spec.pair.L))
    logmag = np.log(np.abs(m) + 1e-300) + s
    peak = logmag.max()
    beyond = np.flatnonzero((logmag < peak - drop) & (z_probe > z_probe[np.argmax(logmag)]))
    if beyond.size == 0:
        raise SupportLeak("spectrum cutoff not reached by z = 1e9; raise the probe range")
    return float(z_probe[beyond[0]]), float(peak)


def _mirror(half, sign: int):
    """(m, s) on dz*(0..n/2) extended to dz*(-n/2..n/2-1) by f(-z) = sign * conj(f(z))."""
    m, s = half
    return np.concatenate([sign * np.conj(m[:0:-1]), m[:-1]]), np.concatenate([s[:0:-1], s[:-1]])


def _check_hump(s_peak: float) -> None:
    if s_peak > _HUMP_LOG_LIMIT:
        raise SupportLeak(
            f"spectral hump exp({s_peak:.1f}) exceeds double range; "
            "the time reconstruction is not representable at this T"
        )


_WINDOW = 8.0  # the time grid spans _WINDOW * T, from -_WINDOW * T / 4
_LEAK_TOL = 1e-6  # largest relative L^2 mass of u outside [0, T]


def steering_spectrum(spec: ControlSpec, n_fft: int = 1 << 17) -> SpectrumTriple:
    """Sample v-hat, u-hat, w-hat and reconstruct u, w on [-2T, 6T).

    The grid covers [-Z, Z] with Z set by the 1e-14 relative envelope cutoff;
    the inverse transform u(t) = (1/2pi) int u-hat e^{izt} dz is one FFT.
    Raises SupportLeak when the relative L^2 mass of u outside [0, T] exceeds
    _LEAK_TOL - because the grid is too coarse, or because the spectral
    hump exceeds float64 range (exp(~36)), in which case no double-precision
    quadrature can reconstruct the cancellation and the caller should move to
    a larger T.
    """
    z_max, probe_peak = _spectrum_cutoff(spec)
    _check_hump(probe_peak)  # a lower bound on the true peak: fail before the full grid
    t0 = -_WINDOW * spec.T / 4.0
    t_span = _WINDOW * spec.T
    dz_needed = 2.0 * math.pi / t_span
    n = n_fft
    while 2.0 * z_max / n > dz_needed and n < (1 << 24):
        n *= 2
    dz = 2.0 * z_max / n
    z = dz * (np.arange(n) - n // 2)
    # each z factor is evaluated once per |z| and mirrored by the cubic's
    # conjugation symmetry: v1 is real and even, H(-z) = conj(H(z)), and
    # H^(d)(-z + i g) = (-1)^d conj(H^(d)(z + i g)); the phase, prefactor and
    # z factor of the spectra apply on the full grid
    zh = dz * np.arange(n // 2 + 1)
    vm, vs = _mirror(vhat1_scaled(spec.nu, spec.beta, zh), 1)
    um, us = _uhat_scaled(spec, z, (vm, vs), _mirror(h_scaled(zh, spec.pair.L), 1))
    dh = _h_deriv_scaled(spec.pair, spec.gamma, zh, spec.h_order)
    wm, ws = _what_scaled(spec, z, (vm, vs), _mirror(dh, (-1) ** spec.h_order))
    _check_hump(float((np.log(np.abs(um) + 1e-300) + us).max()))
    with np.errstate(under="ignore"):
        uhat = um * np.exp(us)
        what = wm * np.exp(ws)
        vhat = np.exp(-1j * spec.beta * z) * vm * np.exp(vs)

    t = t0 + (2.0 * math.pi / (n * dz)) * np.arange(n)

    def inverse(spectrum):
        shifted = spectrum * np.exp(1j * z * t0)
        series = n * np.fft.ifft(shifted * np.exp(-1j * z[0] * t0))
        vals = (dz / (2.0 * math.pi)) * np.exp(1j * z[0] * t) * series
        return vals

    u_t = inverse(uhat)
    w_t = inverse(what)
    im_ratio = np.abs(u_t.imag).max() / max(np.abs(u_t.real).max(), 1e-300)
    if im_ratio > 1e-6:
        raise SupportLeak(f"reconstructed control not real (Im ratio {im_ratio:.2e})")
    u_t = u_t.real
    w_t = w_t.real
    inside = (t >= 0.0) & (t <= spec.T)
    total = float(np.sum(u_t**2))
    outside_mass = float(np.sum(u_t[~inside] ** 2) / max(total, 1e-300))
    if outside_mass > _LEAK_TOL:
        raise SupportLeak(
            f"outside-[0,T] mass {outside_mass:.3e} > {_LEAK_TOL:g}; "
            "raise n_fft, or the hump defeats double precision"
        )
    return SpectrumTriple(
        spec=spec,
        z=z,
        vhat=vhat,
        uhat=uhat,
        what=what,
        t=t,
        u_time=u_t,
        w_time=w_t,
        outside_mass=outside_mass,
        z_max=z_max,
    )


# ---------------------------------------------------------------------------
# the sign integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignReport:
    """I (or J) in units of int |w-hat|^2 dz, plus sign-condition diagnostics.

    ``value`` is I / int |w-hat(z)|^2 dz (equivalently I / int |w(t)|^2 dt in
    the unitary convention); the unnormalized integrals overflow any float at
    small T, and every inequality in the analysis is relative to this
    normalizer.  ``log_norm_w`` carries the normalizer's natural log.
    """

    pair: tuple[int, int]
    case: int
    T: float
    gamma: float
    value: complex  # I / int |w-hat|^2
    log_norm_w: float  # log int |w-hat|^2 dz
    wshift: complex  # int w-hat(z) conj(w-hat(z-p)) dz / int |w-hat|^2
    re_ratio: float  # Re value
    im_ratio: float  # Im value / T
    prop37_ratio: complex  # (int u ubar intB / ||u||_{H^{-s}}^2), -> E or F
    z_peak: float
    log_peak: float
    n_grid: int

    def as_dict(self) -> dict:
        k, l = self.pair
        p = CriticalPair(k, l).p
        return {
            "pair": list(self.pair),
            "case": self.case,
            "T": self.T,
            "gamma": self.gamma,
            "value": [self.value.real, self.value.imag],
            "log_norm_w": self.log_norm_w,
            "wshift": [self.wshift.real, self.wshift.imag],
            "re_ratio": self.re_ratio,
            "im_ratio_over_T": self.im_ratio,
            "im_ratio_plus_p": self.im_ratio + p,
            "prop37_ratio": [self.prop37_ratio.real, self.prop37_ratio.imag],
            "z_peak": self.z_peak,
            "log_peak": self.log_peak,
            "n_grid": self.n_grid,
        }


def _band_grid(spec: ControlSpec, n_side: int):
    """Signed grid uniform in |z|^{1/3}, covering the support of the hump."""
    z_cut, _ = _spectrum_cutoff(spec, drop=46.0)  # 1e-20 relative envelope
    s_max = z_cut ** (1.0 / 3.0)
    s = np.linspace(0.0, s_max, n_side)
    z_pos = s**3
    z = np.concatenate([-z_pos[::-1][:-1], z_pos])
    return z


def _bridge_mask(z: np.ndarray, p: float) -> np.ndarray:
    mask = np.zeros(z.shape, dtype=bool)
    for c in (COLLISION_Z, -COLLISION_Z):
        mask |= np.abs(z - c) < _BRIDGE_R
        mask |= np.abs((z - p) - c) < _BRIDGE_R
    return mask


def _bridge_fill(z: np.ndarray, mant: np.ndarray, logs: np.ndarray, mask: np.ndarray):
    """Replace masked samples by a quartic fit of mantissa*exp(logs - ref).

    The factored integrand is analytic across the Xi zeros; only the raw
    quotient is 0/0 there, so a local polynomial in z recovers the values.
    """
    bad = np.flatnonzero(mask)
    if bad.size == 0:
        return mant, logs
    mant = mant.copy()
    logs = logs.copy()
    good = np.flatnonzero(~mask)
    for i in bad:
        order = np.argsort(np.abs(z[good] - z[i]))
        sel = good[order[:9]]
        ref = logs[sel].max()
        vals = mant[sel] * np.exp(logs[sel] - ref)
        coef_r = np.polyfit(z[sel] - z[i], vals.real, 4)
        coef_i = np.polyfit(z[sel] - z[i], vals.imag, 4)
        mant[i] = coef_r[-1] + 1j * coef_i[-1]
        logs[i] = ref
    return mant, logs


def _scaled_integral(z: np.ndarray, mant: np.ndarray, logs: np.ndarray):
    """Trapezoid of mant*exp(logs) over z, returned as (mantissa, log-scale)."""
    ref = float(logs.max())
    with np.errstate(under="ignore"):
        vals = mant * np.exp(logs - ref)
    return np.trapezoid(vals, z), ref


def sign_report(spec: ControlSpec, n_side: int = 24001) -> SignReport:
    """I (case 1, with 1/E) or J (case 2, with 1/F) for one (pair, T), with its diagnostics.

    I = (1/E) int u-hat(z) conj(u-hat(z-p)) intB(z) dz; J uses 1/F and the
    third-derivative w-hat.  The value is normalized by int |w-hat|^2 dz (see
    SignReport).
    """
    pair = spec.pair
    p = pair.p
    data = constants(pair)
    denom_const = data.E if spec.case == 1 else data.F
    if abs(denom_const) == 0:
        raise CaseError(f"leading constant vanishes for pair {(pair.k, pair.l)}")
    z = _band_grid(spec, n_side)
    d = spec.h_order

    # one bump-factor call serves both shifts
    v1m, v1s = vhat1_scaled(spec.nu, spec.beta, np.concatenate([z, z - p]))
    v1m_z, v1m_s = np.split(v1m, 2)
    v1s_z, v1s_s = np.split(v1s, 2)

    # factored integrand: vhat(z) conj(vhat(z-p)) NUM / (Xi(z) conj(Xi(z-p)))
    num_m, num_s = interaction_numerator(pair, z.astype(complex))
    xi_z = xi(roots(z.astype(complex)))
    xi_s = xi(roots((z - p).astype(complex)))
    phase = np.exp(-1j * spec.beta * p)  # e^{-i b z} conj(e^{-i b (z-p)})
    with np.errstate(invalid="ignore", divide="ignore"):
        mant = phase * v1m_z * v1m_s * num_m / (xi_z * np.conj(xi_s) * denom_const)
    logs = v1s_z + v1s_s + num_s
    mant, logs = _bridge_fill(z, mant, logs, _bridge_mask(z, p))
    ival_m, ival_s = _scaled_integral(z, mant, logs)

    # normalizers from w-hat = pref * v-hat * H^(d) on the shifted line
    dm_z, ds_z = _h_deriv_scaled(pair, spec.gamma, z, d)
    dm_s, ds_s = _h_deriv_scaled(pair, spec.gamma, z - p, d)
    if spec.case == 1:
        pref = 3.0 / (MU[2] * pair.L)
        wm_z, wm_s = pref * v1m_z * dm_z, pref * v1m_s * dm_s
    else:
        pref = 27.0 / (MU[2] ** 3 * pair.L**3)
        wm_z, wm_s = pref * z * v1m_z * dm_z, pref * (z - p) * v1m_s * dm_s
    ws_z = v1s_z + ds_z
    ws_s = v1s_s + ds_s
    n_m, n_s = _scaled_integral(z, np.abs(wm_z) ** 2, 2.0 * ws_z)
    # e^{-i beta z} conj(e^{-i beta (z-p)}) = e^{-i beta p} again
    c_m, c_s = _scaled_integral(z, phase * wm_z * np.conj(wm_s), ws_z + ws_s)

    # statement-level ratio of the small-time projection result:
    # int u ubar(.-p) intB dz / ||u||_{H^{-s}}^2 -> E (s = 2/3) or F (s = 1)
    sob = 2.0 / 3.0 if spec.case == 1 else 1.0
    hm_z, hs_z = h_scaled(z, pair.L)
    weight = (1.0 + z**2) ** (-sob)
    h_m, h_s = _scaled_integral(
        z, np.abs(v1m_z * hm_z) ** 2 * weight, 2.0 * (v1s_z + hs_z)
    )

    ratio = (ival_m / n_m) * math.exp(ival_s - n_s)
    wshift = (c_m / n_m) * math.exp(c_s - n_s)
    prop37 = denom_const * (ival_m / h_m) * math.exp(ival_s - h_s)

    wlog = np.log(np.abs(wm_z) + 1e-300) + ws_z
    i_pk = int(np.argmax(wlog))
    return SignReport(
        pair=(pair.k, pair.l),
        case=spec.case,
        T=spec.T,
        gamma=spec.gamma,
        value=complex(ratio),
        log_norm_w=float(math.log(abs(n_m)) + n_s),
        wshift=complex(wshift),
        re_ratio=float(ratio.real),
        im_ratio=float(ratio.imag / spec.T),
        prop37_ratio=complex(prop37),
        z_peak=float(abs(z[i_pk])),
        log_peak=float(wlog[i_pk]),
        n_grid=int(z.size),
    )


# ---------------------------------------------------------------------------
# fractional Sobolev norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SobolevNorm:
    s: float
    value: float
    n_fft: int


_PAD_FACTOR = 8  # FFT length over the next power of two of the signal


def fractional_norm(u: np.ndarray, s: float, dt: float) -> SobolevNorm:
    """H^s(R)-norm of the zero-extension of a sampled signal.

    value = (int (1 + xi^2)^s |u-hat(xi)|^2 dxi)^{1/2} with the unitary
    transform, evaluated by zero-padded FFT; s = 0 recovers the Riemann-sum
    L^2 norm exactly (discrete Parseval).
    """
    if not -2.0 <= s <= 2.0:
        raise DomainError("s outside the supported band [-2, 2]")
    u = np.asarray(u, dtype=float)
    n = int(_PAD_FACTOR * 2 ** math.ceil(math.log2(max(u.size, 2))))
    spec = dt * np.fft.fft(u, n=n) / math.sqrt(2.0 * math.pi)
    xi_grid = 2.0 * math.pi * np.fft.fftfreq(n, d=dt)
    dxi = 2.0 * math.pi / (n * dt)
    val = math.sqrt(float(np.sum((1.0 + xi_grid**2) ** s * np.abs(spec) ** 2) * dxi))
    return SobolevNorm(s=s, value=val, n_fft=n)
