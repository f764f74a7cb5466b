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
evaluated in (mantissa, log-scale) form: the bump transform by a checked
trapezoid rule below a switch (exponentially convergent: the bump is flat at
t = +-1) and by contour deformation through its endpoint saddles above it, H
and H^(d) by scaled Taylor jets below |z| = 5 and from one log-lattice table
above (read by the steering spectrum and the sign integrals alike), and
intB H(z) H(p-z) by the kernel module's N/(Xi Xi~), whose Xi factors come from
the root triples of N itself: u-hat's H factors cancel exactly, so no det Q
pole remains, and the quotient is summed as computed: N and Xi Xi~ vanish
together only at the exact root collisions of Xi, which no float hits, and it
is ~1e-8 accurate within 2 ulp of them (tests/test_kernel.py).  u(t) and the
real profile of w(t) are one real inverse FFT each of the z >= 0 half spectra.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CaseError, DomainError, ResolutionError, SupportLeak
from .errors import check_finite, check_int, check_positive, check_type
from .jets import h_jets_scaled
from .kernel import interaction_numerator
from .numbertheory import CriticalPair
from .spectral import MU, h_scaled
from .unreachable import constants

__all__ = [
    "ControlSpec",
    "SpectrumTriple",
    "SignReport",
    "SobolevNorm",
    "make_spec",
    "steering_spectrum",
    "sign_report",
    "fractional_norm",  # waits on ROADMAP direction 9 for a production caller
]

_GAMMA = 0.5  # the line z + i gamma of H^(d); admissible for every pair with k <= 12
# log of the largest spectral hump a double-precision reconstruction can cancel
_HUMP_LOG_LIMIT = 36.0 * math.log(10.0)


# ---------------------------------------------------------------------------
# bump transform
# ---------------------------------------------------------------------------


_TRAP_N, _TRAP_T = 512, np.arange(1024) / 1024.0  # trapezoid nodes t_i = i/(2N); f(1) = 0


def quad(nu: float, f: np.ndarray, w: float) -> float:
    """v1(w) = 2 int_0^1 e^{-nu/(1-t^2)} cos(w t) dt from f_i = e^{-nu/(1-t_i^2)}."""
    terms = f * np.cos(w * _TRAP_T)
    terms[0] *= 0.5  # end weight: step h = 1/(2N) on [0, 1] gives v1 = 2 h sum
    fine = terms.sum() / _TRAP_N
    gap = abs(fine - 2.0 * terms[::2].sum() / _TRAP_N)  # the even nodes: the rule of step 1/N
    if gap > 1e-7 * math.exp(-math.sqrt(nu * w)) + 16 * np.finfo(float).eps * f.sum() / _TRAP_N:
        raise ResolutionError(f"bump trapezoid rule under-resolved at w = {w:g}: gap {gap:.2e}")
    return float(fine)


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


def _half_contour(nu: float, w: np.ndarray):
    """(mantissa, log-scale) of C = e^{iw} * int over the right half path.

    By the t -> -conj(t) symmetry of the integrand, v1 = 2 Re(e^{-iw} C); the
    e^{iw} factor strips the fast endpoint phase, leaving the saddle exponent
    -(1 - i) sqrt(nu w) + O(1) that BumpTable removes before it interpolates.
    Vectorized over a 1-D w in one array pass; every node takes the same steps
    it would alone.
    """
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
    """v1(w) for one nu: a trapezoid rule below w_sw, a lattice table of the half contour above.

    Below the switch w_sw = min((nu + 18)^2 / nu, max(80, 8 nu)) each distinct
    |w| gets one quad call, the trapezoid rule of step 1/(2N), N = 512; it raises
    ResolutionError when the step-1/N sum differs by more than 1e-7 e^{-sqrt(nu w)}
    (first met at T = 2300) plus 16 eps (1/N) sum f_i (2.7 measured, T in [0.001, 50]).
    It is within 1.9e-10, 4.2e-10, 4.0e-12, 1.7e-14, 1.7e-15 and 7.8e-16 e^{-sqrt(nu w)}
    of mpmath at T = 0.01, 0.05, 0.4, 5, 25, 50.  Above it, v1 = 2 Re(e^{-iw} C) with
    C the half contour, whose saddle exponent is -(1 - i) sqrt(nu w) + O(1).
    With that exponent removed, log|C| + sqrt(nu w) and arg(C e^{-i sqrt(nu w)})
    vary slowly in ln q, q = sqrt(w); they are tabulated at the lattice nodes
    q_k = q_0 e^{k h}, with q_0 and h fixed by nu alone, and each point is
    interpolated from its own 8-node Lagrange stencil, its phase unwrapped
    about the stencil's base node.  Only the nodes a request touches are built.
    For T in [0.05, 50] and w <= 1e6 the result is within 1.2e-10 of |C| of
    the exact half contour, which is the rounding of the phase w itself.

    The switch is 80 for T > 0.0598 (nu < 9.35), where the lattice is within
    5e-13 of |C| of the exact half contour on [80, 240] and, for T in [1, 50],
    within 6.9e-11 of e^{-sqrt(nu w)} of the rule up to sqrt(nu w) = nu + 12.
    At smaller T the 8 nu term keeps (nu + 18)^2 / nu: a lattice started at 0.7 w_sw
    misses the half contour by 7e-6 |C|, the rule at w_sw mpmath by 9.6e-10 e^{-sqrt(nu w)}.
    """

    def __init__(self, nu: float):
        self.nu = nu
        self.w_sw = min((nu + 18.0) ** 2 / nu, max(80.0, 8.0 * nu))
        # the lowest stencil of a point above the switch starts at node 0
        self._lq0 = 0.5 * math.log(self.w_sw) + _LAT_OFFS[0] * _LAT_H

    def eval_w(self, w):
        aw = np.abs(np.asarray(w, dtype=float))
        m, s = np.empty(aw.shape), np.zeros(aw.shape)
        direct = aw <= self.w_sw
        # one rule per distinct |w|: symmetric grids repeat each twice
        uw, inv = np.unique(aw[direct], return_inverse=True)
        f = np.exp(-self.nu / (1.0 - _TRAP_T**2))
        m[direct] = np.array([quad(self.nu, f, wi) for wi in uw])[inv]
        if not direct.all():
            m[~direct], s[~direct] = self._lattice(aw[~direct])
        return m, s

    def _lattice(self, w: np.ndarray):
        def nodes(k):
            q = np.exp(self._lq0 + k * _LAT_H)
            c, cs = _half_contour(self.nu, q * q)
            rq = math.sqrt(self.nu) * q
            # log C + (1 - i) sqrt(nu w) = f + i g, g known modulo 2 pi
            return np.log(np.abs(c)) + cs + rq, np.angle(c) - rq

        fi, gi = _lattice_interp((0.5 * np.log(w) - self._lq0) / _LAT_H, nodes, "bump")
        rw = math.sqrt(self.nu) * np.sqrt(w)
        return 2.0 * np.cos(gi + rw - w), fi - rw


def _lattice_interp(x: np.ndarray, nodes, what: str):
    """(f, g) at lattice coordinates x, each from its 8-node Lagrange stencil.

    nodes(k) gives f and the phase g (mod 2 pi; leading axes are tables on
    one lattice) at the nodes k that the stencils floor(x) - 3 .. floor(x) + 4
    touch; g is unwrapped about floor(x), so a value depends on x alone.
    """
    j = np.floor(x)
    t = x - j
    base, row = np.unique(j.astype(np.int64), return_inverse=True)
    k = np.unique(base[:, None] + _LAT_OFFS)
    f, g = nodes(k)
    # a stencil spans 7 steps; below pi/7 each the local unwrap is the true phase
    steps = np.abs(_wrap(np.diff(g)))[..., np.diff(k) == 1]
    if steps.max() > math.pi / (_LAT_OFFS.size - 1):
        raise ResolutionError(f"{what} lattice phase step {steps.max():.2f} rad is under-resolved")
    first = np.searchsorted(k, base + _LAT_OFFS[0])
    cols = first[:, None] + np.arange(_LAT_OFFS.size)
    g0 = g[..., first - _LAT_OFFS[0], None]
    tab_f = np.moveaxis(f[..., cols], -1, 0)
    tab_g = np.moveaxis(g0 + _wrap(g[..., cols] - g0), -1, 0)
    d = [t - o for o in _LAT_OFFS]
    fi = gi = 0.0
    for i in range(_LAT_OFFS.size):
        wi = _LAT_C[i]
        for dm in d[:i] + d[i + 1 :]:
            wi = wi * dm
        fi = fi + wi * np.take(tab_f[i], row, axis=-1)
        gi = gi + wi * np.take(tab_g[i], row, axis=-1)
    return fi, gi


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


def _h_deriv_scaled(pair: CriticalPair, gamma: float, z, d: int):
    z_arr = np.asarray(z, dtype=complex) + 1j * gamma
    jet, s0 = h_jets_scaled(z_arr, pair.L, d)
    return jet[..., d] * math.factorial(d), s0


def _gamma_admissible(pair: CriticalPair, gamma: float, d: int) -> bool:
    # |H^(d)(-z + i gamma)| = |H^(d)(z + i gamma)|, so z >= 0 probes the whole line
    zs = np.concatenate([np.linspace(0.0, 60.0, 601), np.geomspace(60.0, 1e5, 80)])
    m, s = _h_deriv_scaled(pair, gamma, zs, d)
    logmag = np.log(np.abs(m) + 1e-300) + s
    return bool(np.min(logmag) > math.log(1e-10))


def make_spec(pair: CriticalPair, T: float) -> ControlSpec:
    """Fix beta, nu and gamma = 0.5, checked admissible (|H^(d)| > 1e-10 on the line).

    nu^2 = (1.617)^2 / beta exactly; the rounded restatement 5.223/T of the
    same choice is neither used nor recorded.
    """
    check_type(pair, CriticalPair, "pair")
    check_positive(T, "T")
    beta = T / 2.0
    nu = 1.617 / math.sqrt(beta)
    case = 2 if pair.caseE0 else 1
    d = 1 if case == 1 else 3
    if not _gamma_admissible(pair, _GAMMA, d):
        raise DomainError(f"gamma = {_GAMMA} is not admissible for pair {(pair.k, pair.l)}")
    return ControlSpec(pair=pair, T=T, beta=beta, nu=nu, gamma=_GAMMA, case=case)


# ---------------------------------------------------------------------------
# steering spectrum and time reconstruction
# ---------------------------------------------------------------------------


@dataclass
class SpectrumTriple:
    """Sampled spectra and the reconstructed time signals of one spec.

    w-hat = kappa g-hat with g real, kappa = -3i/(mu3 L) (case 1) or 27/(mu3 L)^3 (case 2),
    |mu3| = 1, and w_time = |kappa| g: w(t) = e^{i arg kappa} w_time, arg kappa = -pi/3 or pi/2.
    """

    spec: ControlSpec
    z: np.ndarray
    uhat: np.ndarray
    what: np.ndarray
    t: np.ndarray
    u_time: np.ndarray
    w_time: np.ndarray
    outside_mass: float
    z_max: float


def _uhat_scaled(v1, h):
    """e^{i beta z} u-hat = v1 H on the real axis, as (m, s); v1 = v1(beta z), h = H(z)."""
    (v1m, v1s), (hm, hs) = v1, h
    return v1m * hm, v1s + hs


def _what_scaled(spec: ControlSpec, z: np.ndarray, v1, dh):
    """e^{i beta z} w-hat as (m, s): (3/(mu3 L)) v1 H'_g or (27/(mu3 L)^3) z v1 H'''_g.

    dh = H^(h_order)(z + i gamma); this is the one home of the w-hat prefactor.
    """
    (v1m, v1s), (dm, ds) = v1, dh
    L = spec.pair.L
    pref = 3.0 / (MU[2] * L) if spec.case == 1 else 27.0 / (MU[2] ** 3 * L**3) * z
    return pref * v1m * dm, v1s + ds


# steering H factors: exact below z = _H_SW, from the lattice z_k = exp(_H_LZ0 + k _H_STEP) above
_H_SW, _H_STEP = 5.0, 0.03
_H_LZ0 = math.log(_H_SW)


def _h_factors(spec: ControlSpec, z):
    """H(z) and H^(d)(z + i gamma), d = h_order, as (m, s) pairs for real z.

    The one H reader of steering_spectrum and sign_report.  Above |z| = _H_SW
    each log factor plus mu_1 L |z|^{1/3}, the dominant root's exponent, is read
    from the lattice (see steering_spectrum); z < 0 mirrors |z| by
    H(-z) = conj H(z) and H^(d)(-z + i gamma) = (-1)^d conj H^(d)(z + i gamma).
    """
    z = np.asarray(z, dtype=float)
    neg, z = z < 0.0, np.abs(z)
    lo = z < _H_SW

    def exact(zs):
        hm, hs = h_scaled(zs, spec.pair.L)
        dm, ds = _h_deriv_scaled(spec.pair, spec.gamma, zs, spec.h_order)
        return np.stack([hm, dm]), np.stack([hs, ds])

    def nodes(k):
        zk = np.exp(_H_LZ0 + k * _H_STEP)
        mk, sk = exact(zk)
        rk = MU[0] * spec.pair.L * np.cbrt(zk)
        return np.log(np.abs(mk)) + sk + rk.real, np.angle(mk) + rk.imag

    m, s = np.empty((2,) + z.shape, dtype=complex), np.empty((2,) + z.shape)
    m[:, lo], s[:, lo] = exact(z[lo])
    if not lo.all():
        fi, gi = _lattice_interp((np.log(z[~lo]) - _H_LZ0) / _H_STEP, nodes, "H")
        r = MU[0] * spec.pair.L * np.cbrt(z[~lo])
        m[:, ~lo], s[:, ~lo] = _cis(gi - r.imag), fi - r.real
    m[:, neg] = np.conj(m[:, neg])
    m[1, neg] *= (-1) ** spec.h_order
    return (m[0], s[0]), (m[1], s[1])


def _spectrum_cutoff(spec: ControlSpec, drop: float = 32.2) -> tuple[float, float]:
    """(Z, peak): Z beyond which log|u-hat| sits ``drop`` below its probed peak (1e-14)."""
    z_probe = np.geomspace(1.0, 1e9, 400)
    v1 = vhat1_scaled(spec.nu, spec.beta, z_probe)
    m, s = _uhat_scaled(v1, h_scaled(z_probe, spec.pair.L))
    logmag = np.log(np.abs(m) + 1e-300) + s
    peak = logmag.max()
    beyond = np.flatnonzero((logmag < peak - drop) & (z_probe > z_probe[np.argmax(logmag)]))
    if beyond.size == 0:
        raise SupportLeak("spectrum cutoff not reached by z = 1e9; raise the probe range")
    return float(z_probe[beyond[0]]), float(peak)


def _cis(x):
    """e^{ix} for real x: cos into .real and sin into .imag of one complex array."""
    out = np.empty(np.shape(x), dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _mirror(half: np.ndarray, c) -> np.ndarray:
    """f on dz*(0..n/2) extended to dz*(-n/2..n/2-1) by f(-z) = c conj(f(z))."""
    return np.concatenate([c * np.conj(half[:0:-1]), half[:-1]])


def _check_hump(s_peak: float) -> None:
    if s_peak > _HUMP_LOG_LIMIT:
        raise SupportLeak(
            f"spectral hump exp({s_peak:.1f}) exceeds double range; "
            "the time reconstruction is not representable at this T"
        )


_WINDOW = 8.0  # the time grid spans _WINDOW * T, from -_WINDOW * T / 4
_LEAK_TOL = 1e-6  # largest relative L^2 mass of u outside [0, T]


def steering_spectrum(spec: ControlSpec, n_fft: int = 1 << 17) -> SpectrumTriple:
    """Sample u-hat and w-hat and reconstruct u, w on [-2T, 6T).

    The grid z_m = m dz, m = -n/2 .. n/2 - 1, covers [-Z, Z) with Z set by the
    1e-14 envelope cutoff; n is n_fft (even, >= 2), doubled until dz resolves the
    window.  Every z factor and the hump check are evaluated on the z >= 0 half
    grid, and uhat, what are mirrored from it: as u-hat(-z) = conj u-hat(z),
    u(t_j) = (n dz/2pi) irfft(X)_j on t_j = t0 + 2 pi j/(n dz), X_m = u-hat(z_m)
    e^{i z_m t0}, m = 0 .. n/2, and w_time is the irfft of w-hat/kappa (see
    SpectrumTriple).  The unpaired full-grid sample z = -Z would add
    i (dz/2pi) Im X_{n/2} to u; it raises SupportLeak above 1e-6 max|u|.
    H(z) and H^(d)(z + i gamma) are exact below z = _H_SW = 5; above it each
    log factor plus mu_1 L z^{1/3} is read by an 8-node Lagrange stencil
    from the nodes z_k = 5 e^{0.03 k} (the BumpTable scheme), which is within
    4e-13 of the exact factors on [5, 1e5] and 1.5e-12 on [1e6, 5e6] for
    (3,2): up to 2.6 eps L z^{1/3}, the rounding of their phase.
    Raises SupportLeak when the relative L^2 mass of u outside [0, T] exceeds
    _LEAK_TOL - because the grid is too coarse, or because the spectral
    hump exceeds float64 range (exp(~36)), in which case no double-precision
    quadrature can reconstruct the cancellation and the caller should move to
    a larger T.
    """
    check_type(spec, ControlSpec, "spec")
    check_int(n_fft, "n_fft", 2, even=True)
    z_max, probe_peak = _spectrum_cutoff(spec)
    _check_hump(probe_peak)  # a lower bound on the true peak: fail before the full grid
    t0 = -_WINDOW * spec.T / 4.0
    dz_needed = 2.0 * math.pi / (_WINDOW * spec.T)
    n = n_fft
    while 2.0 * z_max / n > dz_needed and n < (1 << 24):
        n *= 2
    dz = 2.0 * z_max / n
    zh = dz * np.arange(n // 2 + 1)
    v1 = vhat1_scaled(spec.nu, spec.beta, zh)
    h, dh = _h_factors(spec, zh)
    um, us = _uhat_scaled(v1, h)
    _check_hump(float((np.log(np.abs(um) + 1e-300) + us).max()))
    wm, ws = _what_scaled(spec, zh, v1, dh)
    del h, dh, v1  # h and dh share one buffer; free it before the transforms
    phase = _cis(-spec.beta * zh)
    with np.errstate(under="ignore"):
        uhat = um * phase * np.exp(us)
        what = wm * phase * np.exp(ws)
    del um, us, wm, ws, phase
    rot = (-1j if spec.case == 1 else 1.0) * np.conj(MU[2]) ** spec.h_order  # kappa/|kappa|
    scale, shift = n * dz / (2.0 * math.pi), _cis(t0 * zh)
    u_t = scale * np.fft.irfft(uhat * shift, n)
    im_ratio = scale / n * abs((uhat[-1] * shift[-1]).imag) / max(np.abs(u_t).max(), 1e-300)
    if im_ratio > 1e-6:
        raise SupportLeak(f"reconstructed control not real (Im ratio {im_ratio:.2e} at z = -Z)")
    w_t = scale * np.fft.irfft(what * shift * np.conj(rot), n)
    t = t0 + (2.0 * math.pi / (n * dz)) * np.arange(n)
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
        z=dz * (np.arange(n) - n // 2),
        uhat=_mirror(uhat, 1),
        what=_mirror(what, rot * rot),
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
    SignReport).  H and H^(d) come from _h_factors, as in steering_spectrum.
    """
    check_type(spec, ControlSpec, "spec")
    check_int(n_side, "n_side", 2)
    pair = spec.pair
    p = pair.p
    data = constants(pair)
    denom_const = data.E if spec.case == 1 else data.F
    if abs(denom_const) == 0:
        raise CaseError(f"leading constant vanishes for pair {(pair.k, pair.l)}")
    z = _band_grid(spec, n_side)
    zz = np.concatenate([z, z - p])

    # one bump-factor call serves both shifts
    v1 = vhat1_scaled(spec.nu, spec.beta, zz)
    (v1m_z, v1m_s), (v1s_z, v1s_s) = (np.split(a, 2) for a in v1)

    # u-hat(z) conj(u-hat(z-p)) intB(z): with conj(H(z-p)) = H(p-z) both H
    # factors cancel against the kernel's m e^s = intB H(z) H(p-z), leaving
    # vhat(z) conj(vhat(z-p)) m e^s
    num_m, num_s = interaction_numerator(pair, z)
    phase = np.exp(-1j * spec.beta * p)  # e^{-i b z} conj(e^{-i b (z-p)})
    mant = phase * v1m_z * v1m_s * num_m / denom_const
    logs = v1s_z + v1s_s + num_s
    ival_m, ival_s = _scaled_integral(z, mant, logs)

    # normalizers from w-hat on the shifted line, one H-factor call for H(z) and both
    # H^(d) shifts; the bump phases of w-hat(z) conj(w-hat(z-p)) give e^{-i beta p} again
    h, dh = _h_factors(spec, zz)
    wm, ws = _what_scaled(spec, zz, v1, dh)
    (wm_z, wm_s), (ws_z, ws_s) = np.split(wm, 2), np.split(ws, 2)
    n_m, n_s = _scaled_integral(z, np.abs(wm_z) ** 2, 2.0 * ws_z)
    c_m, c_s = _scaled_integral(z, phase * wm_z * np.conj(wm_s), ws_z + ws_s)

    # statement-level ratio of the small-time projection result:
    # int u ubar(.-p) intB dz / ||u||_{H^{-s}}^2 -> E (s = 2/3) or F (s = 1)
    sob = 2.0 / 3.0 if spec.case == 1 else 1.0
    um, us = _uhat_scaled((v1m_z, v1s_z), [a[: z.size] for a in h])
    h_m, h_s = _scaled_integral(z, np.abs(um) ** 2 * (1.0 + z**2) ** (-sob), 2.0 * us)

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
    u = check_finite(u, "u")
    check_positive(dt, "dt")
    n = int(_PAD_FACTOR * 2 ** math.ceil(math.log2(max(u.size, 2))))
    spec = dt * np.fft.fft(u, n=n) / math.sqrt(2.0 * math.pi)
    xi_grid = 2.0 * math.pi * np.fft.fftfreq(n, d=dt)
    dxi = 2.0 * math.pi / (n * dt)
    val = math.sqrt(float(np.sum((1.0 + xi_grid**2) ** s * np.abs(spec) ** 2) * dxi))
    return SobolevNorm(s=s, value=val, n_fft=n)
