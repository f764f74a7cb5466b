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
evaluated in (mantissa, log-scale) form, and each factor by one _Table: a near
function up to a switch and, above it, an 8-node stencil read from a
log-lattice of the log with its growth taken out.  The bump transform's near
function is a checked trapezoid rule (exponentially convergent: the bump is
flat at t = +-1), its nodes the contour through its endpoint saddles.  H and
H^(d) (the partial fractions of det Q/Xi, jets.py) are exact up to |z| = 5 and
at the nodes.  So is intB H(z) H(p-z), the kernel module's N/(Xi Xi~), whose
Xi factors come from the root triples of N itself: u-hat's H factors cancel
exactly, so no det Q pole remains.  It is symmetric about z = p/2 (the kernel
pairs the profiles at z and p - z), so it is read at max(z, p - z); its near
range holds both root collisions of Xi (N and Xi Xi~ vanish together there,
no float hits them, and it is ~1e-8 accurate within 2 ulp of them,
tests/test_kernel.py).  u(t) and the real profile of w(t) are one real inverse
FFT each of the z >= 0 half spectra: w-hat is built in that real-signal form,
w-hat / (kappa/|kappa|), in which the mu_3 above cancels (_spectra).  Only the
bump depends on T: the H and numerator tables, the gamma check and the cutoff
probe's H are held once per critical pair (_PairTables), so a T sweep builds
them once.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import cache, cached_property
from typing import ClassVar

import numpy as np

from .errors import CaseError, DomainError, ResolutionError, SupportLeak
from .errors import check_int, check_positive, check_signal, check_type, in_double_range
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
_QUAD_ROWS = 64  # w per block of the rule: a 64 x 1024 block of terms (512 KB) stays in cache


def quad(nu: float, f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """v1(w) = 2 int_0^1 e^{-nu/(1-t^2)} cos(w t) dt from f_i = e^{-nu/(1-t_i^2)}, per w.

    w is a 1-D array of distinct values; the rule runs on blocks of _QUAD_ROWS
    of them, one row of terms per w, and each row's sums are those of the
    rule at that w alone, so a value does not depend on the batch.  Raises
    ResolutionError naming the first w of the batch whose step-1/N sum
    differs from the step-1/(2N) sum by more than the gate.
    """
    out = np.empty(w.shape)
    floor = 16 * np.finfo(float).eps * f.sum() / _TRAP_N
    for a in range(0, w.size, _QUAD_ROWS):
        wb = w[a : a + _QUAD_ROWS]
        terms = f * np.cos(wb[:, None] * _TRAP_T)
        terms[:, 0] *= 0.5  # end weight: step h = 1/(2N) on [0, 1] gives v1 = 2 h sum
        fine = terms.sum(axis=1) / _TRAP_N
        gap = np.abs(fine - 2.0 * terms[:, ::2].sum(axis=1) / _TRAP_N)  # the rule of step 1/N
        bad = np.flatnonzero(gap > 1e-7 * np.exp(-np.sqrt(nu * wb)) + floor)
        if bad.size:
            i = bad[0]
            raise ResolutionError(f"bump trapezoid rule under-resolved at w = {wb[i]:g}: gap {gap[i]:.2e}")
        out[a : a + _QUAD_ROWS] = fine
    return out


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


_LAT_OFFS = np.arange(-3, 5)  # Lagrange stencil about the base node a_j <= a < a_{j+1}
_LAT_C = np.array([1.0 / np.prod([a - b for b in _LAT_OFFS if b != a]) for a in _LAT_OFFS])
_LAT_FIRST = _LAT_OFFS[0] - 1  # rounding can put a point just above the switch on base -1
_LAT_BLOCK = 16384  # points per stencil block: the working set stays in cache


def _wrap(x):
    """x reduced to [-pi, pi)."""
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _cis(x):
    """e^{ix} for real x: cos into .real and sin into .imag of one complex array."""
    out = np.empty(np.shape(x), dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


class _Table:
    """A function of the 1-D a >= 0 as (m, s): near(a) up to a_sw, a lattice read above.

    Node k, a_k = a_sw e^{k h}, stores log|m| + s + Re rot(a_k) and arg m +
    Im rot(a_k) of (m, s) = node(a_k); rot takes out the growth, so both vary
    slowly in ln a.  A point above a_sw is read by _lattice_interp, and its
    mantissa is finish(phase, a), phase and log-scale less Im and Re rot(a).
    The nodes are held contiguously from _LAT_FIRST to the highest read so
    far, and a read builds only those past them, each from its a_k alone: a
    held table reads what a fresh one gives, bit for bit.  No boolean mask: if
    any a exceeds a_sw, the lattice reads every a raised to a_sw, and near's
    values overwrite the points at or below it by index.
    """

    def __init__(self, near, node, rot, finish, a_sw: float, h: float, what: str):
        self.near, self.node, self.rot, self.finish = near, node, rot, finish
        self.a_sw, self.h, self.what = a_sw, h, what
        self._log_sw = math.log(a_sw)
        self._held = None

    def _nodes(self, k: np.ndarray) -> np.ndarray:
        """The stored pairs at the contiguous ascending nodes k, k[0] >= _LAT_FIRST, on the last axis."""
        n = 0 if self._held is None else self._held.shape[-1]
        end = k[-1] + 1 - _LAT_FIRST
        if end > n:
            ak = np.exp(self._log_sw + (_LAT_FIRST + np.arange(n, end)) * self.h)
            (m, s), r = self.node(ak), self.rot(ak)
            new = np.stack([np.log(np.abs(m)) + s + r.real, np.angle(m) + r.imag])
            self._held = new if self._held is None else np.concatenate([self._held, new], axis=-1)
            self._held.flags.writeable = False  # readers share the held nodes
        return self._held[..., k[0] - _LAT_FIRST : end]

    def __call__(self, a: np.ndarray):
        lo = np.flatnonzero(a <= self.a_sw)
        if lo.size == a.size:
            return self.near(a)
        ac = np.maximum(a, self.a_sw)
        f, g = _lattice_interp((np.log(ac) - self._log_sw) / self.h, self._nodes, self.what)
        r = self.rot(ac)
        g -= r.imag
        f -= r.real
        m = self.finish(g, ac)
        if lo.size:
            m[..., lo], f[..., lo] = self.near(a[lo])
        return m, f


def _lattice_interp(x: np.ndarray, nodes, what: str):
    """(f, g) at lattice coordinates x, each from its 8-node Lagrange stencil.

    nodes(k) gives f and the phase g (mod 2 pi; leading axes are tables on
    one lattice) at every node k from min floor(x) - 3 to max floor(x) + 4,
    so base floor(x) = min floor(x) + b reads columns b .. b + 7; g is
    unwrapped about floor(x), so a value depends on x alone.  The stencils
    are evaluated in blocks of _LAT_BLOCK points with the per-point
    arithmetic of one whole-array pass, so a value does not depend on the
    blocks either.
    """
    j = np.floor(x)
    t = x - j
    jb = j.astype(np.int64)
    j_lo = jb.min()
    # a new array, not jb in place: with both, glibc keeps its heap top between
    # steering_spectrum calls; in place, the spectrum benchmark took 1.75x the page faults
    row = jb - j_lo
    n_base = row.max() + 1
    f, g = nodes(j_lo + np.arange(_LAT_OFFS[0], n_base + _LAT_OFFS[-1]))
    # a stencil spans 7 steps; below pi/7 each the local unwrap is the true phase
    step = np.abs(_wrap(np.diff(g))).max()
    if step > math.pi / (_LAT_OFFS.size - 1):
        raise ResolutionError(f"{what} lattice phase step {step:.2f} rad is under-resolved")
    cols = np.arange(n_base)[:, None] + np.arange(_LAT_OFFS.size)
    g0 = g[..., -_LAT_OFFS[0] : n_base - _LAT_OFFS[0], None]
    tab_f = np.moveaxis(f[..., cols], -1, 0)
    tab_g = np.moveaxis(g0 + _wrap(g[..., cols] - g0), -1, 0)
    fi, gi = np.zeros(f.shape[:-1] + x.shape), np.zeros(g.shape[:-1] + x.shape)
    for a in range(0, x.size, _LAT_BLOCK):
        tb, rb = t[a : a + _LAT_BLOCK], row[a : a + _LAT_BLOCK]
        d = tb - _LAT_OFFS[:, None]
        # w_i = C_i prod_{m != i} (t - o_m), the factors taken in increasing m:
        # at step s rows i > s take factor s and rows i <= s skip i for s + 1
        wts = np.repeat(_LAT_C[:, None], tb.size, axis=1)
        for s in range(_LAT_OFFS.size - 1):
            wts[s + 1 :] *= d[s]
            wts[: s + 1] *= d[s + 1]
        fb, gb = fi[..., a : a + _LAT_BLOCK], gi[..., a : a + _LAT_BLOCK]
        for i in range(_LAT_OFFS.size):
            fb += wts[i] * np.take(tab_f[i], rb, axis=-1)
            gb += wts[i] * np.take(tab_g[i], rb, axis=-1)
    return fi, gi


def vhat1_scaled(table: BumpTable, beta: float, z: np.ndarray):
    """The real even factor v1(beta z) of v-hat(z) = e^{-i beta z} v1(beta z) at the 1-D z, as (m, log-scale).

    Read from the BumpTable of nu, so a value depends on (nu, beta z) alone:
    a subset of a grid reads the full call's values.
    """
    return table.eval_w(beta * np.abs(z))


_BUMP_STEP = 0.08  # the bump lattice's step in ln w


class BumpTable:
    """v1(w) for one nu: a trapezoid rule up to w_sw, a _Table of the half contour above.

    Up to w_sw = min((nu + 18)^2 / nu, max(80, 8 nu)) the distinct |w| go to one
    batched quad call, the trapezoid rule of step 1/(2N), N = 512 (a row per w,
    so the batch does not change a value); it raises ResolutionError when the
    step-1/N sum differs by more than 1e-7 e^{-sqrt(nu w)} (first met at
    T = 2300) plus 16 eps (1/N) sum f_i (2.7 measured, T in [0.001, 50]).  It is
    within 1.9e-10, 4.2e-10, 4.0e-12, 1.7e-14, 1.7e-15 and 7.8e-16 e^{-sqrt(nu w)}
    of mpmath at T = 0.01, 0.05, 0.4, 5, 25, 50.  Above it, v1 = 2 Re(e^{-iw} C)
    with C the half contour, whose saddle exponent -(1 - i) sqrt(nu w) the
    table takes out (rot) at the nodes w_k = w_sw e^{0.08 k}; a read gives
    2 cos(phase - w).  The table is per spec (ControlSpec.bump): its nodes
    depend on T through nu, so a T sweep would not reuse them.
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
        self._table = _Table(
            self._rule,
            lambda w: _half_contour(nu, w),
            lambda w: (1.0 - 1.0j) * (math.sqrt(nu) * np.sqrt(w)),
            lambda phase, w: 2.0 * np.cos(phase - w),
            self.w_sw, _BUMP_STEP, "bump",
        )

    def eval_w(self, w):
        """(m, log-scale) of v1 at a 1-D w."""
        return self._table(np.abs(np.asarray(w, dtype=float)))

    def _rule(self, w):
        # one rule per distinct w: symmetric grids repeat each twice
        uw, inv = np.unique(w, return_inverse=True)
        return quad(self.nu, np.exp(-self.nu / (1.0 - _TRAP_T**2)), uw)[inv], np.zeros(w.shape)


# ---------------------------------------------------------------------------
# control spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlSpec:
    """The bump parameters of one (pair, T), gamma checked admissible (|H^(d)| > 1e-10 on the line).

    The verdict depends on the pair alone: its record (_PairTables) probes it once.
    """

    pair: CriticalPair
    T: float
    gamma: ClassVar[float] = _GAMMA

    def __post_init__(self) -> None:
        check_type(self.pair, CriticalPair, "pair")
        check_positive(self.T, "T")
        if not _pair_tables(self.pair).gamma_ok:
            pair = (self.pair.k, self.pair.l)
            raise DomainError(f"gamma = {self.gamma} is not admissible for pair {pair}")

    @property
    def beta(self) -> float:
        return self.T / 2.0

    @property
    def nu(self) -> float:  # nu^2 = 1.617^2 / beta exactly; the rounded restatement 5.223/T is not used
        return 1.617 / math.sqrt(self.beta)

    @property
    def case(self) -> int:  # 1 generic, 2 when exp(eta_1 L) = 1
        return 2 if self.pair.caseE0 else 1

    @property
    def h_order(self) -> int:  # the pair record's d
        return _pair_tables(self.pair).d

    @cached_property
    def bump(self) -> BumpTable:
        """The spec's one BumpTable(nu): the cutoff probe and the grids share its nodes."""
        return BumpTable(self.nu)


def _gamma_admissible(pair: CriticalPair, gamma: float, d: int) -> bool:
    # |H^(d)(-z + i gamma)| = |H^(d)(z + i gamma)|, so z >= 0 probes the whole line
    zs = np.concatenate([np.linspace(0.0, 60.0, 601), np.geomspace(60.0, 1e5, 80)])
    m, s = h_jets_scaled(zs + 1j * gamma, pair.L, d)
    logmag = np.log(np.abs(m) + 1e-300) + s
    return bool(np.min(logmag) > math.log(1e-10))


def make_spec(pair: CriticalPair, T: float) -> ControlSpec:
    """The ControlSpec of (pair, T)."""
    return ControlSpec(pair, T)


# ---------------------------------------------------------------------------
# steering spectrum and time reconstruction
# ---------------------------------------------------------------------------


@dataclass
class SpectrumTriple:
    """The spectral grid and the reconstructed time signals of one spec.

    w-hat = kappa g-hat with g real, kappa = -3i/(mu3 L) (case 1) or 27/(mu3 L)^3 (case 2),
    |mu3| = 1, and w_time = |kappa| g: w(t) = e^{i arg kappa} w_time, arg kappa = -pi/3 or pi/2.
    """

    z: np.ndarray
    t: np.ndarray
    u_time: np.ndarray
    w_time: np.ndarray
    outside_mass: float
    z_max: float


# the H and numerator tables: exact up to |z| = _H_SW, read from the nodes z_k = _H_SW e^{k _H_STEP} above
_H_SW, _H_STEP = 5.0, 0.03
_PROBE_Z = np.geomspace(1.0, 1e9, 400)  # the spectrum cutoff probe's fixed points


class _PairTables:
    """The T-independent tables of one critical pair, each filled on first use.

    d is H's derivative order (1 generic, 3 when exp(eta_1 L) = 1).  h is the
    _Table of H(z) and H^(d)(z + i gamma), numerator that of intB H(z) H(p - z),
    each exact (near and node) with the growth rot of H(a) and H(a) H(p - a).
    H mirrors z < 0 onto |z| and the numerator z < p/2 onto p - z, so each
    table holds positive abscissae.  gamma_ok is ControlSpec's gamma verdict
    and probe_h is H at _spectrum_cutoff's probe.  _pair_tables keeps one
    record per pair, so a T sweep builds each node, the gamma probe and the
    probe's H once, and a warm record reads what a fresh one gives.  The
    analytic layers are looked up at each call, so a wrapper set after the
    record was made is still called.
    """

    def __init__(self, pair: CriticalPair):
        self.pair, self.d = pair, 3 if pair.caseE0 else 1
        L, p = pair.L, pair.p

        def table(exact, rot, what):
            return _Table(exact, exact, rot, lambda phase, a: _cis(phase), _H_SW, _H_STEP, what)

        self.h = table(self._h_exact, lambda a: MU[0] * L * np.cbrt(a), "H")
        self.numerator = table(
            lambda a: interaction_numerator(pair, a),
            lambda a: MU[0] * L * np.cbrt(a) + np.conj(MU[0]) * L * np.cbrt(a - p),
            "numerator",
        )

    def _h_exact(self, a):
        hm, hs = h_scaled(a, self.pair.L)
        dm, ds = h_jets_scaled(a + 1j * _GAMMA, self.pair.L, self.d)
        return np.stack([hm, dm]), np.stack([hs, ds])

    @cached_property
    def gamma_ok(self) -> bool:
        return _gamma_admissible(self.pair, _GAMMA, self.d)

    @cached_property
    def probe_h(self):
        m, s = h_scaled(_PROBE_Z, self.pair.L)
        m.flags.writeable = s.flags.writeable = False  # every spec of the pair reads them
        return m, s


_pair_tables = cache(_PairTables)  # one record per pair for the process; cache_clear() empties it


def _h_factors(spec: ControlSpec, z: np.ndarray):
    """H(z) and H^(d)(z + i gamma), d = h_order, as (m, s) pairs at the 1-D real z.

    The H reader of _spectra.  Above |z| = _H_SW
    each log factor plus mu_1 L |z|^{1/3}, the dominant root's exponent, is read
    from the pair's H table (see steering_spectrum); z < 0 mirrors |z| by
    H(-z) = conj H(z) and H^(d)(-z + i gamma) = (-1)^d conj H^(d)(z + i gamma).
    """
    m, s = _pair_tables(spec.pair).h(np.abs(z))
    neg = np.flatnonzero(z < 0.0)
    if neg.size:
        m[:, neg] = np.conj(m[:, neg])
        m[1, neg] *= (-1) ** spec.h_order
    return (m[0], s[0]), (m[1], s[1])


def _spectra(spec: ControlSpec, z: np.ndarray):
    """v1, e^{i beta z} u-hat and e^{i beta z} |kappa| g-hat as (m, s) pairs at the 1-D real z.

    v1 = v1(beta z), and H, H^(d) come from _h_factors: e^{i beta z} u-hat = v1 H.
    w-hat = kappa g-hat (SpectrumTriple) is (3/(mu3 L)) v-hat H'_gamma or
    (27/(mu3 L)^3) z v-hat H'''_gamma; its mu3 cancels against kappa/|kappa|, so
    e^{i beta z} |kappa| g-hat = (3i/L) v1 H'_gamma or (27/L^3) z v1 H'''_gamma:
    the one statement of w-hat's prefactor.
    """
    v1m, v1s = v1 = vhat1_scaled(spec.bump, spec.beta, z)
    (hm, hs), (dm, ds) = _h_factors(spec, z)
    L = spec.pair.L
    pref = 3j / L if spec.case == 1 else 27.0 / L**3 * z
    return v1, (v1m * hm, v1s + hs), (pref * v1m * dm, v1s + ds)


def _numerator(spec: ControlSpec, z: np.ndarray):
    """N/(Xi Xi~) = intB H(z) H(p - z) as (m, s) at the 1-D real z, read at a = max(z, p - z).

    The kernel pairs the profiles at z and p - z, so the quotient is symmetric
    about p/2.  It is the exact kernel.interaction_numerator at a up to _H_SW
    (both root collisions, and z near p as p < 0.39) and at the nodes; above,
    each log plus R = mu_1 L a^{1/3} + conj(mu_1) L (a - p)^{1/3}, the growth
    of H(a) H(p - a), is read from the pair's numerator table.
    """
    p = spec.pair.p
    return _pair_tables(spec.pair).numerator(np.maximum(z, p - z))


def _spectrum_cutoff(spec: ControlSpec, drop: float = 32.2) -> tuple[float, float]:
    """(Z, peak): Z beyond which log|u-hat| sits ``drop`` below its probed peak (1e-14)."""
    # both entry points read the bump here first; from T ~ 1e135 its saddle or beta z overflow
    with in_double_range(f"the spectrum cutoff probe at T = {spec.T:g}"):
        v1m, v1s = vhat1_scaled(spec.bump, spec.beta, _PROBE_Z)
    # H at the probe is exact, computed once per pair: a lattice read would build nodes to 1e9
    hm, hs = _pair_tables(spec.pair).probe_h
    logmag = np.log(np.abs(v1m * hm) + 1e-300) + (v1s + hs)
    peak = logmag.max()
    beyond = np.flatnonzero((logmag < peak - drop) & (_PROBE_Z > _PROBE_Z[np.argmax(logmag)]))
    if beyond.size == 0:
        raise SupportLeak("spectrum cutoff not reached by z = 1e9; u-hat decays too slowly at this T, use a larger T")
    return float(_PROBE_Z[beyond[0]]), float(peak)


def _check_hump(s_peak: float) -> None:
    if s_peak > _HUMP_LOG_LIMIT:
        raise SupportLeak(
            f"spectral hump exp({s_peak:.1f}) exceeds double range; "
            "the time reconstruction is not representable at this T"
        )


_WINDOW = 8.0  # the time grid spans _WINDOW * T, from -_WINDOW * T / 4
_LEAK_TOL = 1e-6  # largest relative L^2 mass of u outside [0, T]
_N_MIN = 1 << 17  # the fewest grid points; n doubles from here until dz resolves the window


def steering_spectrum(spec: ControlSpec) -> SpectrumTriple:
    """Sample u-hat and w-hat and reconstruct u, w on [-2T, 6T).

    The grid z_m = m dz, m = -n/2 .. n/2 - 1, covers [-Z, Z) with Z set by the
    1e-14 envelope cutoff; n is _N_MIN = 2^17, doubled until dz resolves the
    window, so n depends on the spec alone.  Every z factor and the hump check
    are evaluated on the z >= 0 half grid only: as u-hat(-z) = conj u-hat(z),
    u(t_j) = (n dz/2pi) irfft(X)_j on t_j = t0 + 2 pi j/(n dz), X_m = u-hat(z_m)
    e^{i z_m t0}, m = 0 .. n/2, and w_time is the irfft of |kappa| g-hat (see
    SpectrumTriple and _spectra).  The unpaired full-grid sample z = -Z would add
    i (dz/2pi) Im X_{n/2} to u; it raises SupportLeak above 1e-6 max|u|.
    H(z) and H^(d)(z + i gamma) are exact up to z = _H_SW = 5; above it each
    log factor plus mu_1 L z^{1/3} is read by an 8-node Lagrange stencil
    from the nodes z_k = 5 e^{0.03 k} of the pair's _Table, which is within
    4e-13 of the exact factors on [5, 1e5] and 1.5e-12 on [1e6, 5e6] for
    (3,2): up to 2.6 eps L z^{1/3}, the rounding of their phase.
    Raises SupportLeak when the relative L^2 mass of u outside [0, T] exceeds
    _LEAK_TOL - because the grid is too coarse, or because the spectral
    hump exceeds float64 range (exp(~36)), in which case no double-precision
    quadrature can reconstruct the cancellation and the caller should move to
    a larger T.
    """
    check_type(spec, ControlSpec, "spec")
    z_max, probe_peak = _spectrum_cutoff(spec)
    _check_hump(probe_peak)  # a lower bound on the true peak: fail before the full grid
    t0 = -_WINDOW * spec.T / 4.0
    dz_needed = 2.0 * math.pi / (_WINDOW * spec.T)
    n = _N_MIN
    while 2.0 * z_max / n > dz_needed and n < (1 << 24):
        n *= 2
    dz = 2.0 * z_max / n
    zh = dz * np.arange(n // 2 + 1)
    # v1 is dropped here, so only u-hat and w-hat are held through the transforms
    (um, us), (wm, ws) = _spectra(spec, zh)[1:]
    _check_hump(float((np.log(np.abs(um) + 1e-300) + us).max()))
    phase = _cis(-spec.beta * zh)
    with np.errstate(under="ignore"):
        uhat = um * phase * np.exp(us)
        what = wm * phase * np.exp(ws)
    del um, us, wm, ws, phase
    scale, shift = n * dz / (2.0 * math.pi), _cis(t0 * zh)
    u_t = scale * np.fft.irfft(uhat * shift, n)
    im_ratio = scale / n * abs((uhat[-1] * shift[-1]).imag) / max(np.abs(u_t).max(), 1e-300)
    if im_ratio > 1e-6:
        raise SupportLeak(f"reconstructed control not real (Im ratio {im_ratio:.2e} at z = -Z)")
    w_t = scale * np.fft.irfft(what * shift, n)
    t = t0 + (2.0 * math.pi / (n * dz)) * np.arange(n)
    inside = (t >= 0.0) & (t <= spec.T)
    total = float(np.sum(u_t**2))
    outside_mass = float(np.sum(u_t[~inside] ** 2) / max(total, 1e-300))
    if outside_mass > _LEAK_TOL:
        raise SupportLeak(
            f"outside-[0,T] mass {outside_mass:.3e} > {_LEAK_TOL:g}; "
            "the grid does not resolve u, or the hump defeats double precision"
        )
    return SpectrumTriple(
        z=dz * (np.arange(n) - n // 2),
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
    SignReport).  u-hat and w-hat come from _spectra, as in steering_spectrum,
    and intB H(z) H(p-z) from _numerator; both read their pair's tables above _H_SW.
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

    # one spectra call serves both shifts
    v1, (um, us), (wm, ws) = _spectra(spec, zz)
    (v1m_z, v1m_s), (v1s_z, v1s_s) = (np.split(a, 2) for a in v1)

    # u-hat(z) conj(u-hat(z-p)) intB(z): with conj(H(z-p)) = H(p-z) both H
    # factors cancel against the kernel's m e^s = intB H(z) H(p-z), leaving
    # vhat(z) conj(vhat(z-p)) m e^s
    num_m, num_s = _numerator(spec, z)
    phase = np.exp(-1j * spec.beta * p)  # e^{-i b z} conj(e^{-i b (z-p)})
    mant = phase * v1m_z * v1m_s * num_m / denom_const
    logs = v1s_z + v1s_s + num_s
    ival_m, ival_s = _scaled_integral(z, mant, logs)

    # normalizers from w-hat: kappa's phase cancels in |w-hat|^2 and in
    # w-hat(z) conj(w-hat(z-p)), whose bump phases give e^{-i beta p} again
    (wm_z, wm_s), (ws_z, ws_s) = np.split(wm, 2), np.split(ws, 2)
    n_m, n_s = _scaled_integral(z, np.abs(wm_z) ** 2, 2.0 * ws_z)
    c_m, c_s = _scaled_integral(z, phase * wm_z * np.conj(wm_s), ws_z + ws_s)

    # statement-level ratio of the small-time projection result:
    # int u ubar(.-p) intB dz / ||u||_{H^{-s}}^2 -> E (s = 2/3) or F (s = 1)
    sob = 2.0 / 3.0 if spec.case == 1 else 1.0
    h_m, h_s = _scaled_integral(z, np.abs(um[: z.size]) ** 2 * (1.0 + z**2) ** (-sob), 2.0 * us[: z.size])

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
    if isinstance(s, bool) or not (isinstance(s, numbers.Real) and -2.0 <= s <= 2.0):
        raise DomainError(f"s must be a real number in the supported band [-2, 2], got {s!r:.40}")
    u = check_signal(u, "u")
    check_positive(dt, "dt")
    n = int(_PAD_FACTOR * 2 ** math.ceil(math.log2(max(u.size, 2))))
    with in_double_range(f"fractional_norm at dt = {dt:g}"):
        spec = dt * np.fft.fft(u, n=n) / math.sqrt(2.0 * math.pi)
        xi_grid = 2.0 * math.pi * np.fft.fftfreq(n, d=dt)
        dxi = 2.0 * math.pi / (n * dt)
        val = math.sqrt(float(np.sum((1.0 + xi_grid**2) ** s * np.abs(spec) ** 2) * dxi))
    return SobolevNorm(s=s, value=val, n_fft=n)
