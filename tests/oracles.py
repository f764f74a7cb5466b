"""Test-only oracles and wrappers around kdvcrit internals.

None of these is on a production path, so they live with the tests; no
module under src/kdvcrit imports this one (tests/test_exports.py checks it).
"""

import numpy as np
from scipy.linalg import cholesky

from kdvcrit import pde
from kdvcrit.errors import DomainError, NotReachable, ResolutionError, check_positive
from kdvcrit.jets import h_jets_scaled
from kdvcrit.kernel import _check_poles
from kdvcrit.spectral import MU, POLE_TOL, detq_scaled, roots
from kdvcrit.synthesis import (
    _LAT_C,
    _LAT_OFFS,
    BumpTable,
    _h_factors,
    _wrap,
    vhat1_scaled,
)
from kdvcrit.unreachable import eta_triple, phi_x


def profile_scaled(lam: np.ndarray, L: float, x, s) -> np.ndarray:
    """Terms (e^{lambda_{j+1} L} - e^{lambda_j L}) e^{lambda_{j+2} x - s}, last axis j.

    Their sum is the solution profile divided by e^s.  x and s broadcast
    against lam[..., 0]; each exponent is formed whole, so with s the det Q
    scale nothing overflows for x in [0, L].  Two exps a term: the kernel's
    _end_profiles must match it bit for bit at x = 0 and x = L.
    """
    lp2x = np.roll(lam, -2, axis=-1) * np.asarray(x)[..., None]
    s = np.asarray(s)[..., None]
    return np.exp(np.roll(lam, -1, axis=-1) * L + lp2x - s) - np.exp(lam * L + lp2x - s)


def B_eval(pair, z, x):
    """Pointwise kernel B(z, x); vectorized over x for scalar z."""
    L = pair.L
    zc = complex(z)
    lam = roots(zc)
    lamt = roots(pair.p - zc)
    (qm, qs), (qtm, qts) = detq_scaled(lam, L), detq_scaled(lamt, L)
    _check_poles((abs(qm) < POLE_TOL) | (abs(qtm) < POLE_TOL), zc)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    fa = profile_scaled(lam, L, x_arr, qs).sum(axis=-1) / qm
    ga = profile_scaled(lamt, L, x_arr, qts).sum(axis=-1) / qtm
    out = fa * ga * phi_x(eta_triple(pair), x_arr)
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


def intb_mp(pair, z):
    """The 27-term sum N of int f g phi_x at z, with det Q det Q~ and Xi Xi~.

    mpmath values at the caller's working precision: N / (det Q det Q~) is
    int B and N / (Xi Xi~) the sign integrand's quotient, whose log stays
    representable where the quotient itself leaves double range.
    """
    import mpmath as mp

    L, p = mp.mpf(pair.L), mp.mpf(pair.p)
    lam = mp.polyroots([1, 0, 1, 1j * mp.mpf(z)], maxsteps=200, extraprec=200)
    mu = mp.polyroots([1, 0, 1, -1j * (mp.mpf(z) - p)], maxsteps=200, extraprec=200)
    eta = [mp.mpc(e) for e in eta_triple(pair).eta]

    def profile(r):
        return [(mp.exp(r[(j + 1) % 3] * L) - mp.exp(r[j] * L), r[(j + 2) % 3]) for j in range(3)]

    total = 0
    for f, lf in profile(lam):
        for g, lg in profile(mu):
            for k in range(3):
                a = lf + lg + eta[(k + 2) % 3]
                c = (eta[(k + 1) % 3] - eta[k]) * eta[(k + 2) % 3]
                total += c * f * g * (mp.exp(a * L) - 1) / a
    return total, _detq_mp(lam, L) * _detq_mp(mu, L), _xi_mp(lam) * _xi_mp(mu)


def _detq_mp(r, L):
    import mpmath as mp

    return sum((r[(j + 1) % 3] - r[j]) * mp.exp(-r[(j + 2) % 3] * L) for j in range(3))


def _xi_mp(r):
    return -(r[1] - r[0]) * (r[2] - r[1]) * (r[0] - r[2])


def h_derivative_mp(pair, z, d: int, dps: int = 40):
    """(log |H^(d)(z)|, arg H^(d)(z)) as floats, from mp.diff of det Q / Xi at dps digits.

    det Q and Xi are formed from the three roots, not from the partial
    fractions that jets.h_jets_scaled sums, so the two are independent.  The
    value itself leaves double range at large z; its log does not.
    """
    import mpmath as mp

    with mp.workdps(dps):
        L = mp.mpf(pair.L)

        def h(w):
            r = mp.polyroots([1, 0, 1, 1j * w], maxsteps=200, extraprec=200)
            return _detq_mp(r, L) / _xi_mp(r)

        val = mp.diff(h, mp.mpc(z), d)
        return float(mp.log(abs(val))), float(mp.arg(val))


def shifted_asymptotic_roots(z: np.ndarray, order: int, p: float) -> np.ndarray:
    """Large-z expansions of the roots of mu^3 + mu - i(z - p) = 0 for real z > 0.

    With mu~_j = conj(mu_j):
    order 1: mu~_j z^{1/3}
    order 2: + (-1/(3 mu~_j)) z^{-1/3}
    order 3: + the p-linear corrections -(1/3) mu~_j p z^{-2/3} - p z^{-4/3}/(9 mu~_j)
    """
    mu = np.conj(MU)
    c = np.cbrt(z)[:, None]
    lam = mu * c
    if order >= 2:
        lam = lam - 1.0 / (3.0 * mu * c)
    if order >= 3:
        lam = lam - mu * p / (3.0 * c**2) - p / (9.0 * mu * c**4)
    return lam


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
    m, s = vhat1_scaled(BumpTable(spec.nu), spec.beta, z_arr)
    with np.errstate(under="ignore"):
        vals = np.exp(-1j * spec.beta * z_arr) * m * np.exp(s)
    return complex(vals[0]) if np.ndim(z) == 0 else vals.reshape(np.shape(z))


def steering_spectra(spec, z):
    """u-hat = v-hat H and w-hat at every point of a signed grid z, from the paper's formulas.

    w-hat = (3/(mu_3 L)) v-hat H'_gamma (case 1) or (27/(mu_3 L)^3) z v-hat
    H'''_gamma (case 2), with v-hat = e^{-i beta z} v1 and the H factors read
    by _h_factors.  Each sample is evaluated where it lies, z < 0 included, so
    it checks the z >= 0 half grid that steering_spectrum transforms.
    """
    v1m, v1s = vhat1_scaled(spec.bump, spec.beta, z)
    (hm, hs), (dm, ds) = _h_factors(spec, z)
    L = spec.pair.L
    pref = 3.0 / (MU[2] * L) if spec.case == 1 else 27.0 / (MU[2] * L) ** 3 * z
    vhat = np.exp(-1j * spec.beta * z) * v1m
    with np.errstate(under="ignore"):
        return vhat * hm * np.exp(v1s + hs), pref * vhat * dm * np.exp(v1s + ds)


def h_derivative_on_line(pair, gamma: float, z, d: int):
    """d-th derivative of H at z + i gamma by the closed form (d in {1, 3})."""
    if d not in (1, 3):
        raise DomainError(f"derivative order must be 1 or 3, got {d}")
    m, s0 = h_jets_scaled(z + 1j * gamma, pair.L, d)
    with np.errstate(over="ignore"):
        return m * np.exp(s0)


def lattice_interp_whole(x: np.ndarray, nodes):
    """synthesis._lattice_interp as one whole-array pass, without its phase check.

    The bases and nodes come from np.unique, and each weight C_i prod_{m != i}
    (t - o_m) is formed factor by factor; the blocked reader must match it bit
    for bit.
    """
    j = np.floor(x)
    t = x - j
    base, row = np.unique(j.astype(np.int64), return_inverse=True)
    k = np.unique(base[:, None] + _LAT_OFFS)
    f, g = nodes(k)
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


def cn_states_every_step(sys_, y: np.ndarray, u: np.ndarray, step=None) -> np.ndarray:
    """pde._cn_states with the control forcing added on every step, at rest or not.

    A step with u_n = u_{n+1} = 0 adds an exactly zero forcing here; the
    stepper, which skips it, must match this loop bit for bit.
    """
    solve = sys_.step_solve
    runs = (1,) * (y.ndim - 1)
    mc = sys_.Mc.reshape(-1, *runs)
    kc = (sys_.Kc * (sys_.grid.dt / 2.0)).reshape(-1, *runs)
    du = u[1:] - u[:-1]
    su = u[:-1] + u[1:]
    states = np.empty((sys_.grid.nt + 1,) + y.shape)
    states[0] = y
    for n in range(sys_.grid.nt):
        rhs = sys_.step_rhs @ states[n]
        rhs -= mc * du[n]
        rhs -= kc * su[n]
        states[n + 1] = solve(rhs) if step is None else step(n, states, rhs, solve)
    return states


def hum_control_gram_eigh(grid, target, *, tol: float = 1e-6) -> np.ndarray:
    """pde.hum_control by eigh of the Gram matrix G = Phi Phi^T.

    The eigenpairs (lambda_i, v_i) of G are Phi's squared singular values and
    left singular vectors, the complement of its range included.  The k
    largest give mu = sum v_i (v_i^T g) / lambda_i, whose residual |g - G mu|
    is the norm of g's other coefficients; the fewest with a relative residual
    of at most ``tol`` are kept, and a target whose residual at the numerical
    rank (lambda > n eps lambda_max) still exceeds ``tol`` raises NotReachable.
    pde.hum_control, which reads the same pairs from the SVD of R^T, must
    match it.
    """
    check_positive(tol, "tol")
    sys_ = pde._System(grid)
    g_dofs = pde._initial_dofs(sys_, target)
    r_chol = cholesky(np.asarray(sys_.Mf.todense()), lower=False)
    phi_l2 = r_chol @ pde._control_map(sys_)
    g = r_chol @ g_dofs
    lam, vec = np.linalg.eigh(phi_l2 @ phi_l2.T)  # ascending
    c = vec.T @ g
    res = np.sqrt(np.cumsum(np.append(0.0, c**2)))  # res[j] = |g - G mu| with pairs j.. kept
    bound = tol * np.linalg.norm(g)
    j_rank = int(np.sum(lam <= lam.size * np.finfo(float).eps * lam[-1]))
    if res[j_rank] > bound:
        rel, rank = res[j_rank] / np.linalg.norm(g), lam.size - j_rank
        raise NotReachable(f"target not reachable: relative residual {rel:.3e} > tol at the numerical rank {rank}")
    j = int(np.searchsorted(res, bound, side="right")) - 1
    return phi_l2.T @ (vec[:, j:] @ (c[j:] / lam[j:]))
