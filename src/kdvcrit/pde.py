"""Discretized KdV boundary-control systems on (0, L).

Semi-discretization is a C^1 cubic-Hermite Galerkin method for

    y_t + y_x + y_xxx = f,   y(.,0) = y(.,L) = 0,   y_x(.,L) = u,

with the dispersive term in the weak form -<y_xx, v_x> (one integration by
parts; test functions satisfy v(0) = v(L) = 0 and v'(L) = 0, the trial
constraint y'(L) = u enters as an essential condition).  With u = 0 the
discrete energy obeys d/dt ||y||^2 = -y_x(0)^2 exactly - the same identity as
the continuous system - so Crank-Nicolson stepping is unconditionally stable
and conserves the norm of the rotating exact solutions to near machine
precision.  A centered second-order finite-difference scheme was tried first
(it is the obvious choice) and rejected: its boundary closure leaks an O(dx)
component of the control into the unreachable directions and drifts the
energy at O(dx^2), far above what the Gramian-collapse and conservation
checks require.

Each node carries (value, derivative) degrees of freedom; all matrices are
banded with bandwidth 3.  The step matrix gets one banded LU (LAPACK dgbtrf)
per `_System`, and every Crank-Nicolson step is one dgbtrs solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
import numpy.polynomial.polynomial as npoly
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg  # noqa: F401  perfbench/tracer.py wraps this binding
from scipy.linalg import cholesky
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import DomainError, FixedPointDiverged, LinearSolveFailure, NotReachable, ResolutionError
from .errors import check_finite, check_int, check_positive, check_type, in_double_range
from .numbertheory import LengthClass
from .unreachable import eta_triple, phi, phi_parts, phi_x

__all__ = [
    "Grid",
    "Trajectory",
    "GramianReport",
    "solve_linear",
    "solve_second_order",
    "solve_nonlinear",
    "gramian",
    "hum_control",
]


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid: nx interior nodes, nt time steps on [0, T]."""

    L: float
    nx: int
    T: float
    nt: int

    def __post_init__(self) -> None:
        check_int(self.nx, "nx", 8)
        check_int(self.nt, "nt", 1)
        check_positive(self.T, "T")
        check_positive(self.L, "L")

    @property
    def dx(self) -> float:
        return self.L / (self.nx + 1)

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @property
    def x_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.nx + 2)

    @property
    def t_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)


# ---------------------------------------------------------------------------
# Hermite element machinery
# ---------------------------------------------------------------------------

_GAUSS_N = 5  # exact for the degree <= 9 element integrands used here


@cache
def _gauss01():
    """Gauss-Legendre nodes and weights on [0, 1], read-only: every build shares them."""
    xs, ws = np.polynomial.legendre.leggauss(_GAUSS_N)
    s, w = 0.5 * (xs + 1.0), 0.5 * ws
    s.flags.writeable = w.flags.writeable = False
    return s, w


# the Hermite cubics' coefficients of s^0 .. s^3: the value and slope shapes at s = 0, then at s = 1
_HERMITE = np.array([[1.0, 0.0, -3.0, 2.0], [0.0, 1.0, -2.0, 1.0],
                     [0.0, 0.0, 3.0, -2.0], [0.0, 0.0, -1.0, 1.0]])


def _shape_funcs(s: np.ndarray, h: float):
    """Hermite shapes and their first two s-derivatives at local coords s; slope shapes carry h."""
    c = (_HERMITE * np.array([1.0, h, 1.0, h])[:, None]).T
    return tuple(npoly.polyval(s, npoly.polyder(c, k)) for k in range(3))


def _element_mats(h: float, w: np.ndarray, n: np.ndarray, n1: np.ndarray, n2: np.ndarray):
    """Element mass, generator and H^1-stiffness matrices from Gauss weights w
    and the shape values n, n1, n2 at the Gauss points."""
    mass = h * (n * w) @ n.T
    conv = (n * w) @ n1.T  # <v, y_x>
    disp = -((n1 * w) @ n2.T) / h**2  # -<y_xx, v_x>
    stiff = (n1 * w) @ n1.T / h  # <y_x, v_x>, for the H^1 seminorm
    return mass, conv + disp, stiff


class _System:
    """Assembled operators and index bookkeeping for one grid."""

    def __init__(self, grid: Grid):
        self.grid = check_type(grid, Grid, "grid")  # every solver's grid enters here
        n_el = grid.nx + 1
        self.n_el = n_el
        self.h = grid.dx
        ndof = 2 * (n_el + 1)
        self.ndof = ndof
        # element e couples DOFs 2e .. 2e+3: (value, derivative) at its two nodes
        self.el_dofs = 2 * np.arange(n_el)[:, None] + np.arange(4)
        s, quad_w = _gauss01()
        with in_double_range(f"grid step h = {self.h:g}"):
            self.shape, shape_x, shape_xx = _shape_funcs(s, self.h)
            mass_e, k_e, stiff_e = _element_mats(self.h, quad_w, self.shape, shape_x, shape_xx)
        # -(1/2) <w^2, v_x> on element e is (w^2 at its Gauss points) @ weak: the
        # (value, derivative) tests of its left node, then of its right node
        weak = -0.5 * quad_w[:, None] * shape_x.T
        self.weak_left = np.ascontiguousarray(weak[:, :2])
        self.weak_right = np.ascontiguousarray(weak[:, 2:])
        rows = np.repeat(self.el_dofs, 4, axis=1).ravel()
        cols = np.tile(self.el_dofs, 4).ravel()

        def assemble(local: np.ndarray):
            data = np.tile(local.ravel(), n_el)
            return sparse.coo_matrix((data, (rows, cols)), shape=(ndof, ndof)).tocsc()

        self.M = assemble(mass_e)
        self.K = assemble(k_e)
        self.S1 = assemble(stiff_e)
        self.i_dN = 2 * n_el + 1
        self.free = np.arange(1, ndof - 2)  # all but the values y(0), y(L) and the control y_x(L)
        free, control = slice(1, -2), [self.i_dN]  # free is the contiguous range 1 .. ndof - 3
        self.Mf, self.Kf = self.M[free, free], self.K[free, free]
        self.Mc = self.M[free, control].toarray().ravel()
        self.Kc = self.K[free, control].toarray().ravel()

    @cached_property
    def step_solve(self):
        """Solver of the Crank-Nicolson step matrix M + dt/2 K (free DOFs) by banded LU."""
        dia = (self.Mf + (self.grid.dt / 2.0) * self.Kf).todia()
        k = int(np.abs(dia.offsets).max())  # kl = ku = k; dgbtrf needs k more rows for fill-in
        ab = np.zeros((3 * k + 1, dia.shape[0]))
        ab[2 * k - dia.offsets] = dia.data
        lu, piv, info = dgbtrf(ab, k, k)
        if info != 0:
            raise LinearSolveFailure(f"banded LU of the step matrix failed (dgbtrf info = {info})")
        return lambda rhs: dgbtrs(lu, k, k, rhs, piv)[0]

    @cached_property
    def step_rhs(self):
        """Right-hand-side matrix M - dt/2 K of the Crank-Nicolson step."""
        return (self.Mf - (self.grid.dt / 2.0) * self.Kf).tocsc()

    @cached_property
    def l2_map(self):
        """(r, Phi, R^T): the mass Cholesky factor (Mf = r^T r), the L^2-geometry
        control map Phi = r @ _control_map and R^T from Phi^T = Q R, Q never formed."""
        try:
            r = cholesky(np.asarray(self.Mf.todense()), lower=False)
        except np.linalg.LinAlgError as exc:
            raise DomainError(f"mass matrix not positive definite at grid step h = {self.h:.3e}") from exc
        phi_l2 = r @ _control_map(self)
        return r, phi_l2, np.linalg.qr(phi_l2.T, mode="r").T

    def interpolate(self, values, derivs) -> np.ndarray:
        """Full DOF vector of the Hermite interpolant of nodal values and derivatives."""
        dofs = np.empty(self.ndof)
        dofs[0::2] = values
        dofs[1::2] = derivs
        return dofs

    def l2_norm(self, dofs: np.ndarray) -> float:
        return math.sqrt(max(float(dofs @ (self.M @ dofs)), 0.0))

    def row_norms(self, mat, dofs: np.ndarray) -> np.ndarray:
        """sqrt(d . mat d) for each row d of dofs; 64-row blocks keep the temporaries small."""
        sq = [np.einsum("ij,ji->i", b, mat @ b.T) for b in np.split(dofs, range(64, len(dofs), 64))]
        return np.sqrt(np.maximum(np.concatenate(sq), 0.0))

    def nonlinear_weak(self, dofs: np.ndarray) -> np.ndarray:
        """<w w_x, v> = -(1/2) <w^2, v_x> on the free test functions."""
        wsq = dofs[self.el_dofs] @ self.shape  # w at the Gauss points, (n_el, n_gauss)
        wsq *= wsq
        out = np.zeros(self.ndof)
        nodes = out.reshape(-1, 2)  # a view of out, one (value, derivative) row per node
        nodes[:-1] += wsq @ self.weak_left
        nodes[1:] += wsq @ self.weak_right
        return out[1:-2]  # the free DOFs


@dataclass
class Trajectory:
    """Space-time solution: full Hermite DOFs per time node plus diagnostics."""

    grid: Grid
    dofs: np.ndarray  # (nt+1, ndof): [v0, d0, v1, d1, ...]
    control: np.ndarray  # u at time nodes
    xnorm: float  # max-in-time L2 + L2-in-time H1 seminorm
    system: _System = field(repr=False)

    @property
    def states(self) -> np.ndarray:
        """Nodal values y(t_i, x_j), boundary columns exactly zero."""
        return self.dofs[:, 0::2]

    @property
    def dstates(self) -> np.ndarray:
        """Nodal derivatives y_x(t_i, x_j)."""
        return self.dofs[:, 1::2]

    def l2_norms(self) -> np.ndarray:
        return self.system.row_norms(self.system.M, self.dofs)

    def yx_left(self) -> np.ndarray:
        """Trace y_x(t, 0) (the dissipation observation)."""
        return self.dofs[:, 1]

    def final(self) -> np.ndarray:
        return self.dofs[-1]


def _as_control(u, nt: int) -> np.ndarray:
    if u is None:
        return np.zeros(nt + 1)
    u = check_finite(u, "control")
    if u.shape != (nt + 1,):
        raise DomainError(f"control must be nt+1 = {nt + 1} samples, got shape {u.shape}")
    return u


def _initial_dofs(sys_: _System, y0) -> np.ndarray:
    if y0 is None:
        return np.zeros(sys_.ndof)
    n = sys_.grid.nx + 2
    nodal = [check_finite(v, "state data") for v in y0] if isinstance(y0, tuple) else []
    if len(nodal) != 2 or any(v.shape != (n,) for v in nodal):
        raise DomainError(f"state data must be a (values, derivatives) pair of {n} nodal arrays")
    return sys_.interpolate(*nodal)


def _cn_states(sys_: _System, y: np.ndarray, u: np.ndarray, step=None) -> np.ndarray:
    """Free states y_0 .. y_nt of Crank-Nicolson stepping from y_0 = y.

    Each step solves

        (M + dt/2 K) y_{n+1} = (M - dt/2 K) y_n - Mc (u_{n+1} - u_n) - dt/2 Kc (u_n + u_{n+1})

    on the free DOFs, Mc and Kc being the y_x(L) columns through which the
    control enters.  y and u may carry a trailing column axis, one run per
    column.  A step whose control is zero at both ends (u_n = u_{n+1} = 0 in
    every column) has du = su = 0, so its forcing is exactly zero and is
    skipped: the states are bit-identical to adding it on every step.
    ``solve`` is the banded LU solve of ``sys_.step_solve``.
    ``step(n, states, rhs, solve)``, when given, returns y_{n+1} in place of
    ``solve(rhs)``, rows 0 .. n of ``states`` holding y_0 .. y_n; the solvers
    use it to add a source or iterate the step from an extrapolated guess.
    """
    solve = sys_.step_solve
    b_mat = sys_.step_rhs
    runs = (1,) * (y.ndim - 1)  # Mc, Kc broadcast over the run columns
    mc = sys_.Mc.reshape(-1, *runs)
    kc = (sys_.Kc * (sys_.grid.dt / 2.0)).reshape(-1, *runs)
    du = u[1:] - u[:-1]
    su = u[:-1] + u[1:]
    forced = ((u[:-1] != 0) | (u[1:] != 0)).reshape(len(du), -1).any(axis=1).tolist()
    states = np.empty((sys_.grid.nt + 1,) + y.shape)
    states[0] = y
    for n in range(sys_.grid.nt):
        rhs = b_mat @ states[n]
        if forced[n]:
            rhs -= mc * du[n]
            rhs -= kc * su[n]
        states[n + 1] = solve(rhs) if step is None else step(n, states, rhs, solve)
    return states


def _assemble_trajectory(sys_: _System, hist, u) -> Trajectory:
    grid = sys_.grid
    dofs = np.zeros((grid.nt + 1, sys_.ndof))
    dofs[:, sys_.free] = hist
    dofs[:, sys_.i_dN] = u
    l2, h1 = sys_.row_norms(sys_.M, dofs), sys_.row_norms(sys_.S1, dofs)
    xnorm = float(l2.max() + math.sqrt(np.trapezoid(h1**2, dx=grid.dt)))
    return Trajectory(grid=grid, dofs=dofs, control=u, xnorm=xnorm, system=sys_)


def solve_linear(grid: Grid, y0=None, u=None) -> Trajectory:
    """Crank-Nicolson trajectory of y_t + y_x + y_xxx = 0 with y_x(., L) = u.

    y0 is None (zero) or a (values, derivatives) pair of nx+2 nodal arrays;
    u is None (zero) or an array of its nt+1 samples at the time nodes.
    """
    sys_ = _System(grid)
    u_arr = _as_control(u, grid.nt)
    y = _initial_dofs(sys_, y0)[sys_.free]
    return _assemble_trajectory(sys_, _cn_states(sys_, y, u_arr), u_arr)


def solve_second_order(grid: Grid, u1) -> tuple[Trajectory, Trajectory]:
    """First- and second-order terms of the power-series expansion.

    y1 solves the linear system driven by u1; y2 solves the linear system
    with all-homogeneous boundary data forced by -y1 y1_x, assembled in the
    conservative weak form +(1/2) <y1^2, v_x> from the midpoint state of each
    step (the same treatment the nonlinear solver gives the quadratic term,
    which makes the discrete epsilon-expansion exact).
    """
    sys_ = _System(grid)
    u_arr = _as_control(u1, grid.nt)
    y1 = _assemble_trajectory(sys_, _cn_states(sys_, np.zeros(len(sys_.free)), u_arr), u_arr)

    def source(n, states, rhs, solve):
        mid = 0.5 * (y1.dofs[n] + y1.dofs[n + 1])
        return solve(rhs - grid.dt * sys_.nonlinear_weak(mid))

    zero = np.zeros(grid.nt + 1)
    hist = _cn_states(sys_, np.zeros(len(sys_.free)), zero, step=source)
    return y1, _assemble_trajectory(sys_, hist, zero)


_PICARD_MAX = 25  # Picard sweeps per CN step before FixedPointDiverged
_PICARD_TOL = 1e-11  # relative step size that ends the sweeps; it, not the start, sets the error
# weights of the last 0 .. 3 sources, newest first: zero, constant, linear, quadratic extrapolation
_EXTRAPOLATE = ((), (1.0,), (2.0, -1.0), (3.0, -3.0, 1.0))


def solve_nonlinear(grid: Grid, y0=None, u=None) -> Trajectory:
    """Full KdV trajectory; y y_x handled by per-step Picard around CN.

    A step's sweeps start from the CN solve with the source dt N(y_mid),
    y_mid = (y_n + y_{n+1}) / 2, extrapolated from the last three steps.  That
    source is smooth in time where y_{n+1} is not (CN leaves the dispersive
    high modes undamped, flipping sign each step), so a step takes two sweeps.

    Raises FixedPointDiverged outside the small-data regime: the sweeps
    stall (no convergence in _PICARD_MAX sweeps) or blow up (non-finite).
    """
    sys_ = _System(grid)
    u_arr = _as_control(u, grid.nt)
    y = _initial_dofs(sys_, y0)[sys_.free]
    mid = np.zeros(sys_.ndof)  # midpoint state, full DOFs
    free = slice(1, -2)  # sys_.free
    sources = []  # sources of the last three steps, oldest first

    def picard(n, states, base, solve):
        mid[sys_.i_dN] = 0.5 * (u_arr[n] + u_arr[n + 1])
        predicted = sum(c * f for c, f in zip(_EXTRAPOLATE[len(sources)], reversed(sources)))
        y_next = solve(base - predicted)
        for _ in range(_PICARD_MAX):
            mid[free] = 0.5 * (states[n] + y_next)
            source = grid.dt * sys_.nonlinear_weak(mid)
            cand = solve(base - source)
            d = cand - y_next
            delta = math.sqrt(d @ d)
            if not math.isfinite(delta):
                raise FixedPointDiverged(f"Picard blow-up at step {n}")
            y_next = cand
            if delta <= _PICARD_TOL * max(1.0, math.sqrt(y_next @ y_next)):
                sources.append(source)
                del sources[:-3]
                return y_next
        raise FixedPointDiverged(f"Picard stalled at step {n} (delta = {delta:.3e})")

    # overflow and invalid values on the way to a blow-up end in FixedPointDiverged
    with np.errstate(over="ignore", invalid="ignore"):
        states = _cn_states(sys_, y, u_arr, step=picard)
    return _assemble_trajectory(sys_, states, u_arr)


# ---------------------------------------------------------------------------
# Gramian analysis / HUM
# ---------------------------------------------------------------------------


def _mn_dofs(sys_: _System, length_class: LengthClass) -> np.ndarray:
    """Hermite DOFs of the unreachable-direction profiles, rescaled to [0, L].

    At the critical length itself this is M_N; at another length the same
    shapes serve as the test subspace that the dichotomy compares against.
    """
    grid = sys_.grid
    scale = length_class.L / grid.L
    x = grid.x_nodes * scale
    cols = []
    for pair in length_class.pairs:
        eta = eta_triple(pair)
        ph, dph = phi(eta, x), phi_x(eta, x) * scale
        cols += [sys_.interpolate(part(ph), part(dph))[sys_.free] for part in phi_parts(ph)]
    return np.array(cols).reshape(-1, len(sys_.free)).T  # (nfree, dim), dim may be 0


@dataclass(frozen=True)
class GramianReport:
    """Singular values of the control-to-final-state map and its M_N parts.

    All three come from one triangular factor of the map (see gramian), with
    the values and counts of the map's own SVDs.
    """

    L: float
    N: int
    T: float
    nx: int
    nt: int
    dim_mn: int  # rank of the M_N shapes, checked to equal dim M_N
    singular_values: np.ndarray  # full map, descending
    restricted: np.ndarray  # projection onto the M_N shapes
    complement: np.ndarray
    restricted_ratio: float  # sigma_max(restricted) / sigma_max(full)
    restricted_min_ratio: float  # sigma_min(restricted) / sigma_max(full)


def _control_map(sys_: _System) -> np.ndarray:
    """Columns = final free states reached by unit impulses at each time node.

    The stepping is linear and time-invariant, so the response to an impulse
    at node j >= 1 is the response to the impulse at node 1 delayed by j - 1
    steps: column j is state nt + 1 - j of the u = delta_1 run, and column 0
    is the final state of the u = delta_0 run.  Both runs go through the
    stepper together as two columns (identical to resolving each impulse with
    solve_linear; verified in the tests).  Both controls are zero from node 2
    on, so after step 1 both runs are free evolution and _cn_states adds no
    forcing.
    """
    nt = sys_.grid.nt
    u = np.zeros((nt + 1, 2))
    u[0, 0] = u[1, 1] = 1.0
    states = _cn_states(sys_, np.zeros((len(sys_.free), 2)), u)
    return np.column_stack([states[-1, :, 0], states[:0:-1, :, 1].T])


def gramian(grid: Grid, length_class: LengthClass) -> GramianReport:
    """SVD of the discrete control-to-state map, split along the M_N shapes.

    Singular values are with respect to the L^2(0, L) norm on states (mass
    Cholesky factor applied) and the Euclidean norm on control samples.  The
    M_N shapes must have rank dim M_N in that norm (singular values above
    1e-5 sigma_max, the square root of a 1e-10 Gram-eigenvalue cut); a grid
    whose nodes alias them away raises ResolutionError.

    All three spectra come from one triangular factor (Chan's R-SVD): with
    Phi^T = Q R and Q's columns orthonormal, Phi = R^T Q^T has R^T's singular
    values, and so have its projections onto the shapes and their complement.
    Q is never formed, and the SVDs run on R^T, nfree x min(nfree, nt + 1),
    not on the nfree x (nt + 1) map.
    """
    check_type(length_class, LengthClass, "length_class")
    sys_ = _System(grid)
    r, _, rt = sys_.l2_map
    shapes = r @ _mn_dofs(sys_, length_class)
    sv = np.linalg.svd(shapes, compute_uv=False)
    rank = int(np.sum(sv > 1e-5 * sv.max(initial=0.0)))
    if rank != length_class.dim_MN:
        raise ResolutionError(
            f"M_N shapes have rank {rank} != dim M_N = {length_class.dim_MN} "
            f"for N = {length_class.N} at nx = {grid.nx}; refine the grid"
        )
    qb, _ = np.linalg.qr(shapes)  # L2-orthonormal basis of the shapes
    proj = qb.T @ rt
    full = np.linalg.svd(rt, compute_uv=False)
    restricted = np.linalg.svd(proj, compute_uv=False)
    complement = np.linalg.svd(rt - qb @ proj, compute_uv=False)
    return GramianReport(
        L=grid.L,
        N=length_class.N,
        T=grid.T,
        nx=grid.nx,
        nt=grid.nt,
        dim_mn=rank,
        singular_values=full,
        restricted=restricted,
        complement=complement,
        restricted_ratio=float(restricted.max() / full[0]),
        restricted_min_ratio=float(restricted.min() / full[0]),
    )


def hum_control(grid: Grid, target, *, tol: float = 1e-6) -> np.ndarray:
    """Minimum-L^2-norm control whose final state matches ``target``.

    HUM on the L^2-geometry control map Phi, with the singular pairs of Phi
    from the shared factor (svd of R^T, _System.l2_map): u = Phi^T mu, the k
    largest pairs (sigma_i, u_i) give mu = sum u_i (u_i^T g) / sigma_i^2, whose
    residual is the norm of g's other coefficients in the full, square U; the
    fewest with a relative residual of at most ``tol`` are kept.  A target
    whose residual at the numerical rank (sigma^2 > n eps sigma_max^2, n free
    DOFs) still exceeds ``tol`` raises NotReachable, as one with a component
    in M_N at a critical length does.
    ``target`` is a (values, derivatives) pair of nx+2 nodal arrays.  Only its
    free DOFs are matched: the final state holds u(T) at y_x(L), which HUM
    does not constrain, so the target's y_x(L) entry is not matched.
    """
    check_positive(tol, "tol")
    sys_ = _System(grid)
    g_dofs = _initial_dofs(sys_, target)[sys_.free]
    r, phi_l2, rt = sys_.l2_map
    g = r @ g_dofs
    vec, sigma, _ = np.linalg.svd(rt)  # descending; vec is square, so it spans the complement too
    c = vec.T @ g
    res = np.sqrt(np.cumsum(np.append(c**2, 0.0)[::-1]))[::-1]  # res[k] = |c[k:]|, pairs 0 .. k-1 kept
    bound = tol * np.linalg.norm(g)
    rank = int(np.sum(sigma**2 > vec.shape[0] * np.finfo(float).eps * sigma[0] ** 2))
    if res[rank] > bound:
        rel = res[rank] / np.linalg.norm(g)
        raise NotReachable(f"target not reachable: relative residual {rel:.3e} > tol at the numerical rank {rank}")
    k = int(np.argmax(res <= bound))
    return phi_l2.T @ (vec[:, :k] @ (c[:k] / sigma[:k] ** 2))
