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
from functools import cached_property

import numpy as np
import scipy.sparse as sparse
# unused here: perfbench/tracer.py and tests/test_tracer_bindings.py bind it
import scipy.sparse.linalg as sparse_linalg  # noqa: F401
from scipy.linalg import cholesky
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import DomainError, FixedPointDiverged, LinearSolveFailure, NotReachable, ResolutionError
from .errors import check_finite, check_int, check_positive, check_type
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


def _gauss01(n=_GAUSS_N):
    xs, ws = np.polynomial.legendre.leggauss(n)
    return 0.5 * (xs + 1.0), 0.5 * ws


def _shape_funcs(s: np.ndarray, h: float):
    """Hermite shapes and their first two s-derivatives at local coords s."""
    n = np.stack(
        [
            1 - 3 * s**2 + 2 * s**3,
            h * (s - 2 * s**2 + s**3),
            3 * s**2 - 2 * s**3,
            h * (-(s**2) + s**3),
        ]
    )
    n1 = np.stack(
        [
            -6 * s + 6 * s**2,
            h * (1 - 4 * s + 3 * s**2),
            6 * s - 6 * s**2,
            h * (-2 * s + 3 * s**2),
        ]
    )
    n2 = np.stack(
        [
            -6 + 12 * s,
            h * (-4 + 6 * s),
            6 - 12 * s,
            h * (-2 + 6 * s),
        ]
    )
    return n, n1, n2


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
        self.i_v0 = 0
        self.i_vN = 2 * n_el
        self.i_dN = 2 * n_el + 1
        self.free = np.arange(1, ndof - 2)  # every DOF but i_v0, i_vN and i_dN
        self.Mf = self.M[np.ix_(self.free, self.free)].tocsc()
        self.Kf = self.K[np.ix_(self.free, self.free)].tocsc()
        self.Mc = np.asarray(self.M[self.free, self.i_dN].todense()).ravel()
        self.Kc = np.asarray(self.K[self.free, self.i_dN].todense()).ravel()

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

    def interpolate(self, values, derivs=None) -> np.ndarray:
        """Full DOF vector of the Hermite interpolant of nodal data.

        When derivatives are not supplied they are taken from the quartic fit
        through five neighbouring values (keeps the interpolant at the order
        of the element).
        """
        values = np.asarray(values, dtype=float)
        if derivs is None:
            derivs = _fd_derivatives(values, self.h)
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


def _fd_derivatives(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order nodal derivatives from values (one-sided at the ends)."""
    n = values.size
    d = np.empty(n)
    if n < 5:
        d[:] = np.gradient(values, h)
        return d
    d[2:-2] = (values[:-4] - 8 * values[1:-3] + 8 * values[3:-1] - values[4:]) / (12 * h)
    c0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    c1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12 * h)
    d[0] = c0 @ values[:5]
    d[1] = c1 @ values[:5]
    d[-1] = -(c0 @ values[-5:][::-1])
    d[-2] = -(c1 @ values[-5:][::-1])
    return d


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


def _as_control(u, nt: int, t_nodes: np.ndarray) -> np.ndarray:
    if u is None:
        return np.zeros(nt + 1)
    u = check_finite([float(u(t)) for t in t_nodes] if callable(u) else u, "control")
    if u.shape != (nt + 1,):
        raise DomainError(f"control must be nt+1 = {nt + 1} samples, got shape {u.shape}")
    return u


def _initial_dofs(sys_: _System, y0) -> np.ndarray:
    if y0 is None:
        return np.zeros(sys_.ndof)
    if callable(y0):
        y0 = np.array([y0(x) for x in sys_.grid.x_nodes])
    nodal = [check_finite(v, "state data") for v in (y0 if isinstance(y0, tuple) else (y0,))]
    n = sys_.grid.nx + 2
    if len(nodal) not in (1, 2) or any(v.shape != (n,) for v in nodal):
        raise DomainError(f"state data must be {n} nodal values (and derivatives)")
    return sys_.interpolate(*nodal)


def _cn_states(sys_: _System, y: np.ndarray, u: np.ndarray, step=None) -> np.ndarray:
    """Free states y_0 .. y_nt of Crank-Nicolson stepping from y_0 = y.

    Each step solves

        (M + dt/2 K) y_{n+1} = (M - dt/2 K) y_n - Mc (u_{n+1} - u_n) - dt/2 Kc (u_n + u_{n+1})

    on the free DOFs, Mc and Kc being the y_x(L) columns through which the
    control enters.  y and u may carry a trailing column axis, one run per
    column.  ``solve`` is the banded LU solve of ``sys_.step_solve``.
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
    states = np.empty((sys_.grid.nt + 1,) + y.shape)
    states[0] = y
    for n in range(sys_.grid.nt):
        rhs = b_mat @ states[n]
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


def solve_linear(grid: Grid, y0=None, u=None, *, system: _System | None = None) -> Trajectory:
    """Crank-Nicolson trajectory of y_t + y_x + y_xxx = 0 with y_x(., L) = u.

    y0 may be None, nodal values, a (values, derivatives) pair, or a callable;
    u may be None, an array at the nt+1 time nodes, or a callable of t.
    """
    sys_ = system if system is not None else _System(grid)
    u_arr = _as_control(u, grid.nt, grid.t_nodes)
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
    y1 = solve_linear(grid, u=u1, system=sys_)

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
    u_arr = _as_control(u, grid.nt, grid.t_nodes)
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
        ph = phi(eta, x)
        dph = phi_x(eta, x) * scale
        for part in phi_parts(ph):
            dofs = np.empty(sys_.ndof)
            dofs[0::2] = part(ph)
            dofs[1::2] = part(dph)
            cols.append(dofs[sys_.free])
    return np.array(cols).reshape(-1, len(sys_.free)).T  # (nfree, dim), dim may be 0


@dataclass(frozen=True)
class GramianReport:
    """Singular values of the control-to-final-state map and its M_N parts."""

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

    def as_dict(self) -> dict:
        return {
            "L": self.L,
            "N": self.N,
            "T": self.T,
            "nx": self.nx,
            "nt": self.nt,
            "dim_mn": self.dim_mn,
            "singular_values": [float(v) for v in self.singular_values[:12]],
            "restricted": [float(v) for v in self.restricted],
            "complement_top": [float(v) for v in self.complement[:6]],
            "restricted_ratio": self.restricted_ratio,
            "restricted_min_ratio": self.restricted_min_ratio,
        }


def _control_map(sys_: _System) -> np.ndarray:
    """Columns = final free states reached by unit impulses at each time node.

    The stepping is linear and time-invariant, so the response to an impulse
    at node j >= 1 is the response to the impulse at node 1 delayed by j - 1
    steps: column j is state nt + 1 - j of the u = delta_1 run, and column 0
    is the final state of the u = delta_0 run.  Both runs go through the
    stepper together as two columns (identical to resolving each impulse with
    solve_linear; verified in the tests).
    """
    nt = sys_.grid.nt
    u = np.zeros((nt + 1, 2))
    u[0, 0] = u[1, 1] = 1.0
    states = _cn_states(sys_, np.zeros((len(sys_.free), 2)), u)
    return np.column_stack([states[-1, :, 0], states[:0:-1, :, 1].T])


def _mass_cholesky(sys_: _System) -> np.ndarray:
    m = np.asarray(sys_.Mf.todense())
    return cholesky(m, lower=False)


def gramian(grid: Grid, length_class: LengthClass) -> GramianReport:
    """SVD of the discrete control-to-state map, split along the M_N shapes.

    Singular values are with respect to the L^2(0, L) norm on states (mass
    Cholesky factor applied) and the Euclidean norm on control samples.  The
    M_N shapes must have rank dim M_N in that norm (singular values above
    1e-5 sigma_max, the square root of a 1e-10 Gram-eigenvalue cut); a grid
    whose nodes alias them away raises ResolutionError.
    """
    check_type(length_class, LengthClass, "length_class")
    sys_ = _System(grid)
    r = _mass_cholesky(sys_)
    shapes = r @ _mn_dofs(sys_, length_class)
    sv = np.linalg.svd(shapes, compute_uv=False)
    rank = int(np.sum(sv > 1e-5 * sv.max(initial=0.0)))
    if rank != length_class.dim_MN:
        raise ResolutionError(
            f"M_N shapes have rank {rank} != dim M_N = {length_class.dim_MN} "
            f"for N = {length_class.N} at nx = {grid.nx}; refine the grid"
        )
    phi_l2 = r @ _control_map(sys_)
    full = np.linalg.svd(phi_l2, compute_uv=False)
    qb, _ = np.linalg.qr(shapes)  # L2-orthonormal basis of the shapes
    restricted = np.linalg.svd(qb.T @ phi_l2, compute_uv=False)
    complement = np.linalg.svd(phi_l2 - qb @ (qb.T @ phi_l2), compute_uv=False)
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


_CG_MAX_ITER = 2000
_CG_STALL_WINDOW = 60  # CG steps without a _CG_STALL_FACTOR residual drop mean stagnation
_CG_STALL_FACTOR = 1e-3


def hum_control(grid: Grid, target, *, tol: float = 1e-6) -> np.ndarray:
    """Minimum-L^2-norm control whose final state matches ``target``.

    Conjugate gradient on the normal equations Phi Phi^T mu = g of the
    L^2-geometry control map (HUM), with u = Phi^T mu.  ``target`` is nodal
    values or a (values, derivatives) pair.  Raises NotReachable when the
    residual stagnates above tolerance: for targets with a component in M_N at
    a critical length, but also for reachable ones there (a solve_linear target
    at L = 2 pi, nx 96 or 128, nt 400, stalls near 2e-5; ROADMAP direction 3).
    """
    check_positive(tol, "tol")
    sys_ = _System(grid)
    g_dofs = _initial_dofs(sys_, target)[sys_.free]
    if not np.any(g_dofs):
        return np.zeros(grid.nt + 1)
    r_chol = _mass_cholesky(sys_)
    phi_l2 = r_chol @ _control_map(sys_)
    g = r_chol @ g_dofs
    gram = phi_l2 @ phi_l2.T
    mu = np.zeros_like(g)
    r = g.copy()
    p = r.copy()
    rs = float(r @ r)
    g_norm = math.sqrt(float(g @ g))
    best = math.inf
    best_iter = 0
    for it in range(_CG_MAX_ITER):
        res_norm = math.sqrt(rs)
        if res_norm <= tol * g_norm:
            return phi_l2.T @ mu
        if res_norm < best * (1.0 - _CG_STALL_FACTOR):
            best, best_iter = res_norm, it
        elif it - best_iter > _CG_STALL_WINDOW:
            raise NotReachable(
                f"CG stagnated at relative residual {res_norm / g_norm:.3e}"
            )
        ap = gram @ p
        denom = float(p @ ap)
        if denom <= 0:
            raise NotReachable("Gramian lost positivity in CG (unreachable target)")
        alpha = rs / denom
        mu += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise NotReachable(
        f"CG exceeded {_CG_MAX_ITER} iterations at residual {math.sqrt(rs) / g_norm:.3e}"
    )
