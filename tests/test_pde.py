import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from kdvcrit import numbertheory as nt
from kdvcrit import pde
from kdvcrit import unreachable as ur
from kdvcrit.errors import DomainError, FixedPointDiverged, NotReachable, ResolutionError

PAIR = nt.CriticalPair(2, 1)
ETA = ur.eta_triple(PAIR)
C0 = 0.3 + 0.7j


def exact_state(t, x):
    return (C0 * ur.psi(ETA, t, x)).real


def exact_deriv(t, x):
    return (C0 * np.exp(-1j * t * ETA.p) * ur.phi_x(ETA, x)).real


def exact_y0(grid):
    x = grid.x_nodes
    return exact_state(0.0, x), exact_deriv(0.0, x)


def test_zero_data_stays_zero():
    g = pde.Grid(L=PAIR.L, nx=32, T=0.5, nt=20)
    traj = pde.solve_linear(g)
    assert np.abs(traj.dofs).max() == 0.0
    tr_nl = pde.solve_nonlinear(g)
    assert np.abs(tr_nl.dofs).max() == 0.0
    y1, y2 = pde.solve_second_order(g, np.zeros(g.nt + 1))
    assert np.abs(y1.dofs).max() == 0.0
    assert np.abs(y2.dofs).max() == 0.0


def test_boundary_rows_exact_zero():
    g = pde.Grid(L=PAIR.L, nx=48, T=1.0, nt=50)
    traj = pde.solve_linear(g, y0=exact_y0(g), u=np.sin(g.t_nodes))
    assert np.abs(traj.states[:, 0]).max() == 0.0
    assert np.abs(traj.states[:, -1]).max() == 0.0


def test_exact_solution_conservation():
    period = 2 * math.pi / PAIR.p
    g = pde.Grid(L=PAIR.L, nx=256, T=period / 2, nt=1200)
    traj = pde.solve_linear(g, y0=exact_y0(g))
    norms = traj.l2_norms()
    assert np.abs(norms / norms[0] - 1).max() <= 1e-8
    # trajectory matches the rotating profile pointwise
    err = np.abs(traj.states[-1] - exact_state(g.T, g.x_nodes)).max()
    assert err <= 5e-4 * np.abs(exact_state(g.T, g.x_nodes)).max()


def test_spatial_convergence_order():
    errs = []
    sizes = [32, 64, 128]
    for nx in sizes:
        g = pde.Grid(L=PAIR.L, nx=nx, T=1.0, nt=1600)
        traj = pde.solve_linear(g, y0=exact_y0(g))
        ref = traj.system.interpolate(
            exact_state(1.0, g.x_nodes), exact_deriv(1.0, g.x_nodes)
        )
        errs.append(traj.system.l2_norm(traj.final() - ref))
    slope = np.polyfit(np.log10(sizes), np.log10(errs), 1)[0]
    assert -slope >= 1.9


def test_temporal_convergence_order():
    errs = []
    steps = [25, 50, 100]
    for ntt in steps:
        g = pde.Grid(L=PAIR.L, nx=256, T=1.0, nt=ntt)
        traj = pde.solve_linear(g, y0=exact_y0(g))
        ref = traj.system.interpolate(
            exact_state(1.0, g.x_nodes), exact_deriv(1.0, g.x_nodes)
        )
        errs.append(traj.system.l2_norm(traj.final() - ref))
    slope = np.polyfit(np.log10(steps), np.log10(errs), 1)[0]
    assert -slope >= 1.9


def test_energy_law_per_step():
    g = pde.Grid(L=PAIR.L, nx=128, T=2.0, nt=400)
    u = np.sin(math.pi * g.t_nodes) ** 2
    traj = pde.solve_linear(g, u=u)
    n2 = traj.l2_norms() ** 2
    lhs = np.diff(n2) / g.dt
    u_mid = 0.5 * (u[:-1] + u[1:])
    d_mid = 0.5 * (traj.yx_left()[:-1] + traj.yx_left()[1:])
    rhs = u_mid**2 - d_mid**2
    scale = max(np.abs(rhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() <= 5 * (g.dx + g.dt) * scale


def test_mass_symmetry_and_dissipativity():
    g = pde.Grid(L=PAIR.L, nx=64, T=1.0, nt=10)
    sys_ = pde._System(g)
    m = sys_.Mf.todense()
    assert np.abs(m - m.T).max() <= 1e-14 * np.abs(m).max()
    # with u = 0 the generator satisfies y' K y = y_x(0)^2 / 2 >= 0,
    # the discrete d/dt ||y||^2 = -y_x(0)^2 <= 0
    k = np.asarray(sys_.Kf.todense())
    sym = 0.5 * (k + k.T)
    eig = np.linalg.eigvalsh(sym)
    assert eig.min() >= -1e-10 * np.abs(eig).max()
    rng = np.random.default_rng(0)
    y = rng.standard_normal(k.shape[0])
    quad = y @ k @ y
    assert quad == pytest.approx(0.5 * y[0] ** 2, rel=1e-8)  # free dof 0 is y_x(0)


def test_xnorm_positive():
    g = pde.Grid(L=PAIR.L, nx=48, T=1.0, nt=100)
    traj = pde.solve_linear(g, y0=exact_y0(g))
    assert traj.xnorm > 0


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([8, 16, 32]), st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_cn_states_two_columns_match_one_column_runs(nx, n_steps, seed):
    sys_ = pde._System(pde.Grid(L=PAIR.L, nx=nx, T=0.5, nt=n_steps))
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((sys_.nfree, 2))
    u = rng.standard_normal((n_steps + 1, 2))
    both = pde._cn_states(sys_, y, u)
    for j in range(2):
        assert np.array_equal(both[..., j], pde._cn_states(sys_, y[:, j], u[:, j]))


def _resting_control(rng, n_steps, shape):
    """Random control samples: nonzero only in one window, zero only in one gap of at
    least two samples ("restart"), or all zero."""
    idx = np.arange(n_steps + 1)
    lo, hi = np.sort(rng.integers(0, n_steps + 2, size=2))
    mask = {
        "window": (idx >= lo) & (idx < hi),
        "restart": (idx < lo) | (idx >= hi + 2),
        "zero": np.zeros(n_steps + 1, dtype=bool),
    }[shape]
    return np.where(mask, rng.standard_normal(n_steps + 1), 0.0)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([8, 16]),
    st.integers(1, 24),
    st.lists(st.sampled_from(["window", "restart", "zero"]), min_size=1, max_size=2),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_cn_states_rest_rule_matches_every_step_forcing(nx, n_steps, shapes, with_step, seed):
    # skipping the forcing on steps with u_n = u_{n+1} = 0 (in every column) is exact
    sys_ = pde._System(pde.Grid(L=PAIR.L, nx=nx, T=0.5, nt=n_steps))
    rng = np.random.default_rng(seed)
    u = np.stack([_resting_control(rng, n_steps, shape) for shape in shapes], axis=-1)
    y = rng.standard_normal((sys_.nfree, len(shapes)))
    if len(shapes) == 1:
        u, y = u[:, 0], y[:, 0]
    step = None
    if with_step:  # a source added to each step, as solve_second_order's y2 run does
        source = rng.standard_normal((n_steps,) + y.shape)

        def step(n, states, rhs, solve):
            return solve(rhs - sys_.grid.dt * source[n])

    got = pde._cn_states(sys_, y, u, step=step)
    assert np.array_equal(got, oracles.cn_states_every_step(sys_, y, u, step=step))


def test_step_matrix_factored_once_per_grid(monkeypatch):
    # the entry points share the last grid's system, LU and control map; only
    # the last grid's is held, so going back to a grid factors it again
    real_lu, real_map = pde.dgbtrf, pde._control_map
    factored, mapped = [], []

    def counting_dgbtrf(ab, kl, ku):
        factored.append(ab.shape)
        return real_lu(ab, kl, ku)

    def counting_control_map(sys_):
        mapped.append(sys_.grid)
        return real_map(sys_)

    monkeypatch.setattr(pde, "dgbtrf", counting_dgbtrf)
    monkeypatch.setattr(pde, "_control_map", counting_control_map)
    g = pde.Grid(L=PAIR.L, nx=16, T=0.2, nt=10)
    u = np.sin(g.t_nodes)
    pde.solve_second_order(g, u)
    pde.gramian(pde.Grid(L=PAIR.L, nx=16, T=0.2, nt=10), nt.representations(PAIR.N))  # equal, not g itself
    target = pde.solve_linear(g, u=u)
    pde.hum_control(g, (target.states[-1], target.dstates[-1]))
    assert (len(factored), len(mapped)) == (1, 1)
    pde.solve_linear(pde.Grid(L=PAIR.L, nx=16, T=0.4, nt=10), u=u)
    assert len(factored) == 2
    pde.solve_linear(g, u=u)
    assert len(factored) == 3


def test_next_grid_evicts_the_held_system():
    # grid a's system dies once a call on grid b returns and no trajectory holds it
    g_a, g_b = pde.Grid(L=PAIR.L, nx=16, T=0.2, nt=10), pde.Grid(L=PAIR.L, nx=16, T=0.4, nt=10)
    traj = pde.solve_linear(g_a, u=np.sin(g_a.t_nodes))
    held = weakref.ref(traj.system)
    pde.solve_linear(g_b)
    assert held() is traj.system  # a trajectory keeps its own system
    del traj
    assert held() is None
    assert pde._system(g_b) is pde._system(pde.Grid(L=PAIR.L, nx=16, T=0.4, nt=10))


def test_second_order_first_term_is_solve_linear():
    g = pde.Grid(L=PAIR.L, nx=16, T=0.2, nt=10)
    u = np.sin(g.t_nodes)
    y1, _ = pde.solve_second_order(g, u)
    lin = pde.solve_linear(g, u=u)
    assert np.array_equal(y1.dofs, lin.dofs) and y1.xnorm == lin.xnorm


def test_shared_system_arrays_are_read_only():
    sys_ = pde._system(pde.Grid(L=PAIR.L, nx=8, T=0.5, nt=10))
    for a in (*sys_.l2_map, sys_.Mc, sys_.Kc):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_float32_grid_does_not_share_the_float64_grids_system():
    # np.float32(0.1) == 0.1 under numpy's promotion rules, yet the two T give
    # different steps; Grid stores Python floats, so the grids compare unequal
    g32 = pde.Grid(L=np.float32(1.0), nx=8, T=np.float32(0.1), nt=10)
    g64 = pde.Grid(L=1.0, nx=8, T=0.1, nt=10)
    assert g32 != g64 and type(g32.T) is type(g32.L) is float
    u = np.sin(g64.t_nodes)
    after_g32 = [pde.solve_linear(g, u=u).dofs for g in (g32, g64)][1]
    pde._held.cache_clear()
    assert np.array_equal(after_g32, pde.solve_linear(g64, u=u).dofs)


@pytest.mark.parametrize("nx", [8, 9, 128])
@pytest.mark.parametrize("columns", [(), (2,)])
def test_banded_step_solve_matches_dense(nx, columns):
    sys_ = pde._System(pde.Grid(L=PAIR.L, nx=nx, T=1.0, nt=100))
    dense = (sys_.Mf + (sys_.grid.dt / 2.0) * sys_.Kf).toarray()
    rhs = np.random.default_rng(nx).standard_normal((sys_.nfree, *columns))
    x = sys_.step_solve(rhs)
    ref = np.linalg.solve(dense, rhs)
    assert x.shape == rhs.shape
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


def _count_picard_sweeps(monkeypatch, grid, u):
    """nonlinear_weak calls made by solve_nonlinear: one per Picard sweep."""
    calls = []
    real = pde._System.nonlinear_weak

    def counting(self, dofs):
        calls.append(1)
        return real(self, dofs)

    monkeypatch.setattr(pde._System, "nonlinear_weak", counting)
    pde.solve_nonlinear(grid, u=u)
    return len(calls)


def _simulate_seed0():
    """The benchmark's simulate grid and control (seed 0)."""
    g = pde.Grid(L=PAIR.L, nx=128, T=1.0, nt=800)
    amp, width, center = 0.32739233746429086, 7.079146855055481, 0.40819470478723896
    t = g.t_nodes
    return g, amp * np.sin(2 * math.pi * t) * np.exp(-width * (t - center) ** 2)


def test_picard_sweeps_per_step(monkeypatch):
    g, u = _simulate_seed0()
    assert _count_picard_sweeps(monkeypatch, g, None) == g.nt  # zero data: one sweep a step
    # starting each step from y_n took 3.92 sweeps a step, from 2 y_n - y_{n-1} 3.00;
    # the CN solve with the extrapolated midpoint source takes 2.00
    assert _count_picard_sweeps(monkeypatch, g, u) <= 2.05 * g.nt


def test_picard_predictor_keeps_accuracy(monkeypatch):
    # the stop rule, not the start, sets the error: within 1e-12 of a tight run (measured 9e-14)
    g, u = _simulate_seed0()
    y = pde.solve_nonlinear(g, u=u).final()
    monkeypatch.setattr(pde, "_PICARD_TOL", 1e-13)
    tight = pde.solve_nonlinear(g, u=u).final()
    assert np.linalg.norm(y - tight) <= 1e-12 * np.linalg.norm(tight)


def test_picard_divergence_raises():
    g = pde.Grid(L=2 * math.pi, nx=32, T=1.0, nt=50)

    def run(amp):
        return pde.solve_nonlinear(g, u=np.array([amp * math.sin(2 * math.pi * t) for t in g.t_nodes]))

    # the FixedPointDiverged is the report: no numpy RuntimeWarning leaks on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(run(30.0).dofs))
        with pytest.raises(FixedPointDiverged, match=r"stalled at step 9 \("):
            run(100.0)
        with pytest.raises(FixedPointDiverged, match="blow-up at step 0$"):
            run(1e160)
        # finite iterates whose norm overflows are a blow-up too, not a converged step
        with pytest.raises(FixedPointDiverged, match="blow-up at step 0$"):
            run(1e5)


def test_nonlinear_small_data_scaling():
    g = pde.Grid(L=PAIR.L, nx=96, T=1.0, nt=200)
    u_shape = np.sin(2 * math.pi * g.t_nodes) * np.exp(-8 * (g.t_nodes - 0.5) ** 2)
    y1, y2 = pde.solve_second_order(g, u_shape)
    eps_list = [0.2, 0.1, 0.05, 0.025]
    gap1, gap2 = [], []
    for eps in eps_list:
        nl = pde.solve_nonlinear(g, u=eps * u_shape)
        lin_gap = nl.dofs[-1] - eps * y1.dofs[-1]
        gap1.append(nl.system.l2_norm(lin_gap))
        second_gap = lin_gap - eps**2 * y2.dofs[-1]
        gap2.append(nl.system.l2_norm(second_gap))
    s1 = np.polyfit(np.log10(eps_list), np.log10(gap1), 1)[0]
    s2 = np.polyfit(np.log10(eps_list), np.log10(gap2), 1)[0]
    assert abs(s1 - 2.0) <= 0.1
    assert abs(s2 - 3.0) <= 0.15


def test_projection_identity_quick():
    # both sides of the quadratic projection identity on a modest grid
    p = PAIR.p
    g = pde.Grid(L=PAIR.L, nx=160, T=2.0, nt=640)

    def u1(t):
        s = (t - 0.4) / 1.2
        return 60.0 * math.exp(-1 / (s * (1 - s))) if 0 < s < 1 else 0.0

    y1, y2 = pde.solve_second_order(g, np.array([u1(t) for t in g.t_nodes]))
    sys_ = y1.system
    s_nodes, w_nodes = pde._gauss01()
    n, _, _ = pde._shape_funcs(s_nodes, g.dx)
    nel = g.nx + 1
    xg = (np.arange(nel)[:, None] * g.dx + s_nodes[None, :] * g.dx).ravel()
    wg = np.tile(w_nodes * g.dx, nel)
    ev = np.zeros((nel * len(s_nodes), sys_.ndof))
    for e in range(nel):
        ev[e * 5 : (e + 1) * 5, 2 * e : 2 * e + 4] = n.T
    phix = ur.phi_x(ETA, xg)
    ph = ur.phi(ETA, xg)
    vals = y1.dofs @ ev.T
    space = (vals**2 * (wg * phix)[None, :]).sum(axis=1)
    rhs = np.trapezoid(space * np.exp(-1j * p * g.t_nodes), dx=g.dt)
    lhs = 2 * np.exp(-1j * p * g.T) * ((wg * ph) * (y2.dofs[-1] @ ev.T)).sum()
    assert abs(lhs - rhs) <= 1e-2 * abs(rhs)


def test_gramian_columns_match_solve_linear():
    # every column, on a generic grid, a single-step grid, a two-step grid (delta_1
    # forces both steps, delta_0 only the first) and the critical length
    for g in (
        pde.Grid(L=1.0, nx=24, T=0.5, nt=30),
        pde.Grid(L=1.0, nx=8, T=0.1, nt=1),
        pde.Grid(L=1.0, nx=8, T=0.1, nt=2),
        pde.Grid(L=2 * math.pi, nx=16, T=1.0, nt=20),
    ):
        sys_ = pde._System(g)
        phi_map = pde._control_map(sys_)
        assert phi_map.shape == (sys_.nfree, g.nt + 1)
        for i in range(g.nt + 1):
            u = np.zeros(g.nt + 1)
            u[i] = 1.0
            traj = pde.solve_linear(g, u=u)
            col = traj.final()[sys_.free]
            assert np.allclose(col, phi_map[:, i], rtol=1e-12, atol=1e-13)


def _reference_assembly(g):
    """Per-element accumulation of the global matrices (the loop COO replaced)."""
    sys_ = pde._System(g)
    s, w = pde._gauss01()
    mats = pde._element_mats(g.dx, w, *pde._shape_funcs(s, g.dx))
    out = []
    for local in mats:
        glob = np.zeros((sys_.ndof, sys_.ndof))
        for e in range(g.nx + 1):
            glob[2 * e : 2 * e + 4, 2 * e : 2 * e + 4] += local
        out.append(glob)
    return sys_, out


@pytest.mark.parametrize("h", [1.0, 0.37, 0.05, 3.0])
def test_shape_funcs_form_the_hermite_pattern(h):
    # at the element ends the values and the x-slopes (the s-slopes over h)
    # are the identity: each shape is one DOF's value or slope at one end
    n, n1, _ = pde._shape_funcs(np.array([0.0, 1.0]), h)
    got = np.stack([n[:, 0], n1[:, 0] / h, n[:, 1], n1[:, 1] / h], axis=1)
    assert np.abs(got - np.eye(4)).max() <= 4 * np.finfo(float).eps


def test_assembly_matches_per_element_reference():
    for g in (pde.Grid(L=PAIR.L, nx=8, T=1.0, nt=1), pde.Grid(L=1.0, nx=37, T=1.0, nt=1)):
        sys_, (m, k, s1) = _reference_assembly(g)
        assert np.array_equal(sys_.M.toarray(), m)
        assert np.array_equal(sys_.K.toarray(), k)
        assert np.array_equal(sys_.S1.toarray(), s1)
        free = sys_.free
        assert np.array_equal(sys_.Mf.toarray(), m[free, free])
        assert np.array_equal(sys_.Kf.toarray(), k[free, free])
        assert np.array_equal(sys_.Mc, m[free, sys_.i_dN])
        assert np.array_equal(sys_.Kc, k[free, sys_.i_dN])


def test_nonlinear_weak_matches_per_element_reference():
    g = pde.Grid(L=PAIR.L, nx=40, T=1.0, nt=1)
    sys_ = pde._System(g)
    s, w = pde._gauss01()
    n, n1, _ = pde._shape_funcs(s, g.dx)
    rng = np.random.default_rng(3)
    smooth = sys_.interpolate(exact_state(0.3, g.x_nodes), exact_deriv(0.3, g.x_nodes))
    for dofs in (rng.standard_normal(sys_.ndof), smooth):
        ref = np.zeros(sys_.ndof)
        for e in range(sys_.n_el):
            wvals = dofs[2 * e : 2 * e + 4] @ n
            ref[2 * e : 2 * e + 4] += -0.5 * (n1 * (w * wvals**2)).sum(axis=1)
        ref = ref[sys_.free]
        got = sys_.nonlinear_weak(dofs)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_nonlinear_weak_scatter_matches_add_at():
    # the two node-row adds scatter the element blocks exactly as np.add.at does
    sys_ = pde._System(pde.Grid(L=PAIR.L, nx=40, T=1.0, nt=1))
    rng = np.random.default_rng(5)
    for scale in (1e-3, 1.0, 1e3):
        dofs = scale * rng.standard_normal(sys_.ndof)
        wsq = (dofs[sys_.el_dofs] @ sys_.shape) ** 2
        contrib = np.hstack([wsq @ sys_.weak_left, wsq @ sys_.weak_right])
        ref = np.zeros(sys_.ndof)
        np.add.at(ref, sys_.el_dofs, contrib)
        assert np.array_equal(sys_.nonlinear_weak(dofs), ref[sys_.free])


def test_row_norms_match_per_row_form():
    # one sparse product per matrix against one matvec per time node
    g = pde.Grid(L=PAIR.L, nx=48, T=1.0, nt=60)
    traj = pde.solve_linear(g, y0=exact_y0(g), u=0.2 * np.sin(3.0 * g.t_nodes))
    sys_ = traj.system
    l2 = np.array([sys_.l2_norm(d) for d in traj.dofs])
    h1 = np.array([math.sqrt(max(float(d @ (sys_.S1 @ d)), 0.0)) for d in traj.dofs])
    assert np.abs(traj.l2_norms() - l2).max() <= 1e-14 * l2.max()
    xnorm = l2.max() + math.sqrt(np.trapezoid(h1**2, dx=g.dt))
    assert abs(traj.xnorm - xnorm) <= 1e-14 * xnorm


def test_bad_grid_and_control_raise_domain_error():
    with pytest.raises(DomainError):
        pde.Grid(L=1.0, nx=4, T=1.0, nt=10)
    for T in (0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            pde.Grid(L=1.0, nx=8, T=T, nt=10)
    g = pde.Grid(L=1.0, nx=8, T=1.0, nt=10)
    with pytest.raises(DomainError):
        pde.solve_linear(g, u=np.zeros(g.nt))


_G = pde.Grid(L=1.0, nx=8, T=1.0, nt=10)
_NAN_U = np.where(np.arange(_G.nt + 1) == 3, np.nan, 0.0)
_ZERO_X = np.zeros(_G.nx + 2)
_NAN_X = np.where(np.arange(_G.nx + 2) == 4, np.nan, 0.0)
_BAD_INPUTS = {
    "linear-nan-control": lambda: pde.solve_linear(_G, u=_NAN_U),
    "second-order-inf-control": lambda: pde.solve_second_order(_G, np.full(_G.nt + 1, np.inf)),
    "nonlinear-nan-control": lambda: pde.solve_nonlinear(_G, u=_NAN_U),
    "linear-nan-y0": lambda: pde.solve_linear(_G, y0=(_NAN_X, _ZERO_X)),
    "nonlinear-inf-derivative-y0": lambda: pde.solve_nonlinear(_G, y0=(_ZERO_X, _ZERO_X + np.inf)),
    "short-y0": lambda: pde.solve_linear(_G, y0=(np.zeros(_G.nx + 1), _ZERO_X)),
    "short-derivative-y0": lambda: pde.solve_nonlinear(_G, y0=(_ZERO_X, np.zeros(_G.nx))),
    "values-only-y0": lambda: pde.solve_linear(_G, y0=_ZERO_X),
    "callable-y0": lambda: pde.solve_linear(_G, y0=lambda x: 0.0),
    "callable-control": lambda: pde.solve_nonlinear(_G, u=lambda t: 0.0),
    "nan-target": lambda: pde.hum_control(_G, (_NAN_X, _ZERO_X)),
    "values-only-target": lambda: pde.hum_control(_G, _ZERO_X),
    "float-nx": lambda: pde.Grid(L=1.0, nx=8.5, T=1.0, nt=10),
    "float-nt": lambda: pde.Grid(L=1.0, nx=8, T=1.0, nt=10.0),
    "str-nx": lambda: pde.Grid(L=1.0, nx="16", T=1.0, nt=10),
    "zero-tol": lambda: pde.hum_control(_G, (_ZERO_X + 1.0, _ZERO_X), tol=0.0),
    "negative-tol": lambda: pde.hum_control(_G, (_ZERO_X + 1.0, _ZERO_X), tol=-1e-6),
    "nan-tol": lambda: pde.hum_control(_G, (_ZERO_X + 1.0, _ZERO_X), tol=math.nan),
}
_ENTRY_POINTS = {
    "linear": pde.solve_linear,
    "second-order": lambda grid: pde.solve_second_order(grid, np.zeros(_G.nt + 1)),
    "nonlinear": pde.solve_nonlinear,
    "gramian": lambda grid: pde.gramian(grid, nt.representations(PAIR.N)),
    "hum": lambda grid: pde.hum_control(grid, (_ZERO_X, _ZERO_X)),
}
_NOT_GRIDS = {"none": None, "list": [1.0, 8, 1.0, 10], "dict": {"L": 1.0, "nx": 8, "T": 1.0, "nt": 10}}
_BAD_INPUTS |= {
    f"{entry}-{kind}-grid": lambda run=run, grid=grid: run(grid)
    for entry, run in _ENTRY_POINTS.items()
    for kind, grid in _NOT_GRIDS.items()
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_pde_input_raises_domain_error(case):
    with pytest.raises(DomainError):
        _BAD_INPUTS[case]()


@pytest.mark.slow
def test_gramian_dichotomy_quick():
    cls = nt.representations(3)
    crit = pde.gramian(pde.Grid(L=2 * math.pi, nx=128, T=1.0, nt=650), cls)
    assert crit.restricted_ratio <= 1e-6
    free = pde.gramian(pde.Grid(L=1.0, nx=96, T=1.0, nt=400), cls)
    assert free.restricted_min_ratio >= 1e-4
    assert crit.dim_mn == 1
    # singular values sorted and nonnegative
    sv = crit.singular_values
    assert (np.diff(sv) <= 1e-12).all() and (sv >= 0).all()


@pytest.mark.slow
@pytest.mark.parametrize("N, dim", [(7, 2), (91, 4)])
def test_gramian_collapse_rate_multi_pair(N, dim):
    # the paper's case, dim M_N >= 2: the restricted ratio is discretization
    # error (fourth order in h), so the gate is its rate, not a fixed bound
    cls = nt.representations(N)
    ratios = []
    for nx, steps in ((128, 650), (256, 650), (512, 1300)):
        rep = pde.gramian(pde.Grid(L=cls.L, nx=nx, T=1.0, nt=steps), cls)
        assert rep.dim_mn == cls.dim_MN == dim
        ratios.append(rep.restricted_ratio)
    assert ratios[0] >= 10 * ratios[1] and ratios[1] >= 10 * ratios[2]
    free = pde.gramian(pde.Grid(L=1.0, nx=128, T=1.0, nt=650), cls)
    assert free.restricted_min_ratio >= 1e-4


@pytest.mark.parametrize("N", [3, 7])
@pytest.mark.parametrize("nx, steps", [(32, 80), (8, 10)], ids=["wide", "tall"])
def test_gramian_spectra_match_direct_svds(N, nx, steps):
    # gramian reads the three spectra off a triangular factor of the map; they
    # are the singular values of the L2 map itself and of its projections
    # onto the M_N shapes and their complement (measured within 9e-16 sigma_1)
    cls = nt.representations(N)
    g = pde.Grid(L=cls.L, nx=nx, T=1.0, nt=steps)
    rep = pde.gramian(g, cls)
    sys_ = pde._System(g)
    r, phi_l2, _ = sys_.l2_map
    assert (phi_l2.shape[1] > phi_l2.shape[0]) == (nx == 32)
    qb, _ = np.linalg.qr(r @ pde._mn_dofs(sys_, cls))
    proj = qb.T @ phi_l2
    direct = [np.linalg.svd(m, compute_uv=False) for m in (phi_l2, proj, phi_l2 - qb @ proj)]
    tol = 1e-13 * direct[0][0]
    for got, want in zip((rep.singular_values, rep.restricted, rep.complement), direct):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= tol)


def test_mn_shapes_contain_one_minus_cos():
    # at L = 2 pi (N = 3) M_N is spanned by 1 - cos x: the gramian's shapes
    # hold its Hermite interpolant in the mass norm
    cls = nt.representations(3)
    sys_ = pde._System(pde.Grid(L=2 * math.pi, nx=128, T=1.0, nt=10))
    x = sys_.grid.x_nodes
    dofs = np.empty(sys_.ndof)
    dofs[0::2], dofs[1::2] = 1 - np.cos(x), np.sin(x)
    r, _, _ = sys_.l2_map
    basis = pde._mn_dofs(sys_, cls)
    shapes, target = r @ basis, r @ dofs[sys_.free]
    coef = np.linalg.lstsq(shapes, target, rcond=None)[0]
    assert np.linalg.norm(target - shapes @ coef) <= 1e-8 * np.linalg.norm(target)
    assert basis.shape[1] == cls.dim_MN == 1


def test_gramian_checks_mn_rank():
    for n in (3, 7, 91):
        cls = nt.representations(n)
        rep = pde.gramian(pde.Grid(L=cls.L, nx=16, T=0.1, nt=10), cls)
        assert rep.dim_mn == cls.dim_MN


def test_gramian_mn_resolution_error():
    # at nx = 8 every node of L(9,9) = 18 pi is a double zero of the profile
    cls = nt.representations(243)
    with pytest.raises(ResolutionError):
        pde.gramian(pde.Grid(L=cls.L, nx=8, T=1.0, nt=10), cls)


def test_gramian_zero_time_limit():
    cls = nt.representations(3)
    reports = []
    for T in (0.2, 0.05):
        rep = pde.gramian(pde.Grid(L=1.0, nx=32, T=T, nt=40), cls)
        reports.append(rep.singular_values[0])
    assert reports[1] < reports[0]
    assert reports[1] < 0.1


def test_hum_zero_target():
    g = pde.Grid(L=1.0, nx=32, T=0.5, nt=40)
    u = pde.hum_control(g, (np.zeros(g.nx + 2), np.zeros(g.nx + 2)))
    assert np.abs(u).max() == 0.0


def _hum_runs(g):
    """The run of a smooth control u0 and the run of HUM's control for its final state."""
    u0 = np.sin(2 * math.pi * g.t_nodes) * np.exp(-10 * (g.t_nodes - 0.5) ** 2)
    tr = pde.solve_linear(g, u=u0)
    target = (tr.states[-1], tr.dstates[-1])
    u_star = pde.hum_control(g, target, tol=1e-6)
    # minimum-norm property: no larger than the generating control
    assert np.linalg.norm(u_star) <= np.linalg.norm(u0)
    return tr, pde.solve_linear(g, u=u_star)


def _assert_hum_reaches_solve_linear_target(g):
    tr, tr2 = _hum_runs(g)
    resid = tr2.system.l2_norm(tr2.final() - tr.final())
    assert resid <= 1e-6 * tr.system.l2_norm(tr.final()) * 10


@pytest.mark.slow
def test_hum_steers_reachable_target():
    _assert_hum_reaches_solve_linear_target(pde.Grid(L=1.0, nx=96, T=1.0, nt=400))


@pytest.mark.slow
@pytest.mark.parametrize("N", [3, 7])
def test_hum_steers_reachable_target_at_critical_length(N):
    # only M_N is out of reach at L_N; a target that solve_linear made is reachable
    L = nt.representations(N).L
    _assert_hum_reaches_solve_linear_target(pde.Grid(L=L, nx=128, T=1.0, nt=400))


@pytest.mark.slow
def test_hum_matches_free_dofs_at_l91():
    # at L_91, nx 128 the free DOFs match within 9.5e-7 relative; the final
    # state's y_x(L) holds u*(T) = 2.3e-3, which HUM does not target, and
    # lifts the full-state residual to 7.5e-5 (3.2e-7 at nx 256)
    g = pde.Grid(L=nt.representations(91).L, nx=128, T=1.0, nt=400)
    tr, tr2 = _hum_runs(g)
    sys_ = tr.system
    diff = tr2.final() - tr.final()
    free = np.zeros_like(diff)
    free[sys_.free] = diff[sys_.free]
    assert sys_.l2_norm(free) <= 1e-5 * sys_.l2_norm(tr.final())
    # the rest: y(0) and y(L) are zero in both runs, y_x(L) is u*(T) - u0(T)
    rest = np.delete(diff, sys_.free)
    assert np.array_equal(rest, [0.0, 0.0, tr2.control[-1] - tr.final()[sys_.i_dN]])


@pytest.mark.parametrize("nx, steps, rtol", [(96, 400, 1e-8), (8, 10, 1e-6)], ids=["wide", "tall"])
def test_hum_matches_gram_eigh_oracle(nx, steps, rtol):
    # u* from Phi's singular pairs (svd of R^T) against eigh of Phi Phi^T, on a
    # wide map and on a tall one (nt + 1 < nfree) with a nonzero reachable target.
    # Measured 5.1e-10 (wide) and 5.7e-8 (tall).  The tall u* keeps a pair with
    # sigma^2 = 2.7e-10 sigma_max^2, which eigh of the Gram matrix resolves only
    # to about eps / 2.7e-10 = 8e-7 relative; a direct SVD of Phi agrees with
    # hum_control there within 5e-12.
    g = pde.Grid(L=1.0, nx=nx, T=1.0, nt=steps)
    assert (steps + 1 < 2 * nx + 1) == (nx == 8)  # nfree = 2 nx + 1
    u0 = np.sin(2 * math.pi * g.t_nodes) * np.exp(-10 * (g.t_nodes - 0.5) ** 2)
    tr = pde.solve_linear(g, u=u0)
    target = (tr.states[-1], tr.dstates[-1])
    want = oracles.hum_control_gram_eigh(g, target)
    assert np.linalg.norm(want) > 0.0
    assert np.linalg.norm(pde.hum_control(g, target) - want) <= rtol * np.linalg.norm(want)
    # both refuse the L_3 M_N probe 1 - cos x on the same nx and nt
    g3 = pde.Grid(L=2 * math.pi, nx=nx, T=1.0, nt=steps)
    x = g3.x_nodes
    for hum in (pde.hum_control, oracles.hum_control_gram_eigh):
        with pytest.raises(NotReachable, match="not reachable"):
            hum(g3, (1 - np.cos(x), np.sin(x)))


@pytest.mark.slow
def test_hum_unreachable_target_raises():
    g = pde.Grid(L=2 * math.pi, nx=96, T=1.0, nt=400)
    x = g.x_nodes
    with pytest.raises(NotReachable, match="not reachable: relative residual .* at the numerical rank"):
        pde.hum_control(g, (1 - np.cos(x), np.sin(x)), tol=1e-6)


@pytest.mark.slow
@pytest.mark.parametrize(("N", "nx"), [(3, 128), (7, 128), (91, 256)])
def test_hum_refuses_mn_targets(N, nx):
    # each real part of each M_N profile, and the (1 - cos kx, k sin kx) probe, k = 2 pi / L_N
    cls = nt.representations(N)
    g = pde.Grid(L=cls.L, nx=nx, T=1.0, nt=400)
    x, k = g.x_nodes, 2 * math.pi / cls.L
    targets = [(1 - np.cos(k * x), k * np.sin(k * x))]
    for pair in cls.pairs:
        eta = ur.eta_triple(pair)
        ph, dph = ur.phi(eta, x), ur.phi_x(eta, x)
        targets += [(part(ph), part(dph)) for part in ur.phi_parts(ph)]
    for target in targets:
        with pytest.raises(NotReachable, match="not reachable"):
            pde.hum_control(g, target, tol=1e-6)
