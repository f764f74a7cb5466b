import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdvcrit import numbertheory as nt
from kdvcrit import pde
from kdvcrit import unreachable as ur
from kdvcrit.errors import DomainError, NotReachable

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
    y = rng.standard_normal((len(sys_.free), 2))
    u = rng.standard_normal((n_steps + 1, 2))
    both = pde._cn_states(sys_, y, u)
    for j in range(2):
        assert np.array_equal(both[..., j], pde._cn_states(sys_, y[:, j], u[:, j]))


def test_step_matrix_factored_once_per_system(monkeypatch):
    real = pde.sparse_linalg
    factored = []

    class CountingLinalg:
        def splu(self, a):
            factored.append(a.shape)
            return real.splu(a)

    monkeypatch.setattr(pde, "sparse_linalg", CountingLinalg())
    g = pde.Grid(L=PAIR.L, nx=16, T=0.2, nt=10)
    pde.solve_second_order(g, np.sin(g.t_nodes))
    assert len(factored) == 1
    pde.gramian(g, nt.representations(PAIR.N))
    assert len(factored) == 2


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

    y1, y2 = pde.solve_second_order(g, u1)
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
    # every column, on a generic grid, a single-step grid and the critical length
    for g in (
        pde.Grid(L=1.0, nx=24, T=0.5, nt=30),
        pde.Grid(L=1.0, nx=8, T=0.1, nt=1),
        pde.Grid(L=2 * math.pi, nx=16, T=1.0, nt=20),
    ):
        sys_ = pde._System(g)
        phi_map = pde._control_map(sys_)
        assert phi_map.shape == (len(sys_.free), g.nt + 1)
        for i in range(g.nt + 1):
            u = np.zeros(g.nt + 1)
            u[i] = 1.0
            traj = pde.solve_linear(g, u=u, system=sys_)
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


def test_assembly_matches_per_element_reference():
    for g in (pde.Grid(L=PAIR.L, nx=8, T=1.0, nt=1), pde.Grid(L=1.0, nx=37, T=1.0, nt=1)):
        sys_, (m, k, s1) = _reference_assembly(g)
        assert np.array_equal(sys_.M.toarray(), m)
        assert np.array_equal(sys_.K.toarray(), k)
        assert np.array_equal(sys_.S1.toarray(), s1)
        free = sys_.free
        assert np.array_equal(sys_.Mf.toarray(), m[np.ix_(free, free)])
        assert np.array_equal(sys_.Kf.toarray(), k[np.ix_(free, free)])
        assert np.array_equal(sys_.Mc, m[free, sys_.i_dN])
        assert np.array_equal(sys_.Kc, k[free, sys_.i_dN])


def test_nonlinear_weak_matches_per_element_reference():
    g = pde.Grid(L=PAIR.L, nx=40, T=1.0, nt=1)
    sys_ = pde._System(g)
    s, w = pde._gauss01()
    n, n1, _ = pde._shape_funcs(s, g.dx)
    rng = np.random.default_rng(3)
    for dofs in (rng.standard_normal(sys_.ndof), sys_.interpolate(exact_state(0.3, g.x_nodes))):
        ref = np.zeros(sys_.ndof)
        for e in range(sys_.n_el):
            wvals = dofs[2 * e : 2 * e + 4] @ n
            ref[2 * e : 2 * e + 4] += -0.5 * (n1 * (w * wvals**2)).sum(axis=1)
        ref = ref[sys_.free]
        got = sys_.nonlinear_weak(dofs)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_bad_grid_and_control_raise_domain_error():
    with pytest.raises(DomainError):
        pde.Grid(L=1.0, nx=4, T=1.0, nt=10)
    with pytest.raises(DomainError):
        pde.Grid(L=1.0, nx=8, T=0.0, nt=10)
    g = pde.Grid(L=1.0, nx=8, T=1.0, nt=10)
    with pytest.raises(DomainError):
        pde.solve_linear(g, u=np.zeros(g.nt))


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
    u = pde.hum_control(g, np.zeros(g.nx + 2))
    assert np.abs(u).max() == 0.0


@pytest.mark.slow
def test_hum_steers_reachable_target():
    g = pde.Grid(L=1.0, nx=96, T=1.0, nt=400)
    u0 = np.sin(2 * math.pi * g.t_nodes) * np.exp(-10 * (g.t_nodes - 0.5) ** 2)
    tr = pde.solve_linear(g, u=u0)
    target = (tr.states[-1], tr.dstates[-1])
    u_star = pde.hum_control(g, target, tol=1e-6)
    tr2 = pde.solve_linear(g, u=u_star)
    resid = tr2.system.l2_norm(tr2.final() - tr.final())
    assert resid <= 1e-6 * tr.system.l2_norm(tr.final()) * 10
    # minimum-norm property: no larger than the generating control
    assert np.linalg.norm(u_star) <= np.linalg.norm(u0)


@pytest.mark.slow
def test_hum_unreachable_target_raises():
    g = pde.Grid(L=2 * math.pi, nx=96, T=1.0, nt=400)
    x = g.x_nodes
    with pytest.raises(NotReachable):
        pde.hum_control(g, (1 - np.cos(x), np.sin(x)), tol=1e-6)
