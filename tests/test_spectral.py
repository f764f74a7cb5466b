import cmath
import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from kdvcrit import spectral as sp
from kdvcrit.errors import DomainError

L21 = 2 * math.pi * math.sqrt(7 / 3)


def test_roots_at_zero():
    lam = sp.roots(0.0)
    assert np.allclose(sorted(lam, key=lambda z: z.imag), [-1j, 0, 1j], atol=1e-15)


def test_roots_reject_nonfinite():
    for z in (math.nan, math.inf, complex(0.0, math.nan), np.array([1.0, -math.inf])):
        with pytest.raises(DomainError):
            sp.roots(z)


def test_root_residuals_batch():
    rng = np.random.default_rng(7)
    z = rng.uniform(-1e6, 1e6, 4000)
    lam = sp.roots(z)
    res = np.abs(lam**3 + lam + 1j * z[:, None])
    assert (res / (1 + np.abs(z))[:, None]).max() < 1e-12
    vr = oracles.vieta_residuals(lam, z)
    assert (vr / (1 + np.abs(z))[:, None]).max() < 1e-12


def test_roots_near_collision():
    for dz in (0.0, 1e-12, 1e-7, 1e-4):
        z = sp.COLLISION_Z + dz
        lam = sp.roots(z)
        assert np.abs(lam**3 + lam + 1j * z).max() < 1e-12


def _h_mpmath(z, L):
    """50-digit H = det Q / Xi at the same float z."""
    with mp.workdps(50):
        lam = mp.polyroots([1, 0, 1, 1j * mp.mpc(z)], maxsteps=200, extraprec=200)
        detq = sum((lam[(j + 1) % 3] - lam[j]) * mp.exp(-lam[(j + 2) % 3] * L) for j in range(3))
        return complex(detq / (-(lam[1] - lam[0]) * (lam[2] - lam[1]) * (lam[0] - lam[2])))


def test_roots_companion_fallback():
    # complex z this close to +-COLLISION_Z leave 3 lambda^2 + 1 below the
    # Newton guard, so roots falls back to companion-matrix eigenvalues; no
    # real z does (measured H error: 3.8e-16 at L = 3.6, 4.6e-16 at 2 pi)
    for z in (
        -0.38490017945975047 - 2.0931625556025483e-17j,
        0.38490017945975047 - 2.153831442980294e-17j,
    ):
        z_arr = np.array([z])
        assert not np.all(np.isfinite(sp._newton_polish(sp._cardano(z_arr), z_arr)))
        for L in (3.6, 2 * math.pi):
            hm, hs = sp.h_scaled(z, L)
            exact = _h_mpmath(z, L)
            assert abs(hm * math.exp(hs) - exact) <= 1e-14 * abs(exact)


def test_complex_z_roots():
    rng = np.random.default_rng(8)
    z = rng.uniform(-50, 50, 100) + 1j * rng.uniform(-3, 3, 100)
    lam = sp.roots(z)
    assert (np.abs(lam**3 + lam + 1j * z[:, None]) / (1 + np.abs(z))[:, None]).max() < 1e-12


def test_large_z_asymptotic_example():
    lam = sp.roots(1e6)
    target = sp.MU[2] * 100 - 1 / (3 * sp.MU[2] * 100)
    assert abs(lam[2] - target) <= 1e-8
    assert sp.MU[1] == pytest.approx(1j, abs=1e-15)  # Re lambda_2 -> 0


def test_asymptotic_orders_plain():
    zg = 1e3 * 2.0 ** np.arange(0, 10.5)
    lam = sp.roots(zg)
    e1 = np.abs(lam - sp.asymptotic_roots(zg, 1)).max(axis=1)
    e2 = np.abs(lam - sp.asymptotic_roots(zg, 2)).max(axis=1)
    s1 = np.polyfit(np.log10(zg), np.log10(e1), 1)[0]
    s2 = np.polyfit(np.log10(zg), np.log10(e2), 1)[0]
    assert abs(s1 + 1 / 3) < 0.05
    assert abs(s2 + 5 / 3) < 0.05


def test_asymptotic_orders_shifted():
    p = 0.3
    zg = 1e3 * 2.0 ** np.arange(0, 10.5)
    lamt = sp.shifted_roots(zg, p)
    slopes = []
    for order in (1, 2, 3):
        err = np.abs(lamt - sp.asymptotic_roots(zg, order, p=p, shifted=True)).max(axis=1)
        slopes.append(np.polyfit(np.log10(zg), np.log10(err), 1)[0])
    assert abs(slopes[0] + 1 / 3) < 0.05
    assert abs(slopes[1] + 2 / 3) < 0.05  # the p-linear z^{-2/3} term dominates
    assert abs(slopes[2] + 5 / 3) < 0.05


def test_asymptotic_rejects_nonpositive():
    with pytest.raises(DomainError):
        sp.asymptotic_roots(-1.0, 1)
    with pytest.raises(DomainError):
        sp.asymptotic_roots(1.0, 4)


def test_shifted_roots_are_conjugates():
    p = 0.207
    for z in (3.3, 42.0, 997.0):
        tl = sp.shifted_roots(z, p)
        ref = np.conj(sp.roots(z - p))
        assert np.abs(np.sort_complex(tl) - np.sort_complex(ref)).max() < 1e-12 * (1 + abs(z))


def test_frame_h_zero_at_critical():
    fr = sp.frame(0.0, 2 * math.pi)
    assert abs(fr.H) < 1e-13
    assert abs(fr.Xi) > 0.1
    # non-critical length: H(0) = 1 - cos L
    fr1 = sp.frame(0.0, 1.0)
    assert fr1.H == pytest.approx(1 - math.cos(1.0), rel=1e-12)


def test_gh_permutation_invariance():
    for z in (0.7, 5.0, -12.3, 300.0):
        fr = sp.frame(z, L21)
        for perm in itertools.permutations(range(3)):
            lp = fr.lam[list(perm)][None, :]
            g = sp.p_scaled(lp, L21)
            q = sp.detq_scaled(lp, L21)
            x = sp.xi(lp)[0]
            g_val = g[0][0] * np.exp(g[1][0]) / x
            h_val = q[0][0] * np.exp(q[1][0]) / x
            assert abs(g_val - fr.G) <= 1e-13 * abs(fr.G)
            assert abs(h_val - fr.H) <= 1e-13 * abs(fr.H)


def test_divided_difference_matches_quotient():
    for z in (0.9, 17.0, -250.0):
        fr = sp.frame(z, L21)
        lam = fr.lam[None, :]
        assert sp._dd2(-1.0, lam, L21)[0] == pytest.approx(fr.H, rel=1e-12)
        assert -sp._dd2(+1.0, lam, L21)[0] == pytest.approx(fr.G, rel=1e-12)


def test_gh_continuous_through_collision():
    # Xi vanishes at z = 2/(3 sqrt 3); G, H are entire so the fallback value
    # must match the limit of the raw quotient from nearby
    zc = sp.COLLISION_Z
    gm0, gs0, hm0, hs0 = sp.gh_scaled(zc, L21)
    gm1, gs1, hm1, hs1 = sp.gh_scaled(zc + 1e-7, L21)
    h_at = hm0 * np.exp(hs0)
    h_near = hm1 * np.exp(hs1)
    assert abs(h_at - h_near) < 1e-5 * abs(h_at)
    g_at = gm0 * np.exp(gs0)
    g_near = gm1 * np.exp(gs1)
    assert abs(g_at - g_near) < 1e-5 * abs(g_at)


# offsets from the collision points: the _dd2 fallback runs below ~5e-4
_NEAR_COLLISION = np.array([0.0, 1e-15, -1e-15, 1e-14, -3e-14, 1e-12, -1e-10, 1e-8])


def test_h_scaled_is_gh_scaled_h():
    z = np.concatenate(
        [
            np.linspace(-3000.0, 3000.0, 4001),
            sp.COLLISION_Z + _NEAR_COLLISION,
            -sp.COLLISION_Z + _NEAR_COLLISION,
        ]
    )
    assert np.any(np.abs(sp.xi(sp.roots(z))) < sp._XI_FALLBACK)
    for zz in (z, z + 0.5j, z[:, None]):
        _, _, hm, hs = sp.gh_scaled(zz, L21)
        hm1, hs1 = sp.h_scaled(zz, L21)
        assert np.array_equal(hm1, hm) and np.array_equal(hs1, hs)
    for zz in (0.3, sp.COLLISION_Z, 17.0 - 2.0j):
        _, _, hm, hs = sp.gh_scaled(zz, L21)
        assert sp.h_scaled(zz, L21) == (hm, hs)


def test_h_scaled_mirror_on_real_axis():
    # H(-z) = conj(H(z)) for real z, the collision band included
    z = np.concatenate([np.linspace(0.0, 3000.0, 6001), sp.COLLISION_Z + _NEAR_COLLISION])
    hm, hs = sp.h_scaled(z, L21)
    hm_neg, hs_neg = sp.h_scaled(-z, L21)
    err = np.abs(hm_neg * np.exp(hs_neg - hs) - np.conj(hm))
    assert np.all(err <= 1e-13 * np.abs(hm))


@pytest.mark.parametrize("L", [math.nan, math.inf, 0.0, -1.0])
def test_scaled_quotients_reject_bad_length(L):
    for func in (sp.h_scaled, sp.gh_scaled):
        with pytest.raises(DomainError, match="L must be positive and finite"):
            func(3.0, L)


def test_frame_reads_gh_scaled():
    for z in (0.0, 0.4, sp.COLLISION_Z, -sp.COLLISION_Z + 1e-15, 33.0, -250.0 + 1.5j):
        fr = sp.frame(z, L21)
        gm, gs, hm, hs = sp.gh_scaled(z, L21)
        assert fr.G == complex(gm * np.exp(gs))
        assert fr.H == complex(hm * np.exp(hs))


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-1e4, 1e4),
    st.floats(-50.0, 50.0),
    st.floats(-3.0, 0.0),
    st.floats(0.0, 2.0 * math.pi),
    st.sampled_from([None, 1.0, -1.0]),
)
def test_vieta_residuals_complex_z(x, y, log_rho, angle, near):
    # near = +/-1 puts z at distance 10^log_rho from +/-COLLISION_Z
    if near is None:
        z = complex(x, y)
    else:
        z = near * sp.COLLISION_Z + 10.0**log_rho * cmath.exp(1j * angle)
    res = oracles.vieta_residuals(sp.roots(z), z)
    assert np.all(res <= 1e-12 * (1.0 + abs(z)))


def test_noncritical_h_no_real_zeros():
    z = np.linspace(-40, 40, 4001).astype(complex)
    _, _, hm, hs = sp.gh_scaled(z, 1.0)
    assert np.min(np.abs(hm) * np.exp(hs)) > 1e-10


def test_h_magnitude_asymptote():
    # |H| ~ exp(Re(-lambda_1) L) / (3 z^{2/3}) with the order-2 expansion
    # root; relative residual decays like z^{-2/3}
    zs = np.geomspace(1e3, 1e6, 25)
    _, _, hm, hs = sp.gh_scaled(zs.astype(complex), L21)
    lam2 = sp.asymptotic_roots(zs, 2)
    pred = (-lam2[:, 0].real) * L21 - np.log(3 * zs ** (2 / 3))
    resid = np.abs(np.exp(np.log(np.abs(hm)) + hs - pred) - 1)
    slope = np.polyfit(np.log10(zs), np.log10(resid), 1)[0]
    assert slope <= -0.6


def test_scaled_matches_unscaled_below_overflow():
    rng = np.random.default_rng(11)
    for z in rng.uniform(-1e3, 1e3, 25):
        lam = sp.roots(complex(z))
        direct = np.sum(
            (np.roll(lam, -1) - lam) * np.exp(-np.roll(lam, -2) * L21)
        )
        m, s = sp.detq_scaled(lam[None, :], L21)
        assert m[0] * np.exp(s[0]) == pytest.approx(direct, rel=1e-12)


def _y_hat(z, x, u_hat=1.0):
    """hat y(z, x) = u_hat f(z, x)/det Q(z) at L21; f and det Q share the scale e^{qs}."""
    lam = sp.roots(complex(z))
    qm, qs = sp.detq_scaled(lam, L21)
    val = u_hat * sp.profile_scaled(lam, L21, np.reshape(x, -1), qs).sum(axis=-1) / qm
    return complex(val[0])


def test_y_hat_boundary_zeros():
    for z in (0.9, 33.0, 812.0):
        assert abs(_y_hat(z, 0.0, 1.3 + 0.4j)) < 1e-12
        assert abs(_y_hat(z, L21, 1.3 + 0.4j)) < 1e-12


def test_dx_y_hat_matches_finite_difference():
    h = 1e-5
    for z in (1.7, 54.0):
        # second-order one-sided stencil (x = 0 is the domain edge)
        fd = (4.0 * _y_hat(z, h) - _y_hat(z, 2 * h) - 3.0 * _y_hat(z, 0.0)) / (2 * h)
        lam = sp.roots(complex(z))
        (qm, qs), (pm, ps) = sp.detq_scaled(lam, L21), sp.p_scaled(lam, L21)
        an = complex(pm * np.exp(ps - qs) / qm)  # P/det Q
        assert abs(fd - an) <= 1e-8 * max(1.0, abs(an))


def test_y_hat_pole_at_minus_p():
    # at a critical length det Q vanishes at z = -p (all exp(eta_j L) equal)
    p = 0.20782656212951653
    qm, _ = sp.detq_scaled(sp.roots(complex(-p)), L21)
    assert abs(qm) < sp.POLE_TOL


def test_paley_wiener_indicator():
    T = 2.0
    dt = 1e-3
    u = np.ones(int(T / dt) + 1)
    rep = sp.paley_wiener_check(u, dt, T, L=1.0, z_max=40.0, n_z=161)
    assert rep.bound_holds
    # C is the L^1-norm scale: |u-hat(0)| = T
    assert 0.5 * T <= rep.C_uhat <= 1.5 * T


def test_paley_wiener_zero():
    rep = sp.paley_wiener_check(np.zeros(100), 1e-2, 1.0, L=1.0, z_max=20.0, n_z=41)
    assert rep.bound_holds
    assert rep.C_uhat == 0.0
