import cmath
import math

import numpy as np
import pytest

from kdvcrit import numbertheory as nt
from kdvcrit import unreachable as ur
from kdvcrit.errors import CaseError, InvariantViolation

P21 = nt.CriticalPair(2, 1)
P11 = nt.CriticalPair(1, 1)
P41 = nt.CriticalPair(4, 1)


def _simpson_weights(n: int, dx: float) -> np.ndarray:
    """Composite Simpson weights on n (odd) uniform points of spacing dx."""
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dx / 3.0)


def test_eta_residuals_and_common_multiplier():
    for q in nt.enumerate_pairs(10):
        eta = ur.eta_triple(q)
        assert np.abs(eta.eta**3 + eta.eta - 1j * q.p).max() < 1e-12
        assert np.abs(eta.eta.real).max() == 0.0
        w = np.exp(eta.eta * q.L)
        assert np.abs(w - eta.exp_eta1_L).max() < 1e-10


def test_eta_multiplier_branches():
    # 2k+l = 5 for (2,1): exp(eta_1 L) = exp(-10 pi i/3) = exp(2 pi i/3) != 1
    assert ur.eta_triple(P21).exp_eta1_L == pytest.approx(cmath.exp(2j * cmath.pi / 3))
    # (1,1): 2k+l = 3, multiplier 1 and p = 0
    assert ur.eta_triple(P11).exp_eta1_L == 1
    assert P11.p == 0.0
    # eta sums to zero (no quadratic term in the cubic)
    assert abs(ur.eta_triple(P21).eta.sum()) < 1e-14


def test_eta_weighted_power_sums():
    for q in (P21, P41, nt.CriticalPair(5, 3)):
        e = ur.eta_triple(q).eta
        ep1, ep2 = np.roll(e, -1), np.roll(e, -2)
        d = ep1 - e
        gamma = (d * ep2**2).sum()
        assert abs(d.sum()) < 1e-12
        assert abs((d * ep2).sum()) < 1e-12
        assert abs((d * ep2**3).sum()) < 1e-12
        assert abs((d * ep2**4).sum() + gamma) < 1e-12 * max(1.0, abs(gamma))


def test_phi_boundary_flatness():
    eta = ur.eta_triple(P21)
    ends = np.array([0.0, P21.L])
    assert np.abs(ur.phi(eta, ends)).max() < 1e-12
    assert np.abs(ur.phi_x(eta, ends)).max() < 1e-12


def test_psi_solves_linear_kdv():
    eta = ur.eta_triple(P21)
    e = eta.eta
    ep1, ep2 = np.roll(e, -1), np.roll(e, -2)
    rng = np.random.default_rng(5)
    t = rng.uniform(0, 5, 100)
    x = rng.uniform(0, P21.L, 100)
    ph = ((ep1 - e) * np.exp(np.multiply.outer(x, ep2))).sum(-1)
    ph1 = ((ep1 - e) * ep2 * np.exp(np.multiply.outer(x, ep2))).sum(-1)
    ph3 = ((ep1 - e) * ep2**3 * np.exp(np.multiply.outer(x, ep2))).sum(-1)
    rot = np.exp(-1j * t * eta.p)
    resid = rot * (-1j * eta.p) * ph + rot * ph1 + rot * ph3
    assert np.abs(resid).max() < 1e-10


def test_constants_21():
    d = ur.constants(P21)
    closed = -8j * math.pi**3 * 6 / P21.L**3
    assert d.Gamma == pytest.approx(closed, rel=1e-13)
    assert d.Lambda == pytest.approx(closed, rel=1e-13)
    assert abs(d.E) > 1e-3 * abs(d.Gamma)


def test_constants_11_all_zero():
    d = ur.constants(P11)
    assert d.E == 0
    assert abs(d.F) < 1e-15
    assert d.Gamma == pytest.approx(-2j, rel=1e-13)


def test_constants_41_caseE0():
    d = ur.constants(P41)
    assert abs(d.E) < 1e-13
    # F = -(Gamma/9) i p L exp(eta_1 L) with exp(eta_1 L) = 1
    expect = -(d.Gamma / 9) * 1j * P41.p * P41.L
    assert d.F == pytest.approx(expect, rel=1e-12)
    assert abs(d.F) > 0.1


def test_gamma_lambda_closed_form_50_pairs():
    for q in nt.enumerate_pairs(20)[:50]:
        d = ur.constants(q)
        closed = -8j * math.pi**3 * q.k * q.l * (q.k + q.l) / q.L**3
        assert abs(d.Gamma - closed) <= 1e-12 * abs(closed)
        assert abs(d.Lambda - closed) <= 1e-12 * abs(closed)


def test_e_dichotomy_50_pairs():
    for q in nt.enumerate_pairs(20)[:50]:
        d = ur.constants(q)
        if q.caseE0:
            assert abs(d.E) < 1e-12
        else:
            assert abs(d.E) > 1e-3 * abs(d.Gamma)


def test_dual_route_constants():
    # route 1: the Gamma/Lambda definitions (what constants() computes);
    # route 2: substitute Gamma = Lambda = closed form
    for q in nt.enumerate_pairs(12):
        d = ur.constants(q)
        g = -8j * math.pi**3 * q.k * q.l * (q.k + q.l) / q.L**3
        w = d.eta.exp_eta1_L
        ipl = 1j * q.p * q.L
        e2 = -(g / 3) * (w - 1)
        f2 = -(g / 9) * ipl * w
        e12 = -(1 + ipl) * e2 / 3 + f2
        f12 = f2 * (-2 / 3 - ipl / 6)
        scale = abs(g)
        assert abs(d.E - e2) <= 1e-12 * scale
        assert abs(d.F - f2) <= 1e-12 * scale
        assert abs(d.E1 - e12) <= 1e-12 * scale
        assert abs(d.F1 - f12) <= 1e-12 * scale


def test_e1_over_e_branches():
    # plus branch: exp(eta_1 L) = exp(2 pi i/3) <=> 2k+l = 2 mod 3
    r = ur.e1_over_e(P21)
    pl = P21.p * P21.L
    assert r == pytest.approx(-1 / 3 + math.sqrt(3) * pl / 18 - 1j * pl / 6, rel=1e-12)
    r32 = ur.e1_over_e(nt.CriticalPair(3, 2))
    pl32 = nt.CriticalPair(3, 2).p * nt.CriticalPair(3, 2).L
    assert r32 == pytest.approx(-1 / 3 + math.sqrt(3) * pl32 / 18 - 1j * pl32 / 6, rel=1e-12)
    # minus branch: (3,1) has 2k+l = 7 = 1 mod 3 -> exp(4 pi i/3)
    q31 = nt.CriticalPair(3, 1)
    r31 = ur.e1_over_e(q31)
    pl31 = q31.p * q31.L
    assert r31 == pytest.approx(-1 / 3 - math.sqrt(3) * pl31 / 18 - 1j * pl31 / 6, rel=1e-12)


def test_e1_over_e_imaginary_part():
    for q in nt.enumerate_pairs(20):
        if q.caseE0:
            continue
        r = ur.e1_over_e(q)
        assert abs(r.imag + q.p * q.L / 6) <= 1e-12 * max(1.0, q.p * q.L)


def test_e1_over_e_caseE0_raises():
    with pytest.raises(CaseError):
        ur.e1_over_e(P41)


def test_lemma_orthogonality():
    # Psi_1 = Re(c Psi(tau, .)), Psi_2 = Im(...): equal norms, orthogonal
    eta = ur.eta_triple(P21)
    c, tau = 0.3 + 0.7j, 0.9
    x = np.linspace(0, P21.L, 4097)
    w = _simpson_weights(x.size, x[1] - x[0])
    vals = c * ur.psi(eta, tau, x)
    p1, p2 = vals.real, vals.imag
    n1 = (w * p1**2).sum()
    n2 = (w * p2**2).sum()
    cross = (w * p1 * p2).sum()
    assert n1 == pytest.approx(n2, rel=1e-10)
    assert abs(cross) <= 1e-10 * n1


def test_norm_time_independence():
    eta = ur.eta_triple(P21)
    c = 1.1 - 0.4j
    x = np.linspace(0, P21.L, 4097)
    w = _simpson_weights(x.size, x[1] - x[0])
    norms = []
    for t in np.linspace(0.0, 3 * 2 * math.pi / P21.p, 17):
        vals = (c * ur.psi(eta, t, x)).real
        norms.append((w * vals**2).sum())
    norms = np.array(norms)
    assert np.abs(norms / norms[0] - 1).max() <= 1e-10


def test_invariant_violation_guard():
    # a forged pair with inconsistent p must trip the eta residual check
    q = nt.CriticalPair(2, 1)
    object.__setattr__(q, "p", q.p * 1.001)
    with pytest.raises(InvariantViolation):
        ur.eta_triple(q)
