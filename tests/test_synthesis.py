import cmath
import dataclasses
import functools
import importlib.util
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from kdvcrit import jets
from kdvcrit import kernel as kn
from kdvcrit import numbertheory as nt
from kdvcrit import spectral as sp
from kdvcrit import synthesis as syn
from kdvcrit.errors import CaseError, DomainError, ResolutionError, SupportLeak

P11 = nt.CriticalPair(1, 1)
P21 = nt.CriticalPair(2, 1)
P32 = nt.CriticalPair(3, 2)
P41 = nt.CriticalPair(4, 1)
DATA = Path(__file__).resolve().parent / "data"


def _own_store(monkeypatch):
    """An empty per-pair store for the rest of the test; the process's store is left as it was."""
    monkeypatch.setattr(syn, "_pair_tables", functools.cache(syn._PairTables))


# ---------------------------------------------------------------------------
# bump transform
# ---------------------------------------------------------------------------


def test_spec_parameters(monkeypatch):
    # a spec is (pair, T) alone; beta and nu are the construction's expressions, bit for bit
    assert [f.name for f in dataclasses.fields(syn.ControlSpec)] == ["pair", "T"]
    for pair, T in ((P32, 0.4), (P21, 26.37), (P41, 0.4274)):
        spec = syn.make_spec(pair, T)
        assert spec == syn.ControlSpec(pair, T)
        assert spec.beta == T / 2.0 and spec.nu == 1.617 / math.sqrt(T / 2.0)
    spec = syn.make_spec(P32, 0.4)
    assert spec.beta == 0.2
    assert spec.nu**2 == pytest.approx(1.617**2 / spec.beta, rel=1e-14)
    assert spec.case == 1 and spec.h_order == 1
    spec2 = syn.make_spec(P41, 0.4)
    assert spec2.case == 2 and spec2.h_order == 3
    for T in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            syn.make_spec(P32, T)
    for n_side in (0, 1):
        with pytest.raises(DomainError):
            syn.sign_report(spec, n_side=n_side)
    # gamma is fixed and only checked, once per pair: an empty store of the
    # test's own probes P21's verdict again, warm or cold as the process's is
    assert spec.gamma == spec2.gamma == 0.5
    monkeypatch.setattr(syn, "_gamma_admissible", lambda pair, gamma, d: False)
    _own_store(monkeypatch)
    with pytest.raises(DomainError):
        syn.make_spec(P21, 1.0)


def test_control_spec_checks_itself(monkeypatch):
    # a spec built directly, not through make_spec, is checked on construction
    with pytest.raises(DomainError, match="T must be positive"):
        syn.steering_spectrum(syn.ControlSpec(P21, -1.0))
    with pytest.raises(DomainError, match="pair must be a CriticalPair"):
        syn.sign_report(syn.ControlSpec((2, 1), 1.0))
    for T in (0.0, math.nan, math.inf, "1.0"):
        with pytest.raises(DomainError):
            syn.ControlSpec(P21, T)
    monkeypatch.setattr(syn, "_gamma_admissible", lambda pair, gamma, d: False)
    _own_store(monkeypatch)
    with pytest.raises(DomainError, match="not admissible"):
        syn.ControlSpec(P21, 1.0)


def test_vhat_at_zero_positive():
    spec = syn.make_spec(P21, 2.0)
    v0 = oracles.bump_vhat(spec, 0.0)
    assert v0.imag == 0.0 and v0.real > 0.0


def test_vhat_conjugate_symmetry():
    spec = syn.make_spec(P21, 2.0)
    for z in (0.7, 5.5, 60.0):
        a = oracles.bump_vhat(spec, z)
        b = oracles.bump_vhat(spec, -z)
        assert b == pytest.approx(np.conj(a), rel=1e-10)


def test_vhat1_decay_rate():
    # fitted decay coefficient of log|v1| against sqrt(beta nu z) is at
    # least (1 + delta) for some delta > 0 (measured ~1.006 on this window);
    # equivalently log|v1| + (1 + delta) sqrt(beta nu z) is bounded above
    spec = syn.make_spec(P21, 1.0)
    zs = np.geomspace(1e2, 1e6, 40)
    m, s = syn.vhat1_scaled(syn.BumpTable(spec.nu), spec.beta, zs)
    logmag = np.log(np.abs(m) + 1e-300) + s
    x = np.sqrt(spec.beta * spec.nu * zs)
    slope = np.polyfit(x, logmag, 1)[0]
    assert slope <= -1.003
    delta = 0.002
    bounded = logmag + (1 + delta) * x
    assert bounded.max() <= bounded[:8].max() + 1e-9


def _v1_half_contour(nu, w):
    """Exact v1 = 2 Re(e^{-iw} C) from the half contour, with its scale and |C|."""
    c, sc = syn._half_contour(nu, np.atleast_1d(np.asarray(w, dtype=float)))
    return 2.0 * (np.exp(-1j * w) * c).real, sc, np.abs(c)


def _v1_rule(nu, w):
    return syn.quad(nu, np.exp(-nu / (1.0 - syn._TRAP_T**2)), np.array([w]))[0]


def test_contour_matches_direct_overlap():
    # sample inside the region where the trapezoid rule still has ~8 clean
    # digits (w below (nu+17)^2/nu) but the contour geometry is formed; the
    # measured worst gap is 1.9e-9, the rule's rounding floor at w = 493
    rng = np.random.default_rng(1)
    for nu in (0.6, 2.0, 8.0):
        for _ in range(6):
            w = float(rng.uniform(62.0, (nu + 17.0) ** 2 / nu))
            ref = _v1_rule(nu, w)
            val, sc, _ = _v1_half_contour(nu, w)
            got = val[0] * math.exp(sc[0])
            assert abs(got - ref) <= 1e-8 * max(abs(ref), math.exp(-math.sqrt(nu * w)))


def test_trapezoid_rule_raises_when_under_resolved():
    # far above the switch the 2N nodes alias cos(w t): the step-1/N and
    # step-1/(2N) sums differ by 5.6e8 (T = 25, w = 3,000) and 104 (T = 50,
    # w = 5,000) times the rounding floor eps (1/N) sum f_i
    for T, w in ((25.0, 3000.0), (50.0, 5000.0)):
        nu = syn.make_spec(P21, T).nu
        assert _v1_rule(nu, 80.0) == syn.BumpTable(nu).eval_w(np.array([80.0]))[0][0]
        with pytest.raises(ResolutionError):
            _v1_rule(nu, w)


def _rule_alone(nu, w):
    """The trapezoid rule at one w as a 1-D pass: the sums a batch row must reproduce."""
    terms = np.exp(-nu / (1.0 - syn._TRAP_T**2)) * np.cos(w * syn._TRAP_T)
    terms[0] *= 0.5
    return terms.sum() / syn._TRAP_N


@pytest.mark.parametrize("T", [25.0, 0.4, 0.001])  # nu = 0.457, 3.62, 72.3
def test_quad_batch_matches_per_w_calls(T):
    # 700 w cross several row blocks; each row is the rule at its w alone, bit for bit
    nu = syn.make_spec(P21, T).nu
    f = np.exp(-nu / (1.0 - syn._TRAP_T**2))
    w = np.linspace(0.0, syn.BumpTable(nu).w_sw, 700)
    assert w.size > 2 * syn._QUAD_ROWS
    batch = syn.quad(nu, f, w)
    assert np.array_equal(batch, [syn.quad(nu, f, w[i : i + 1])[0] for i in range(w.size)])
    assert np.array_equal(batch, [_rule_alone(nu, wi) for wi in w])
    edge = slice(syn._QUAD_ROWS - 3, syn._QUAD_ROWS + 3)
    assert np.array_equal(syn.quad(nu, f, w[edge]), batch[edge])


def test_quad_batch_names_its_aliased_w():
    # one aliased w in a later row block; the error names it, not the block
    nu = syn.make_spec(P21, 25.0).nu
    f = np.exp(-nu / (1.0 - syn._TRAP_T**2))
    w = np.linspace(0.0, 80.0, 400)
    w[300] = 3000.0
    with pytest.raises(ResolutionError, match=r"at w = 3000:"):
        syn.quad(nu, f, w)


def _mpmath_rows():
    """The 80-digit references committed by tests/data/bump_mpmath.py, and the script."""
    spec = importlib.util.spec_from_file_location("bump_mpmath", DATA / "bump_mpmath.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rows = json.loads(script.TABLE.read_text())
    assert [(r["nu"], r["w"]) for r in rows] == list(script.POINTS)
    return rows, script


def test_contour_matches_mpmath():
    # the cheapest entry above the switch is recomputed here so the table
    # stays tied to the script
    mp = pytest.importorskip("mpmath")
    rows, script = _mpmath_rows()
    above = [r for r in rows if "T" not in r]
    with mp.workdps(script.DIGITS):
        fresh = mp.mpf(script.reference(3.0, 300.0))
        assert mp.almosteq(fresh, mp.mpf(above[1]["v1"]), rel_eps=1e-30)

    for r in above:
        nu, w, ref = r["nu"], r["w"], float(r["v1"])
        # the half path the lattice is built from, and the lattice itself
        val, sc, _ = _v1_half_contour(nu, w)
        assert abs(val[0] * math.exp(sc[0]) - ref) <= 1e-10 * abs(ref)
        table = syn.BumpTable(nu)
        assert w > table.w_sw
        m, s = table.eval_w(np.array([w]))
        assert abs(m[0] * math.exp(s[0]) - ref) <= 1e-10 * abs(ref)


def test_half_contour_batch_matches_per_element():
    # 1,200 nodes in one array pass; each node takes the steps it takes alone
    w = np.geomspace(70.0, 4e4, 1200)
    m, s = syn._half_contour(0.457, w)
    for i in range(w.size):
        mi, si = syn._half_contour(0.457, w[i : i + 1])
        assert mi[0] == m[i] and si[0] == s[i]


def test_vhat1_direct_range_raises_no_warning():
    spec = syn.make_spec(P21, 25.0)
    w_sw = syn.BumpTable(spec.nu).w_sw
    z = np.linspace(0.0, w_sw / spec.beta, 3000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, s = syn.vhat1_scaled(syn.BumpTable(spec.nu), spec.beta, z)
    assert np.all(s == 0.0) and np.all(np.isfinite(m))


# below the switch the table is the trapezoid rule, within these multiples of
# the envelope e^{-sqrt(nu w)} of the 80-digit references; measured 1.9e-10,
# 4.2e-10, 4.0e-12, 1.7e-14, 1.7e-15 and 7.8e-16, the rounding of the sum
# at small T (the quadrature it replaced was off by 0.11 at T = 0.01, w = 73)
_RULE_BOUND = {0.01: 1e-9, 0.05: 2e-9, 0.4: 2e-11, 5.0: 1e-13, 25.0: 1e-14, 50.0: 5e-15}


def test_bump_table_matches_pointwise():
    rows, _ = _mpmath_rows()
    for T, bound in _RULE_BOUND.items():
        nu = syn.make_spec(P21, T).nu
        below = [r for r in rows if r.get("T") == T]
        assert len(below) == 6 and all(r["nu"] == nu for r in below)
        w = np.array([r["w"] for r in below])
        ref = np.array([float(r["v1"]) for r in below])
        table = syn.BumpTable(nu)
        assert np.all(w <= table.w_sw)
        m, s = table.eval_w(w)
        assert np.all(s == 0.0)
        assert np.all(np.abs(m - ref) <= bound * np.exp(-np.sqrt(nu * w)))
    # above the switch the lattice is within 1e-9 of |C| of the exact half
    # contour for w up to 1e6, which covers the sign-integral grids (the
    # rounding of the phase w itself is 1.2e-10 of |C| there)
    w = np.geomspace(1.0, 1e6, 4000)
    for T in (0.05, 0.4, 5.0, 25.0, 50.0):
        nu = syn.make_spec(P21, T).nu
        table = syn.BumpTable(nu)
        m, s = table.eval_w(w)
        lo = w <= table.w_sw
        assert np.all(s[lo] == 0.0)
        ref, sc, cabs = _v1_half_contour(nu, w[~lo])
        assert np.all(np.abs(m[~lo] * np.exp(s[~lo] - sc) - ref) <= 1e-9 * cabs)
        if T < 0.1:
            continue
        # v1 is continuous in w across the switch: a relative step of 1e-12
        # moves it by at most 1e-10 of its envelope e^{-sqrt(nu w)}; w_sw
        # itself is on the grid, so one step crosses the switch
        wc = np.append(np.geomspace(40.0, 1.05 * (nu + 18.0) ** 2 / nu, 600), table.w_sw)
        rc = np.sqrt(nu * wc)
        (m0, s0), (m1, s1) = table.eval_w(wc), table.eval_w(wc * (1.0 + 1e-12))
        assert np.all(np.abs(m0 * np.exp(s0 + rc) - m1 * np.exp(s1 + rc)) <= 1e-10)


def test_eval_w_at_the_switch_matches_single_reads():
    # w_sw itself takes the rule and its upper neighbour the lattice; every
    # value, alone or in an all-rule or all-lattice batch, equals the mixed read
    nu = syn.make_spec(P21, 0.4).nu
    w_sw = syn.BumpTable(nu).w_sw
    edge = np.array([w_sw, np.nextafter(w_sw, 0.0), np.nextafter(w_sw, np.inf)])
    direct, lattice = np.linspace(0.0, w_sw, 9)[:-1], np.geomspace(w_sw * 1.01, 1e5, 9)
    w = np.concatenate([lattice[::-1], edge, direct])
    m, s = syn.BumpTable(nu).eval_w(w)
    rule = np.r_[9, 10, 12:20]
    assert np.all(s[rule] == 0.0) and np.all(s[np.r_[0:9, 11]] != 0.0)
    for i in range(w.size):
        assert syn.BumpTable(nu).eval_w(w[i : i + 1]) == (m[i], s[i])
    for part, idx in ((direct, np.r_[12:20]), (lattice[::-1], np.r_[0:9])):
        m_part, s_part = syn.BumpTable(nu).eval_w(part)
        assert np.array_equal(m_part, m[idx]) and np.array_equal(s_part, s[idx])


def test_bump_table_keeps_its_nodes(monkeypatch):
    # a second read on one table builds only the nodes the first did not, and
    # reads the values a fresh table gives, bit for bit
    built = []
    half_contour = syn._half_contour

    def counting(nu, w):
        built.append(w)
        return half_contour(nu, w)

    monkeypatch.setattr(syn, "_half_contour", counting)
    nu = syn.make_spec(P21, 0.4).nu
    w1, w2 = np.geomspace(100.0, 1e3, 50), np.geomspace(300.0, 1e4, 80)
    table = syn.BumpTable(nu)
    table.eval_w(w1)
    got = table.eval_w(w2)
    first, second = built
    fresh = syn.BumpTable(nu).eval_w(w2)
    alone = built[2]
    assert np.array_equal(got[0], fresh[0]) and np.array_equal(got[1], fresh[1])
    assert second.size > 0 and np.intersect1d(first, second).size == 0
    assert np.array_equal(np.union1d(second, np.intersect1d(first, alone)), alone)
    table.eval_w(w1[::-1])
    assert len(built) == 3
    # a spec holds one table: vhat1_scaled reads it like a table of its nu
    spec = syn.make_spec(P21, 0.4)
    assert spec.bump is spec.bump and spec.bump.nu == spec.nu
    ref = syn.vhat1_scaled(syn.BumpTable(spec.nu), spec.beta, _Z21)
    for got, want in zip(syn.vhat1_scaled(spec.bump, spec.beta, _Z21), ref):
        assert np.array_equal(got, want)


_Z21 = np.linspace(0.0, 3000.0, 2001)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, _Z21.size - 1), st.sampled_from([1.0, -1.0])), min_size=1, max_size=30),
    st.sampled_from([25.0, 0.4]),
)
@example(picks=[(i, 1.0) for i in range(2000)], T=25.0)
def test_vhat1_any_subset_matches_full_call(picks, T):
    # the grid straddles the switch w_sw (z = 6.4 at T = 25, 400 at T = 0.4);
    # v1 is even, so a point and its mirror read the same value
    spec = syn.make_spec(P21, T)
    m, s = syn.vhat1_scaled(syn.BumpTable(spec.nu), spec.beta, _Z21)
    idx = np.array([i for i, _ in picks])
    z = np.array([sign * _Z21[i] for i, sign in picks])
    m_sub, s_sub = syn.vhat1_scaled(syn.BumpTable(spec.nu), spec.beta, z)
    assert np.array_equal(m_sub, m[idx]) and np.array_equal(s_sub, s[idx])
    m_one, s_one = syn.vhat1_scaled(syn.BumpTable(spec.nu), spec.beta, z[:1])
    assert (m_one[0], s_one[0]) == (m[idx[0]], s[idx[0]])


# ---------------------------------------------------------------------------
# H factors of the steering spectrum
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pair, order", [(P21, 1), (P11, 3), (P32, 1), (P41, 3)])
def test_h_table_matches_exact(pair, order):
    # above the switch the lattice holds H and H^(d) to 1e-12 of their size up
    # to z = 1e5 (measured 4.0e-13), and beyond to 4 eps L z^{1/3}, the rounding
    # of the phase mu_1 L z^{1/3}: measured up to 2.6 times it (1.5e-12) by
    # z = 5e6, the reach of the sign grids at T = 0.4, where 30-digit values put
    # the exact and the lattice factors each within 6e-13 (H does not depend on T)
    spec = syn.make_spec(pair, 0.4)
    assert spec.h_order == order
    z = np.geomspace(syn._H_SW, 5e6, 8000)
    tol = np.maximum(1e-12, 4 * np.finfo(float).eps * pair.L * np.cbrt(z))
    (hm, hs), (dm, ds) = syn._h_factors(spec, z)
    em, es = sp.h_scaled(z, pair.L)
    xm, xs = jets.h_jets_scaled(z + 1j * spec.gamma, pair.L, order)
    assert np.all(np.abs(hm * np.exp(hs - es) - em) <= tol * np.abs(em))
    assert np.all(np.abs(dm * np.exp(ds - xs) - xm) <= tol * np.abs(xm))
    # below it both factors are the exact values
    zl = np.linspace(0.0, syn._H_SW, 50, endpoint=False)
    (hm, hs), (dm, ds) = syn._h_factors(spec, zl)
    assert np.array_equal(hm, sp.h_scaled(zl, pair.L)[0])
    assert np.array_equal(dm, jets.h_jets_scaled(zl + 1j * spec.gamma, pair.L, order)[0])


_ZH = np.linspace(-3000.0, 3000.0, 2401)  # step 2.5: holds 0 and +-_H_SW


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, _ZH.size - 1), min_size=1, max_size=30), st.sampled_from([P21, P11]))
@example(picks=list(range(_ZH.size - 1)), pair=P21)
def test_h_factors_any_subset_matches_full_call(picks, pair):
    # the grid straddles the switch on both sides; a value depends on (spec, z) alone
    spec = syn.make_spec(pair, 25.0)
    full = syn._h_factors(spec, _ZH)
    sub = syn._h_factors(spec, _ZH[picks])
    one = syn._h_factors(spec, _ZH[picks[:1]])
    for (m, s), (m_sub, s_sub), (m_one, s_one) in zip(full, sub, one):
        assert np.array_equal(m_sub, m[picks]) and np.array_equal(s_sub, s[picks])
        assert m_one.shape == (1,) and (m_one[0], s_one[0]) == (m[picks[0]], s[picks[0]])
    # z < 0 mirrors |z| bit for bit, on the exact path and the table alike:
    # H(-z) = conj H(z) and H^(d)(-z + i g) = (-1)^d conj H^(d)(z + i g)
    pos = _ZH > 0.0
    mirror = syn._h_factors(spec, -_ZH[pos])
    for (m, s), (m_neg, s_neg), sign in zip(full, mirror, (1, (-1) ** spec.h_order)):
        assert np.array_equal(m_neg, sign * np.conj(m[pos])) and np.array_equal(s_neg, s[pos])


@pytest.mark.parametrize("pair", [P21, P11])
def test_h_factors_switch_points_match_full_call(pair):
    # 0, +-_H_SW and their neighbours, in no order: each value, in a batch or
    # as a one-point call, is the full call's, and below the switch the exact one
    spec = syn.make_spec(pair, 25.0)
    sw = syn._H_SW
    up, down = np.nextafter(sw, 9.0), np.nextafter(sw, 0.0)
    edge = np.array([sw, -sw, down, -down, up, 0.0, -up, -1.5, 2.5])
    z = np.concatenate([_ZH, edge])
    full = syn._h_factors(spec, z)
    picks = np.r_[z.size - edge.size : z.size][::-1]
    sub = syn._h_factors(spec, z[picks])
    for i, zi in zip(picks, z[picks]):
        one = syn._h_factors(spec, np.array([zi]))
        for (m, s), (m_one, s_one) in zip(full, one):
            assert m_one.shape == (1,) and (m_one[0], s_one[0]) == (m[i], s[i])
    for (m, s), (m_sub, s_sub) in zip(full, sub):
        assert np.array_equal(m_sub, m[picks]) and np.array_equal(s_sub, s[picks])
    lo = np.abs(z) < sw
    hm, hs = sp.h_scaled(np.abs(z[lo]), pair.L)
    dm, ds = jets.h_jets_scaled(np.abs(z[lo]) + 1j * spec.gamma, pair.L, spec.h_order)
    sign = np.where(z[lo] < 0.0, -1.0, 1.0) ** spec.h_order
    (m_h, s_h), (m_d, s_d) = full
    assert np.array_equal(m_h[lo], np.where(z[lo] < 0.0, np.conj(hm), hm)) and np.array_equal(s_h[lo], hs)
    assert np.array_equal(m_d[lo], sign * np.where(z[lo] < 0.0, np.conj(dm), dm)) and np.array_equal(s_d[lo], ds)
    # a call with every point below the switch, where no lattice is read
    for (m, s), (m_lo, s_lo) in zip(full, syn._h_factors(spec, z[lo])):
        assert np.array_equal(m_lo, m[lo]) and np.array_equal(s_lo, s[lo])


def _half_grid_25():
    """The z >= 0 half grid of steering_spectrum for (2,1) at T = 25: 131,073 points."""
    spec = syn.make_spec(P21, 25.0)
    z_max, _ = syn._spectrum_cutoff(spec)
    return spec, 2.0 * z_max / (1 << 18) * np.arange((1 << 17) + 1)


def _block_edges(n_lattice, first):
    """Grid indices of the lattice points on both sides of every stencil block boundary."""
    edges = np.arange(syn._LAT_BLOCK, n_lattice, syn._LAT_BLOCK)
    assert edges.size >= 2
    return (first + edges[:, None] + np.arange(-2, 2)).ravel()


def test_lattice_blocks_match_the_full_call():
    # picks straddling each 16,384-point block boundary of the bump and H
    # lattices, read alone (one block), equal the full call bit for bit
    spec, zh = _half_grid_25()
    m, s = syn.vhat1_scaled(syn.BumpTable(spec.nu), spec.beta, zh)
    n_direct = int(np.sum(spec.beta * zh <= syn.BumpTable(spec.nu).w_sw))
    picks = _block_edges(zh.size - n_direct, n_direct)
    m_sub, s_sub = syn.vhat1_scaled(syn.BumpTable(spec.nu), spec.beta, zh[picks])
    assert np.array_equal(m_sub, m[picks]) and np.array_equal(s_sub, s[picks])
    full = syn._h_factors(spec, zh)
    n_exact = int(np.sum(zh < syn._H_SW))
    picks = _block_edges(zh.size - n_exact, n_exact)
    for (mf, sf), (m_sub, s_sub) in zip(full, syn._h_factors(spec, zh[picks])):
        assert np.array_equal(m_sub, mf[picks]) and np.array_equal(s_sub, sf[picks])


@pytest.mark.parametrize("lead", [(), (2,)])
def test_lattice_reader_matches_whole_array_pass(lead):
    # 40,000 unsorted points (3 blocks) on tables with and without a leading
    # axis, as the bump and H lattices use them
    x = np.random.default_rng(5).uniform(2.0, 600.0, 40000)

    def nodes(k):
        phase = 0.3 * k + np.sin(0.05 * k)
        return np.broadcast_to(np.cos(0.02 * k), lead + k.shape), np.broadcast_to(phase, lead + k.shape)

    for got, ref in zip(syn._lattice_interp(x, nodes, "test"), oracles.lattice_interp_whole(x, nodes)):
        assert got.shape == lead + x.shape and np.array_equal(got, ref)


def test_lattice_phase_check_and_sparse_nodes():
    built = []

    def nodes(k, step=0.1):
        built.append(k)
        # f is linear in k, so the stencil reproduces it; g jumps by 2 rad past node 500
        return 2.0 * k + 1.0, step * k + 2.0 * (k > 500)

    x = np.array([10.5, 12.25])
    fi, gi = syn._lattice_interp(x, nodes, "test")
    assert np.array_equal(built[0], np.r_[7:17])
    assert np.allclose(fi, 2.0 * x + 1.0, rtol=1e-13)
    assert np.allclose(gi, 0.1 * x, rtol=1e-13)
    with pytest.raises(ResolutionError, match="test lattice phase step"):
        syn._lattice_interp(x, lambda k: nodes(k, step=math.pi / 5), "test")
    # sparse x reads every node in between, so the jump between the clusters is checked
    with pytest.raises(ResolutionError, match="test lattice phase step 2.10 rad"):
        syn._lattice_interp(np.array([10.5, 1010.25]), nodes, "test")
    assert np.array_equal(built[-1], np.r_[7:1015])


def _fresh_tables():
    """The bump (T = 0.4), H and numerator tables of (3,2), each rebuilt empty with
    near and node counted and the mantissa e^{i phase}, so a read is node's own form."""
    rec = syn._PairTables(P32)
    for t in (syn.make_spec(P32, 0.4).bump._table, rec.h, rec.numerator):
        calls = []

        def counted(fn, name, calls=calls):
            def call(a):
                calls.append(name)
                return fn(a)

            return call

        near, node = counted(t.near, "near"), counted(t.node, "node")
        yield t, syn._Table(near, node, t.rot, lambda g, a: syn._cis(g), t.a_sw, t.h, t.what), calls


def test_tables_read_their_nodes_back():
    # above the switch a read at a node abscissa a_k is node(a_k): the stencil
    # at its base node reproduces what the node stores (measured within
    # 2.9e-13 up to a = 1e6, where the growth taken out reaches 2.7e3)
    for t, cis, _ in _fresh_tables():
        ak = np.exp(math.log(t.a_sw) + np.arange(1, int(math.log(1e6 / t.a_sw) / t.h)) * t.h)
        m, s = cis(ak)
        nm, ns = t.node(ak)
        assert np.all(np.abs(np.log(np.abs(m)) + s - np.log(np.abs(nm)) - ns) <= 1e-12), t.what
        assert np.all(np.abs(np.angle(m * np.conj(nm))) <= 1e-12), t.what


def test_tables_read_only_near_up_to_the_switch():
    for t, cis, calls in _fresh_tables():
        a = np.array([0.6 * t.a_sw, np.nextafter(t.a_sw, 0.0), t.a_sw])
        for got, want in zip(cis(a), t.near(a)):
            assert np.array_equal(got, want), t.what
        assert calls == ["near"], t.what
        cis(np.append(a, np.nextafter(t.a_sw, np.inf)))
        assert calls == ["near", "node", "near"], t.what


# ---------------------------------------------------------------------------
# H derivatives on the shifted line
# ---------------------------------------------------------------------------


def cauchy_derivative(fun, z0, d, radius=0.4, n=256):
    th = np.exp(2j * np.pi * np.arange(n) / n)
    vals = np.array([fun(z0 + radius * t) for t in th])
    return math.factorial(d) / n * np.sum(vals / (radius * th) ** d)


def test_h_derivative_against_contour_oracle():
    rng = np.random.default_rng(4)
    gamma = 1.0
    for d in (1, 3):
        for z in rng.uniform(-40, 40, 8):
            (got,) = oracles.h_derivative_on_line(P21, gamma, np.array([z]), d)
            ref = cauchy_derivative(lambda w: sp.frame(w, P21.L).H, z + 1j * gamma, d)
            assert abs(got - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("pair", [P21, P41, nt.CriticalPair(12, 11)])
def test_h_derivative_against_mpmath_to_1e9(pair):
    # the H lattice's nodes reach 1e9: 40-digit mp.diff of det Q / Xi there,
    # in log magnitude and phase.  The float exponent lambda L rounds at
    # eps L |z|^{1/3}; measured up to 0.77 of it above z = 1e3 (7.3e-12 for
    # (12,11) at 1e9) and at most 1.4e-14 below, for d = 1 and 3 alike
    z = np.array([0.0, 3.0, 40.0, 1e3, 1e5, 3e6, 1e8, 1e9])
    tol = 1e-13 + np.finfo(float).eps * pair.L * np.cbrt(z)
    for d in (1, 3):
        m, s = jets.h_jets_scaled(z + 1j * syn._GAMMA, pair.L, d)
        for zi, mi, si, ti in zip(z, m, s, tol):
            log_ref, arg_ref = oracles.h_derivative_mp(pair, complex(zi, syn._GAMMA), d)
            assert abs(math.log(abs(mi)) + si - log_ref) <= ti
            assert abs(cmath.phase(mi * cmath.exp(-1j * arg_ref))) <= ti


def _continued_roots(z0, radius, n=256):
    """The roots at z0 (sorted) continued out to radius and once around the circle.

    Returns a function of a circle point; nearest-root steps are short, and
    the circle excludes the collision points, so each branch stays analytic.
    """
    th = np.exp(2j * np.pi * np.arange(n) / n)
    path = np.concatenate([z0 + radius * np.linspace(0.0, 1.0, 33), z0 + radius * th])
    lam = sp.roots(path)
    for _ in range(3):  # polish to full precision near the collision points
        lam = lam - (lam**3 + lam + 1j * path[:, None]) / (3.0 * lam**2 + 1.0)
    out = np.empty_like(lam)
    prev = lam[0]
    for i in range(path.size):
        prev = lam[i][np.argmin(np.abs(lam[i][None, :] - prev[:, None]), axis=1)]
        out[i] = prev
    circle, on_circle = path[33:], out[33:]
    return lambda z: on_circle[np.argmin(np.abs(circle - z))]


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-40.0, 40.0),
    st.floats(-4.0, 4.0),
    st.floats(-3.0, 0.0),
    st.floats(0.0, 2.0 * math.pi),
    st.sampled_from([None, 1.0, -1.0]),
)
def test_root_jets_match_cauchy_derivatives(x, y, log_rho, angle, near):
    # near = +/-1 puts z0 at distance 10^log_rho from +/-COLLISION_Z, where
    # 3 lambda^2 + 1 is small but above the singular tolerance
    if near is None:
        z0 = complex(x, y)
    else:
        z0 = near * sp.COLLISION_Z + 10.0**log_rho * cmath.exp(1j * angle)
    dist = min(abs(z0 - sp.COLLISION_Z), abs(z0 + sp.COLLISION_Z))
    radius = min(0.4, dist / 4.0)
    jet = jets.root_jets(np.array([z0]))[0]
    branch = _continued_roots(z0, radius)
    for k in range(3):
        ref = cauchy_derivative(lambda z: branch(z)[k], z0, 1, radius=radius)
        # the oracle's own roundoff grows like 1 / radius
        assert abs(jet[k, 1] - ref) <= 1e-8 * abs(ref) + 1e-14 / radius


def _arrays(out):
    """The arrays of a layer's output, nested tuples flattened in order."""
    if isinstance(out, tuple):
        return [a for part in out for a in _arrays(part)]
    return [np.asarray(out)]


def test_vectorized_layers_do_not_depend_on_batch_size():
    # numpy reuses a temporary of 256 KiB or more as an output, which can
    # reorder a complex product's operands: 24,000 points hold (n, 3) arrays
    # above that size, 2,000-point slices do not, and each value must be the same
    spec1, spec3 = syn.make_spec(P21, 1.0), syn.make_spec(P41, 1.0)
    z = np.linspace(-3000.0, 3000.0, 24000) + 0.0137
    layers = {
        "roots": lambda z: sp.roots(z),
        "h_scaled": lambda z: sp.h_scaled(z, P21.L),
        "gh_scaled": lambda z: sp.gh_scaled(z, P21.L),
        "asymptotic_roots": lambda z: sp.asymptotic_roots(np.abs(z), 2),
        "intB_closed": lambda z: kn.intB_closed(P21, z),
        "interaction_numerator": lambda z: kn.interaction_numerator(P21, z),
        "h_jets_scaled d=1": lambda z: jets.h_jets_scaled(z + 0.5j, P21.L, 1),
        "h_jets_scaled d=3": lambda z: jets.h_jets_scaled(z + 0.5j, P41.L, 3),
        "vhat1_scaled": lambda z: syn.vhat1_scaled(syn.BumpTable(spec1.nu), spec1.beta, z),
        "_h_factors d=1": lambda z: syn._h_factors(spec1, z),
        "_h_factors d=3": lambda z: syn._h_factors(spec3, z),
        "_spectra case 1": lambda z: syn._spectra(spec1, z),
        "_spectra case 2": lambda z: syn._spectra(spec3, z),
        "_numerator": lambda z: syn._numerator(spec1, z),
    }
    for name, layer in layers.items():
        whole = _arrays(layer(z))
        parts = [_arrays(layer(z[i : i + 2000])) for i in range(0, z.size, 2000)]
        for k, arr in enumerate(whole):
            assert np.array_equal(arr, np.concatenate([p[k] for p in parts])), (name, k)


def test_h_derivative_rejects_bad_order():
    with pytest.raises(DomainError):
        oracles.h_derivative_on_line(P21, 1.0, 0.0, 2)


def test_h_log_derivative_slope():
    # |H'_g / H| ~ (L/3) z^{-2/3}: fitted slope -2/3
    zs = np.geomspace(1e3, 1e6, 15)
    spec = syn.make_spec(P21, 1.0)
    dm, ds = jets.h_jets_scaled(zs + 1j * spec.gamma, P21.L, 1)
    _, _, hm, hs = sp.gh_scaled(zs.astype(complex), P21.L)
    ratio = np.abs(dm / hm) * np.exp(ds - hs)
    slope = np.polyfit(np.log10(zs), np.log10(ratio), 1)[0]
    assert abs(slope + 2 / 3) < 0.05
    scaled = ratio * 3 * zs ** (2 / 3) / P21.L
    assert abs(scaled[-1] - 1) < 0.05


def test_h_mirror_symmetry_on_line():
    # the cubic's conjugation symmetry is H(w) = conj(H(-conj(w))), so on a
    # shifted line H^{(d)}(-z + i g) = (-1)^d conj(H^{(d)}(z + i g))
    for d in (1, 3):
        for z in (3.7, -11.0):
            (a,) = oracles.h_derivative_on_line(P21, 1.0, np.array([-z]), d)
            (b,) = (-1) ** d * np.conj(oracles.h_derivative_on_line(P21, 1.0, np.array([z]), d))
            assert a == pytest.approx(b, rel=1e-11)


def test_what_uhat_pointwise_relation():
    # _spectra's |kappa| g-hat times kappa/|kappa| is the paper's w-hat,
    # (3/(mu3 L)) v-hat H'_gamma (case 1) or (27/(mu3 L)^3) z v-hat H'''_gamma
    # (case 2), and its u-hat is v-hat H, both formed here from the exact H and H^(d)
    zs = np.array([-4.0, 0.5, 7.0, 31.0])
    for spec in (syn.make_spec(P21, 2.0), syn.make_spec(P41, 2.0)):
        L = spec.pair.L
        v1m, v1s = syn.vhat1_scaled(syn.BumpTable(spec.nu), spec.beta, zs)
        hm, hs = sp.h_scaled(zs, L)
        dm, ds = jets.h_jets_scaled(zs + 1j * spec.gamma, L, spec.h_order)
        pref = 3.0 / (sp.MU[2] * L) if spec.case == 1 else 27.0 / (sp.MU[2] * L) ** 3 * zs
        _, (um, us), (wm, ws) = syn._spectra(spec, zs)
        for got, ref in (
            (um * np.exp(us), v1m * hm * np.exp(v1s + hs)),
            (_w_phase(spec) * wm * np.exp(ws), pref * v1m * dm * np.exp(v1s + ds)),
        ):
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# steering spectrum
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_steering_spectrum_21():
    spec = syn.make_spec(P21, 25.0)
    trip = syn.steering_spectrum(spec)
    assert trip.outside_mass <= 1e-20
    # the grid is exactly antisymmetric about z = 0, and the spectrum from the
    # H lattice matches direct evaluation with the exact H on the full grid
    n = trip.z.size
    assert np.array_equal(trip.z[1:], -trip.z[n - 1 : 0 : -1])
    v1m, v1s = syn.vhat1_scaled(syn.BumpTable(spec.nu), spec.beta, trip.z)
    hm, hs = sp.h_scaled(trip.z, P21.L)
    direct = np.exp(-1j * spec.beta * trip.z) * v1m * hm * np.exp(v1s + hs)
    uhat = oracles.steering_spectra(spec, trip.z)[0]
    assert np.all(np.abs(uhat - direct) <= 1e-12 * np.abs(direct))
    # Hermitian spectrum reconstructs a real control (asserted inside, but
    # check the stored signal is real-typed and nontrivial)
    assert trip.u_time.dtype.kind == "f"
    assert np.abs(trip.u_time).max() > 0
    # Paley-Wiener gate for the synthesized control
    tgrid = trip.t
    inside = (tgrid >= 0) & (tgrid <= spec.T)
    dt = tgrid[1] - tgrid[0]
    u = trip.u_time[inside] / np.abs(trip.u_time).max()
    rep = sp.paley_wiener_check(u, dt, spec.T, P21.L, z_max=30.0, n_z=61)
    assert rep.bound_holds


def _w_phase(spec):
    """e^{i arg kappa}, with w(t) = e^{i arg kappa} w_time (SpectrumTriple)."""
    return cmath.exp(1j * (-math.pi / 3.0 if spec.case == 1 else math.pi / 2.0))


@pytest.mark.parametrize("pair", [P21, P11])
def test_steering_transform_matches_direct_sum(pair):
    # u(t_j) = (dz/2pi) sum_k u-hat_k e^{i z_k t_j} summed directly at nodes of
    # both parities before, at the peak of, inside and after [0, T]; measured
    # 7.2e-14 (u) and 3.4e-13 (w, complex) of the largest |sum| for (2,1), 3e-15 for (1,1)
    spec = syn.make_spec(pair, 25.0)
    trip = syn.steering_spectrum(spec)
    rot = _w_phase(spec)
    n = trip.t.size
    dz = trip.z[n // 2 + 1]
    inside = np.flatnonzero((trip.t >= 0.0) & (trip.t <= spec.T))
    peak = int(np.argmax(np.abs(trip.u_time)))
    mid = (inside[0] + inside[-1]) // 2
    j = np.array([inside[0] // 2, peak, mid, (inside[-1] + n) // 2])
    j = np.concatenate([j, j + 1])
    uhat, what = oracles.steering_spectra(spec, trip.z)
    for spectrum, signal in ((uhat, trip.u_time), (what, rot * trip.w_time)):
        direct = np.array([np.sum(spectrum * np.exp(1j * trip.z * trip.t[i])) for i in j])
        direct *= dz / (2.0 * math.pi)
        assert np.all(np.abs(signal[j] - direct) <= 1e-12 * np.abs(direct).max())


@pytest.mark.parametrize(("pair", "T"), [(P21, 5.0), (P21, 25.0), (P11, 25.0)])
def test_steering_real_transform_matches_full_grid_ifft(pair, T):
    # the half-grid irfft against a full-grid complex ifft of spectra evaluated
    # at every point, u(t_j) = (n dz/2pi) (-1)^j ifft(u-hat e^{i z t0})_j; n is
    # the spec's own: the 2^17 floor binds for (1,1), the window for (2,1)
    spec = syn.make_spec(pair, T)
    trip = syn.steering_spectrum(spec)
    n = trip.z.size
    assert n == (1 << 17 if pair is P11 else 1 << 18)
    dz = trip.z[n // 2 + 1]
    flip = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    rot = _w_phase(spec)
    uhat, what = oracles.steering_spectra(spec, trip.z)
    for spectrum, signal in ((uhat, trip.u_time), (what, rot * trip.w_time)):
        ref = n * dz / (2.0 * math.pi) * flip * np.fft.ifft(spectrum * np.exp(1j * trip.z * trip.t[0]))
        assert np.abs(signal - ref).max() <= 1e-13 * np.abs(ref).max()


def test_steering_spectrum_unpaired_sample_raises(monkeypatch):
    # a cutoff inside the hump (peak near z = 81) leaves the unpaired sample
    # u-hat(-Z), which the real transform drops, far from negligible
    spec = syn.make_spec(P21, 25.0)
    peak = syn._spectrum_cutoff(spec)[1]
    monkeypatch.setattr(syn, "_spectrum_cutoff", lambda spec: (30.0, peak))
    with pytest.raises(SupportLeak, match="reconstructed control not real"):
        syn.steering_spectrum(spec)


def test_steering_spectrum_leak_raises_at_small_T():
    spec = syn.make_spec(P32, 0.4)
    with pytest.raises(SupportLeak):
        syn.steering_spectrum(spec)


def test_cutoff_probe_names_a_larger_T():
    # at (12,1), T = 0.4 log|u-hat| peaks near z = 8.6e8 and has fallen only
    # 23 of the 32.2 by z = 1e9, the probe's fixed end, so the remedy open to
    # a caller is a larger T
    with pytest.raises(SupportLeak, match="cutoff not reached by z = 1e9.*use a larger T"):
        syn.sign_report(syn.make_spec(nt.CriticalPair(12, 1), 0.4), n_side=2001)


# ---------------------------------------------------------------------------
# sign integrals
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_integral_I_32():
    spec = syn.make_spec(P32, 0.4)
    val = syn.sign_report(spec, n_side=4001).value
    assert 0.9 <= val.real <= 1.1
    assert val.imag < 0.0


@pytest.mark.slow
def test_integral_J_41():
    spec = syn.make_spec(P41, 0.4)
    val = syn.sign_report(spec, n_side=4001).value
    assert 0.9 <= val.real <= 1.1
    assert val.imag < 0.0


@pytest.mark.parametrize("k", [1, 3, 7])
def test_sign_report_refuses_equal_pairs(k):
    # k = l gives p = 0, so F = 0 and J has no leading constant to divide by
    with pytest.raises(CaseError, match="leading constant vanishes"):
        syn.sign_report(syn.make_spec(nt.CriticalPair(k, k), 0.4))


def test_sign_report_value_21_T25():
    # at T = 25 the hump sits near z = 45, so the integrand near z = p, where
    # the shifted roots are purely imaginary and their order is set by
    # rounding, carries weight: its Xi factors must come from the numerator's
    # own root triples; the value is the trapezoid sum of the samples as
    # computed, bit-identical with the near-collision samples taken from mpmath
    rep = syn.sign_report(syn.make_spec(P21, 25.0), n_side=2001)
    assert abs(rep.value - (0.8519300213096563 + 0.5150369155143343j)) <= 1e-9


def test_sign_report_reads_h_from_the_table(monkeypatch):
    _own_store(monkeypatch)  # count the builds of a cleared store
    # H and H^(d) come from the steering table: jets run only below _H_SW and
    # at the lattice nodes, not at each of the 2 n_grid points of both shifts
    spec = syn.make_spec(P32, 0.4)
    seen = []

    def counting(z0, L, order):
        seen.append(np.size(z0))
        return jets.h_jets_scaled(z0, L, order)

    monkeypatch.setattr(syn, "h_jets_scaled", counting)
    rep = syn.sign_report(spec, n_side=4001)
    assert 0 < sum(seen) < 2 * rep.n_grid / 10


def test_sign_report_reads_the_numerator_from_the_table(monkeypatch):
    _own_store(monkeypatch)  # count the builds of a cleared store
    # N/(Xi Xi~) comes from one H lattice read at max(z, p - z): the exact
    # kernel runs at the nodes and where max(z, p - z) < _H_SW, not at each
    # grid point (547 of 8,001, one node of them below the lowest stencil),
    # and never at an abscissa below p/2
    spec = syn.make_spec(P32, 0.4)
    seen = []

    def counting(pair, z):
        seen.append(np.atleast_1d(z).copy())
        return kn.interaction_numerator(pair, z)

    monkeypatch.setattr(syn, "interaction_numerator", counting)
    rep = syn.sign_report(spec, n_side=4001)
    z = np.concatenate(seen)
    assert 0 < z.size < rep.n_grid / 10
    assert np.all(z >= P32.p / 2.0)


# ---------------------------------------------------------------------------
# the per-pair store
# ---------------------------------------------------------------------------


def _cold(fn, pair, T, **kw):
    """fn(make_spec(pair, T)) on a cleared per-pair store."""
    syn._pair_tables.cache_clear()
    return fn(syn.make_spec(pair, T), **kw)


@pytest.mark.parametrize("pair, first, second", [(P32, 0.4, 0.5), (P32, 0.5, 0.4), (P21, 25.0, 1.0)])
def test_warm_store_reports_match_cold_calls(pair, first, second):
    # the second spec of a pair reads the H and numerator nodes, the gamma
    # verdict and the probe's H the first left; every SignReport field is a
    # cleared-store call's, bit for bit (repr rounds no float)
    syn._pair_tables.cache_clear()
    warm = {T: syn.sign_report(syn.make_spec(pair, T), n_side=2001) for T in (first, second)}
    for T, rep in warm.items():
        assert repr(rep) == repr(_cold(syn.sign_report, pair, T, n_side=2001))


def test_warm_store_spectra_match_cold_calls():
    syn._pair_tables.cache_clear()
    warm = {T: syn.steering_spectrum(syn.make_spec(P21, T)) for T in (25.0, 1.0)}
    for T, trip in warm.items():
        cold = _cold(syn.steering_spectrum, P21, T)
        assert np.array_equal(trip.u_time, cold.u_time) and np.array_equal(trip.w_time, cold.w_time)
        assert (trip.z_max, trip.outside_mass) == (cold.z_max, cold.outside_mass)


def test_second_spec_of_a_pair_builds_no_node(monkeypatch):
    _own_store(monkeypatch)  # count the builds of a cleared store
    # (3,2) at T = 0.5 reads H and the numerator inside the node range T = 0.4
    # built: the jets and the kernel run only at its exact points below
    # _H_SW, never at a node abscissa, and the gamma probe (681 points to 1e5) not at all
    jet_z, num_z = [], []

    def counting_jets(z0, L, order):
        jet_z.append(np.array(z0).real)
        return jets.h_jets_scaled(z0, L, order)

    def counting_numerator(pair, z):
        num_z.append(np.array(z))
        return kn.interaction_numerator(pair, z)

    monkeypatch.setattr(syn, "h_jets_scaled", counting_jets)
    monkeypatch.setattr(syn, "interaction_numerator", counting_numerator)
    nodes = np.exp(math.log(syn._H_SW) + np.arange(-10, 2000) * syn._H_STEP)
    syn.sign_report(syn.make_spec(P32, 0.4), n_side=2001)
    assert 681 in [z.size for z in jet_z]
    assert np.isin(np.concatenate(jet_z), nodes).sum() > 300
    assert np.isin(np.concatenate(num_z), nodes).sum() > 300
    jet_z.clear()
    num_z.clear()
    syn.sign_report(syn.make_spec(P32, 0.5), n_side=2001)
    for z in (np.concatenate(jet_z), np.concatenate(num_z)):
        assert z.size > 0 and np.all(z < syn._H_SW) and not np.isin(z, nodes).any()


def test_a_raising_call_leaves_a_sound_store():
    # the cutoff probe of (12,1) at T = 0.4 raises after the gamma verdict and
    # the probe's H are held; the next spec of the pair reads what a fresh store gives
    pair = nt.CriticalPair(12, 1)
    syn._pair_tables.cache_clear()
    with pytest.raises(SupportLeak, match="cutoff not reached"):
        syn.sign_report(syn.make_spec(pair, 0.4), n_side=2001)
    after = syn.sign_report(syn.make_spec(pair, 0.5), n_side=2001)
    assert repr(after) == repr(_cold(syn.sign_report, pair, 0.5, n_side=2001))


def _numerator_grid(pair):
    """A (pair, T = 0.4) band grid of 1,201 points, with the switch points of z, -z, z - p and p - z appended."""
    spec = syn.make_spec(pair, 0.4)
    sw, p = syn._H_SW, pair.p
    up, down = np.nextafter(sw, 9.0), np.nextafter(sw, 0.0)
    edge = [sw, -sw, down, -down, up, -up, 0.0, p, p - sw, p + sw]
    edge += [np.nextafter(p + sw, 0.0), np.nextafter(p + sw, 9.0), p + down, p + up]
    edge += [np.nextafter(p - sw, 0.0), np.nextafter(p - sw, -9.0)]
    return spec, np.concatenate([syn._band_grid(spec, 601), edge])


_NUM_GRIDS = {k: _numerator_grid(pair) for k, pair in (("32", P32), ("41", P41))}
_NUM_SIZE = _NUM_GRIDS["32"][1].size  # 1,217 for both pairs


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, _NUM_SIZE - 1), min_size=1, max_size=30), st.sampled_from(["32", "41"]))
@example(picks=list(range(_NUM_SIZE - 16, _NUM_SIZE))[::-1], key="32")
def test_numerator_any_subset_matches_full_call(picks, key):
    # both signs of z and both sides of the max(z, p - z) = _H_SW switch; a
    # value, in a batch or as a one-point call, depends on (spec, z) alone
    spec, z = _NUM_GRIDS[key]
    m, s = syn._numerator(spec, z)
    m_sub, s_sub = syn._numerator(spec, z[picks])
    assert np.array_equal(m_sub, m[picks]) and np.array_equal(s_sub, s[picks])
    m_one, s_one = syn._numerator(spec, z[picks[:1]])
    assert m_one.shape == (1,) and (m_one[0], s_one[0]) == (m[picks[0]], s[picks[0]])


@pytest.mark.parametrize("key", ["32", "41"])
def test_numerator_is_exact_below_the_switch(key):
    # the exact kernel at a = max(z, p - z), wherever a < _H_SW
    spec, z = _NUM_GRIDS[key]
    m, s = syn._numerator(spec, z)
    a = np.maximum(z, spec.pair.p - z)
    lo = a < syn._H_SW
    assert lo.sum() >= 12 and (~lo).sum() > 1000
    em, es = kn.interaction_numerator(spec.pair, a[lo])
    assert np.array_equal(m[lo], em) and np.array_equal(s[lo], es)


@pytest.mark.parametrize("k, l, T", [(3, 2, 0.4), (4, 1, 0.4), (2, 1, 1.0), (5, 1, 5.0)])
def test_numerator_reads_p_minus_z_at_the_mirror(k, l, T):
    # z and p - z read one abscissa, bit for bit, unless p - (p - z) rounds
    # away from z; then the two abscissae are one ulp apart and the values
    # within 64 eps (measured 32 eps at (5,1), T = 5, on the exact path below
    # _H_SW, where the kernel sum moves that much over one ulp)
    pair = nt.CriticalPair(k, l)
    spec = syn.make_spec(pair, T)
    z = syn._band_grid(spec, 2001)
    zr = pair.p - z
    m, s = syn._numerator(spec, z)
    mr, sr = syn._numerator(spec, zr)
    same = np.maximum(z, pair.p - z) == np.maximum(zr, pair.p - zr)
    assert same.sum() >= z.size - 10
    assert np.array_equal(m[same], mr[same]) and np.array_equal(s[same], sr[same])
    assert np.all(np.abs(m * np.exp(s - sr) - mr) <= 64 * np.finfo(float).eps * np.abs(mr))


_NUM_Z = (1e4, -1e4, 1e5, -1e5, 1.5e6, -1.5e6, 5e6)


@pytest.mark.parametrize("pair", [P21, P32, P41, nt.CriticalPair(7, 3)], ids=["21", "32", "41", "73"])
def test_numerator_table_matches_mpmath(pair):
    # log N/(Xi Xi~) against the 60-digit 27-term sum (80 digits agree to
    # 1e-52); the exact sum's own rounding grows like |z| and the lattice
    # smooths it, so both meet one bound: log-magnitude within 4e-15 |z|
    # (measured: lattice 1.3e-15 |z|, exact 3.2e-15 |z| at (4,1), z = -1e4),
    # phase within 2e-16 |z| (lattice 7.9e-17 |z|, exact 1.0e-16 |z|)
    mp = pytest.importorskip("mpmath")
    spec = syn.make_spec(pair, 0.4)
    for z in _NUM_Z:
        with mp.workdps(60):
            total, _, xi = oracles.intb_mp(pair, z)
            ref = complex(mp.log(total / xi))
        za = np.array([z])
        for (m,), (s,) in (syn._numerator(spec, za), kn.interaction_numerator(pair, za)):
            got = complex(np.log(m)) + s
            assert abs(got.real - ref.real) <= 4e-15 * abs(z), z
            assert abs(math.remainder(got.imag - ref.imag, 2.0 * math.pi)) <= 2e-16 * abs(z), z


@pytest.mark.slow
def test_sign_report_prop37_consistency():
    from kdvcrit.unreachable import constants

    spec = syn.make_spec(P32, 0.2)
    rep = syn.sign_report(spec, n_side=4001)
    e_const = constants(P32).E
    assert abs(rep.prop37_ratio - e_const) <= 0.05 * abs(e_const)
    # the shifted-correlation factor equals int |w|^2 e^{-ipt}: modulus <= 1,
    # imaginary part ~ -p T/2
    assert abs(rep.wshift) <= 1.0 + 1e-9
    assert rep.wshift.imag < 0


# ---------------------------------------------------------------------------
# fractional Sobolev norms
# ---------------------------------------------------------------------------


def _sample_signal(n=400, dt=0.005, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) * dt
    T = t[-1]
    window = np.sin(np.pi * t / T) ** 2
    u = np.zeros(n)
    for mode in range(1, 6):
        u += rng.standard_normal() * np.sin(math.pi * mode * t / T)
        u += rng.standard_normal() * np.cos(2 * math.pi * mode * t / T)
    return u * window, dt


def test_fractional_norm_s0_is_l2():
    u, dt = _sample_signal()
    norm = syn.fractional_norm(u, 0.0, dt)
    l2 = math.sqrt(float((u**2).sum() * dt))
    assert norm.value == pytest.approx(l2, rel=1e-10)


def test_fractional_norm_monotone_in_s():
    u, dt = _sample_signal(seed=3)
    values = [syn.fractional_norm(u, s, dt).value for s in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))


def test_fractional_norm_domain():
    with pytest.raises(DomainError):
        syn.fractional_norm(np.ones(8), 3.0, 0.1)


def test_interpolation_exponent_sums_exact():
    assert Fraction(3, 7) + Fraction(4, 7) == 1
    assert Fraction(5, 7) + Fraction(2, 7) == 1
    assert Fraction(7, 13) + Fraction(6, 13) == 1
    assert Fraction(9, 13) + Fraction(4, 13) == 1


def test_interpolation_inequalities_hold():
    # the four dual-pairing interpolation inequalities hold with C = 1 on the
    # line (pure Hoelder in the discrete Parseval measure)
    combos = [
        (0.0, -2.0 / 3.0, 0.5, Fraction(3, 7), Fraction(4, 7)),
        (-1.0 / 3.0, -2.0 / 3.0, 0.5, Fraction(5, 7), Fraction(2, 7)),
        (0.0, -1.0, 7.0 / 6.0, Fraction(7, 13), Fraction(6, 13)),
        (-1.0 / 3.0, -1.0, 7.0 / 6.0, Fraction(9, 13), Fraction(4, 13)),
    ]
    for seed in range(100):
        u, dt = _sample_signal(seed=seed)
        for s_mid, s_lo, s_hi, a, b in combos:
            mid = syn.fractional_norm(u, s_mid, dt).value
            lo = syn.fractional_norm(u, s_lo, dt).value
            hi = syn.fractional_norm(u, s_hi, dt).value
            assert mid <= (1 + 1e-9) * lo ** float(a) * hi ** float(b)


def test_lemma_t_scaling_ratio_bounded():
    # int |w-hat|^2 (1+|z|)^{-alpha} <= C T^alpha ||w||^2 for the rescaled
    # family w_T(t) = w_1(t/T); the ratio grows toward a finite limit as T
    # shrinks, so successive-increment boundedness is the checkable form
    def shape(s):
        out = np.zeros_like(s)
        core = (s > 0) & (s < 1)
        out[core] = np.exp(-1.0 / (s[core] * (1 - s[core])))
        return out

    for alpha in (1.0 / 3.0, 2.0 / 3.0):
        ratios = []
        for T in (1.0, 0.5, 0.25, 0.125):
            n = 4096
            dt = T / (n - 1)
            t = np.arange(n) * dt
            w = shape(t / T)
            pad = 16 * n
            spec = dt * np.fft.fft(w, n=pad) / math.sqrt(2 * math.pi)
            z = 2 * math.pi * np.fft.fftfreq(pad, d=dt)
            dz = 2 * math.pi / (pad * dt)
            lhs = float((np.abs(spec) ** 2 / (1 + np.abs(z)) ** alpha).sum() * dz)
            l2 = float((w**2).sum() * dt)
            ratios.append(lhs / (T**alpha * l2))
        ratios = np.array(ratios)
        assert ratios.max() <= 2.0 * ratios.min()
        # increments shrink: the ratio approaches its T -> 0 limit
        incs = np.abs(np.diff(ratios))
        assert incs[-1] <= incs[0]
