import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kdvcrit import numbertheory as nt
from kdvcrit.errors import NotCritical


def brute_force_representations(n, k_hi=None):
    """Independent double-loop oracle."""
    k_hi = k_hi or math.isqrt(n) + 1
    return sorted(
        (k, l)
        for k in range(1, k_hi + 1)
        for l in range(1, k + 1)
        if k * k + k * l + l * l == n
    )


def test_enumerate_kmax_one():
    pairs = nt.enumerate_pairs(1)
    assert [(q.k, q.l) for q in pairs] == [(1, 1)]
    assert pairs[0].L == pytest.approx(2 * math.pi, rel=1e-15)
    assert pairs[0].p == 0.0


def test_p_zero_iff_equal():
    for q in nt.enumerate_pairs(12):
        assert (q.p > 0) == (q.k > q.l)
        assert (q.p == 0) == (q.k == q.l)


def test_p_value_21():
    # frozen from the defining formula and cross-checked through the root
    # equation eta^3 + eta = i p with eta = -i(2k+l) 2pi/(3L)
    q = nt.CriticalPair(2, 1)
    assert q.p == pytest.approx(0.20782656212951653, rel=1e-12)
    a = 5.0 / math.sqrt(21.0)
    assert q.p == pytest.approx(a**3 - a, rel=1e-12)


def test_p_two_routes_agree():
    for q in nt.enumerate_pairs(20):
        rearranged = (
            (2 * math.pi / (3 * q.L)) ** 3
            * (2 * q.k + q.l)
            * (q.k - q.l)
            * (q.k + 2 * q.l)
        )
        assert abs(q.p - rearranged) <= 1e-13 * max(q.p, 1e-6)


def test_representations_91():
    cls = nt.representations(91)
    assert sorted((q.k, q.l) for q in cls.pairs) == [(6, 5), (9, 1)]
    assert (cls.n_L, cls.n_L_pos, cls.dim_MN) == (2, 2, 4)
    # convention p_1 > p_2 > 0
    assert cls.p_sorted[0] > cls.p_sorted[1] > 0


def test_representations_small():
    cls3 = nt.representations(3)
    assert [(q.k, q.l) for q in cls3.pairs] == [(1, 1)]
    assert (cls3.n_L, cls3.n_L_pos, cls3.dim_MN) == (1, 0, 1)
    cls7 = nt.representations(7)
    assert [(q.k, q.l) for q in cls7.pairs] == [(2, 1)]
    assert cls7.dim_MN == 2


def test_not_critical():
    with pytest.raises(NotCritical):
        nt.representations(5)
    with pytest.raises(NotCritical):
        nt.representations(2)


def test_t_star_single_pair():
    cls = nt.representations(7)
    assert cls.T_star == pytest.approx(math.pi / cls.pairs[0].p, rel=1e-14)


def test_t_star_91():
    cls = nt.representations(91)
    p1, p2 = cls.p_sorted
    assert cls.T_star == pytest.approx(math.pi * (2 / p1 + 1 / p2), rel=1e-14)


def test_t_star_no_positive_frequency():
    assert nt.representations(3).T_star is None


def test_excluded_lengths():
    excluded = [nt.representations(7), nt.representations(13)]
    assert [cls.N for cls in excluded] == [7, 13]
    assert [(q.k, q.l) for q in excluded[0].pairs] == [(2, 1)]
    assert [(q.k, q.l) for q in excluded[1].pairs] == [(3, 1)]
    assert excluded[0].L == pytest.approx(2 * math.pi * math.sqrt(7 / 3), rel=1e-15)


def test_brute_force_oracle_up_to_1e4():
    seen = {}
    for k in range(1, 101):
        for l in range(1, k + 1):
            seen.setdefault(k * k + k * l + l * l, []).append((k, l))
    for n, pairs in seen.items():
        if n > 10_000:
            continue
        cls = nt.representations(n)
        assert sorted((q.k, q.l) for q in cls.pairs) == sorted(pairs)
        assert cls.dim_MN == cls.n_L + cls.n_L_pos
        assert cls.n_L - 1 <= cls.n_L_pos <= cls.n_L
        has_equal = any(q.k == q.l for q in cls.pairs)
        assert (cls.n_L_pos == cls.n_L - 1) == has_equal


def test_ordering_by_N_then_k():
    pairs = nt.enumerate_pairs(15)
    keys = [(q.N, q.k) for q in pairs]
    assert keys == sorted(keys)


@given(st.integers(1, 40), st.integers(1, 40))
def test_pair_invariants(a, b):
    k, l = max(a, b), min(a, b)
    q = nt.CriticalPair(k, l)
    assert q.N == k * k + k * l + l * l
    assert q.L**2 == pytest.approx(4 * math.pi**2 * q.N / 3, rel=1e-14)
    assert q.caseE0 == ((2 * k + l) % 3 == 0)


def test_rejects_bad_pairs():
    with pytest.raises(ValueError):
        nt.CriticalPair(1, 2)
    with pytest.raises(ValueError):
        nt.CriticalPair(3, 0)
