"""Exact enumeration of critical lengths and their integer data.

A domain length L is critical when L = 2*pi*sqrt(N/3) with N = k^2 + kl + l^2
for integers k >= l >= 1.  Everything here works with the integer key N;
the irrational L and the rotation frequency p are materialized as floats
only in the dataclass fields consumed by the analytic modules.

Conventions: pairs are normalized to k >= l, and the frequency

    p = (2k + l)(k - l)(2l + k) / (3*sqrt(3) * N^(3/2))

vanishes exactly when k = l.  The paper's improved-time theorem excludes
two classes, N = 7 and N = 13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, NotCritical, check_int

__all__ = ["CriticalPair", "LengthClass", "enumerate_pairs", "representations"]


def _length(n: int) -> float:
    return 2.0 * math.pi * math.sqrt(n / 3.0)


def _frequency(k: int, l: int) -> float:
    n = k * k + k * l + l * l
    return (2 * k + l) * (k - l) * (2 * l + k) / (3.0 * math.sqrt(3.0) * n**1.5)


@dataclass(frozen=True)
class CriticalPair:
    """One representation (k, l) of a critical length, k >= l >= 1."""

    k: int
    l: int
    N: int = field(init=False)
    L: float = field(init=False)
    p: float = field(init=False)
    caseE0: bool = field(init=False)

    def __post_init__(self) -> None:
        if check_int(self.k, "k", 1) < check_int(self.l, "l", 1):
            raise DomainError(f"need k >= l >= 1, got (k, l) = ({self.k}, {self.l})")
        n = self.k**2 + self.k * self.l + self.l**2
        object.__setattr__(self, "N", n)
        object.__setattr__(self, "L", _length(n))
        object.__setattr__(self, "p", _frequency(self.k, self.l))
        # E vanishes exactly when 3 | (2k + l), i.e. exp(eta_1 L) = 1.
        object.__setattr__(self, "caseE0", (2 * self.k + self.l) % 3 == 0)


@dataclass(frozen=True)
class LengthClass:
    """All pairs sharing one N, with the multiplicity data of the class.

    ``pairs`` are ordered by frequency, p_1 > p_2 > ... > p_{n_pos} > 0, with
    the zero-frequency pair last when present.  ``T_star`` is the
    rotation-synchronization time T^> = pi * sum_m (n^> + 1 - m) / p_m over
    that order; it is None when no pair has p > 0,
    never 0, which would claim instant controllability.  The paper's
    improved-time theorem excludes N = 7 and N = 13.
    """

    N: int
    pairs: tuple[CriticalPair, ...]
    n_L: int
    n_L_pos: int
    dim_MN: int
    T_star: float | None

    @property
    def L(self) -> float:
        return _length(self.N)


def enumerate_pairs(k_max: int) -> list[CriticalPair]:
    """All pairs with 1 <= l <= k <= k_max, ordered by N then k."""
    check_int(k_max, "k_max", 1)
    pairs = [CriticalPair(k, l) for k in range(1, k_max + 1) for l in range(1, k + 1)]
    pairs.sort(key=lambda q: (q.N, q.k))
    return pairs


def representations(N: int) -> LengthClass:
    """Complete the length class of N in O(sqrt N) steps.

    For each l with 3 l^2 <= N (equivalently k >= l), k^2 + lk + l^2 - N = 0
    gives k = (r - l) / 2 with r^2 = 4N - 3 l^2, checked exactly in integers.
    Raises NotCritical when N is not of the form k^2 + kl + l^2.
    """
    if check_int(N, "N", 1) < 3:
        raise NotCritical(f"N = {N} has no representation with k >= l >= 1")
    found = []
    for l in range(math.isqrt(N // 3), 0, -1):  # increasing k
        r = math.isqrt(4 * N - 3 * l * l)
        k = (r - l) // 2
        if k * k + k * l + l * l == N:
            found.append(CriticalPair(k, l))
    if not found:
        raise NotCritical(f"N = {N} has no representation with k >= l >= 1")
    # decreasing p; the k = l pair (p = 0) goes last
    found.sort(key=lambda q: -q.p)
    n_l = len(found)
    n_pos = sum(1 for q in found if q.k > q.l)
    t = None
    if n_pos:
        t = math.pi * sum((n_pos + 1 - m) / q.p for m, q in enumerate(found[:n_pos], start=1))
    return LengthClass(
        N=N,
        pairs=tuple(found),
        n_L=n_l,
        n_L_pos=n_pos,
        dim_MN=n_l + n_pos,
        T_star=t,
    )

