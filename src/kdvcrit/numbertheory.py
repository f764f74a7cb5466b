"""Exact enumeration of critical lengths and their integer data.

A domain length L is critical when L = 2*pi*sqrt(N/3) with N = k^2 + kl + l^2
for integers k >= l >= 1.  Everything here works with the integer key N;
the irrational L and the rotation frequency p are materialized as floats
only in the dataclass fields consumed by the analytic modules.

Conventions: pairs are normalized to k >= l, and the frequency

    p = (2k + l)(k - l)(2l + k) / (3*sqrt(3) * N^(3/2))

vanishes exactly when k = l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, NoPositiveFrequency, NotCritical

__all__ = [
    "CriticalPair",
    "LengthClass",
    "enumerate_pairs",
    "representations",
    "t_star",
    "excluded_lengths",
]


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
        if self.l < 1 or self.k < self.l:
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

    ``p_sorted`` follows the convention p_1 > p_2 > ... > p_{n_pos} > 0; pairs
    are stored in the same order (zero-frequency pair last when present).
    ``T_star`` is None when no pair has p > 0 (use :func:`t_star` to get the
    checked value).
    """

    N: int
    pairs: tuple[CriticalPair, ...]
    n_L: int
    n_L_pos: int
    dim_MN: int
    p_sorted: tuple[float, ...]
    T_star: float | None

    @property
    def L(self) -> float:
        return _length(self.N)


def enumerate_pairs(k_max: int) -> list[CriticalPair]:
    """All pairs with 1 <= l <= k <= k_max, ordered by N then k."""
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    pairs = [CriticalPair(k, l) for k in range(1, k_max + 1) for l in range(1, k + 1)]
    pairs.sort(key=lambda q: (q.N, q.k))
    return pairs


def representations(N: int) -> LengthClass:
    """Complete the length class of N by bounded brute force over l <= k.

    Raises NotCritical when N is not of the form k^2 + kl + l^2.
    """
    if N < 3:
        raise NotCritical(f"N = {N} has no representation with k >= l >= 1")
    found = []
    k_hi = math.isqrt(N)
    for k in range(1, k_hi + 1):
        for l in range(1, k + 1):
            if k * k + k * l + l * l == N:
                found.append(CriticalPair(k, l))
    if not found:
        raise NotCritical(f"N = {N} has no representation with k >= l >= 1")
    # decreasing p; the k = l pair (p = 0) goes last
    found.sort(key=lambda q: -q.p)
    n_l = len(found)
    n_pos = sum(1 for q in found if q.k > q.l)
    p_sorted = tuple(q.p for q in found if q.k > q.l)
    t = None
    if n_pos:
        t = math.pi * sum((n_pos + 1 - m) / p for m, p in enumerate(p_sorted, start=1))
    return LengthClass(
        N=N,
        pairs=tuple(found),
        n_L=n_l,
        n_L_pos=n_pos,
        dim_MN=n_l + n_pos,
        p_sorted=p_sorted,
        T_star=t,
    )


def t_star(cls: LengthClass) -> float:
    """Rotation-synchronization time T^> = pi * sum (1/p_m)(n^> + 1 - m).

    Undefined (NoPositiveFrequency) when every pair of the class has k = l.
    Returning 0 is deliberately forbidden: a zero time would silently claim
    instant controllability.
    """
    if cls.n_L_pos == 0 or cls.T_star is None:
        raise NoPositiveFrequency(f"class N = {cls.N} has no pair with p > 0")
    return cls.T_star


def excluded_lengths() -> list[LengthClass]:
    """The two classes excluded from the improved-time theorem: N = 7 and 13."""
    return [representations(7), representations(13)]
