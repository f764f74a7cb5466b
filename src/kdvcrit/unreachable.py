"""Unreachable directions of the linearized system at a critical length.

For a pair (k, l) the purely imaginary triple

    eta_1 = -(2 pi i / 3L)(2k + l),  eta_2 = eta_1 + (2 pi i / L) k,
    eta_3 = eta_2 + (2 pi i / L) l

solves eta^3 + eta - i p = 0 and shares a common value of exp(eta_j L).  The
profile phi(x) = sum_j (eta_{j+1} - eta_j) e^{eta_{j+2} x} and its rotation
Psi(t, x) = e^{-i t p} phi(x) span the directions the boundary control cannot
reach; the constants

    Gamma = sum (eta_{j+1} - eta_j) eta_{j+2}^2,
    Lambda = i p sum (eta_{j+1} - eta_j) / eta_{j+2}

coincide and equal -(8 pi^3 / L^3) i k l (k + l), which feeds the two-term
expansions of the interaction kernel (constants E, E_1 in the generic case,
F, F_1 when exp(eta_1 L) = 1).

Cyclic convention eta_{j+3} = eta_j throughout.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CaseError, InvariantViolation, check_finite, check_type
from .numbertheory import CriticalPair

__all__ = [
    "EtaTriple",
    "UnreachableData",
    "eta_triple",
    "phi",
    "phi_x",
    "psi",
    "constants",
    "e1_over_e",
]


@dataclass(frozen=True)
class EtaTriple:
    """The imaginary root triple of eta^3 + eta - ip = 0 attached to a pair."""

    pair: CriticalPair
    eta: np.ndarray  # shape (3,), purely imaginary, paper order
    p: float

    @property
    def exp_eta1_L(self) -> complex:
        """exp(eta_1 L) = exp(-2 pi i (2k+l)/3), an exact cube root of unity."""
        r = (2 * self.pair.k + self.pair.l) % 3
        return cmath.exp(-2j * cmath.pi * r / 3)


@dataclass(frozen=True)
class UnreachableData:
    """Expansion constants of the interaction kernel for one pair."""

    eta: EtaTriple
    Gamma: complex
    Lambda: complex
    E: complex
    E1: complex
    F: complex
    F1: complex


def eta_triple(pair: CriticalPair) -> EtaTriple:
    """Build the eta triple and assert its defining identities."""
    check_type(pair, CriticalPair, "pair")
    k, l, L, p = pair.k, pair.l, pair.L, pair.p
    e1 = -2j * math.pi * (2 * k + l) / (3 * L)
    e2 = e1 + 2j * math.pi * k / L
    e3 = e2 + 2j * math.pi * l / L
    eta = np.array([e1, e2, e3])
    resid = np.abs(eta**3 + eta - 1j * p)
    if resid.max() > 1e-10:
        raise InvariantViolation(
            f"eta^3 + eta - ip residual {resid.max():.3e} for pair {(k, l)}"
        )
    # common boundary multiplier: all exp(eta_j L) agree
    w = np.exp(eta * L)
    if np.abs(w - w[0]).max() > 1e-10:
        raise InvariantViolation(f"exp(eta_j L) not constant for pair {(k, l)}")
    return EtaTriple(pair=pair, eta=eta, p=p)


def _cyc(eta: np.ndarray):
    return np.roll(eta, -1), np.roll(eta, -2)


def phi(eta: EtaTriple, x) -> np.ndarray:
    """phi(x) = sum_j (eta_{j+1} - eta_j) e^{eta_{j+2} x}."""
    ep1, ep2 = _cyc(check_type(eta, EtaTriple, "eta").eta)
    x_arr = check_finite(x, "x")
    return ((ep1 - eta.eta) * np.exp(np.multiply.outer(x_arr, ep2))).sum(axis=-1)


def phi_x(eta: EtaTriple, x) -> np.ndarray:
    """Exact derivative of phi (exponents multiplied analytically)."""
    ep1, ep2 = _cyc(check_type(eta, EtaTriple, "eta").eta)
    x_arr = check_finite(x, "x")
    return ((ep1 - eta.eta) * ep2 * np.exp(np.multiply.outer(x_arr, ep2))).sum(axis=-1)


def phi_parts(ph: np.ndarray) -> list:
    """The parts (np.real, np.imag) of sampled phi above 1e-12 max|phi|; p_m = 0 zeroes one."""
    floor = 1e-12 * np.max(np.abs(ph))
    return [part for part in (np.real, np.imag) if np.max(np.abs(part(ph))) > floor]


def psi(eta: EtaTriple, t, x) -> np.ndarray:
    """Psi(t, x) = e^{-i t p} phi(x), an exact zero-boundary solution."""
    ph = phi(eta, x)  # checks eta and x
    return np.exp(-1j * check_finite(t, "t") * eta.p) * ph


def constants(pair: CriticalPair) -> UnreachableData:
    """All six expansion constants, with the closed forms cross-asserted.

    Gamma comes from the defining sum; Lambda from i p * sum (eta_{j+1} -
    eta_j)/eta_{j+2} when k > l, and from the exact cancellation form
    -(8 pi^3/L^3) i k l (k+l) when k = l (there eta_2 = 0 and p = 0 make the
    direct sum a 0 * inf product whose limit is the closed form).
    """
    eta = eta_triple(pair)
    k, l, L, p = pair.k, pair.l, pair.L, pair.p
    e = eta.eta
    ep1, ep2 = _cyc(e)
    gamma = complex(((ep1 - e) * ep2**2).sum())
    closed = -8j * math.pi**3 * k * l * (k + l) / L**3
    if k > l:
        lam = complex(1j * p * ((ep1 - e) / ep2).sum())
    else:
        lam = closed
    for name, val in (("Gamma", gamma), ("Lambda", lam)):
        if abs(val - closed) > 1e-10 * max(abs(closed), 1.0):
            raise InvariantViolation(
                f"{name} = {val} deviates from closed form {closed} for {(k, l)}"
            )
    w = eta.exp_eta1_L
    core = -(2.0 / 3.0) * gamma - (1.0 / 3.0) * lam
    E = (w - 1.0) * core / 3.0
    F = (2.0 / 27.0) * (lam - gamma) * (w - 1.0) + (1j * p * L / 9.0) * w * core
    E1 = -(1.0 + 1j * p * L) * E / 3.0 + F
    # The i p L coefficient here is 1/6, not 1/3: expanding
    # exp((l2 + l2~)L) - 1 to second order contributes -(pL)^2/18 * z^{-4/3},
    # which folds into the z^{-8/3} constant.  Confirmed against the
    # closed-form integral and an independent quadrature oracle (the fitted
    # z^{-8/3} coefficient matches this value to 3 digits and improves with z,
    # while the 1/3 variant leaves an O(z^{-8/3}) residual).
    F1 = F * (-2.0 / 3.0 - 1j * p * L / 6.0 + 2.0 * (gamma - lam) / (3.0 * (2.0 * gamma + lam)))
    # dichotomy check: E = 0 exactly when 3 | (2k + l)
    if pair.caseE0 and abs(E) > 1e-12 * max(abs(gamma), 1.0):
        raise InvariantViolation(f"E = {E} should vanish for caseE0 pair {(k, l)}")
    if not pair.caseE0 and abs(E) < 1e-3 * abs(gamma):
        raise InvariantViolation(f"E = {E} unexpectedly small for pair {(k, l)}")
    return UnreachableData(eta=eta, Gamma=gamma, Lambda=lam, E=E, E1=E1, F=F, F1=F1)


def e1_over_e(pair: CriticalPair) -> complex:
    """E_1 / E, defined only off the caseE0 branch.

    The value has the closed form -1/3 +/- (sqrt 3 / 18) p L - (1/6) i p L,
    with sign + for exp(eta_1 L) = exp(2 pi i/3) and - for exp(4 pi i/3);
    both branches are asserted here along with Im(E_1/E) = -pL/6.
    """
    if check_type(pair, CriticalPair, "pair").caseE0:
        raise CaseError(f"E = 0 for pair {(pair.k, pair.l)}; E1/E undefined")
    data = constants(pair)
    ratio = data.E1 / data.E
    pl = pair.p * pair.L
    w = data.eta.exp_eta1_L
    sign = 1.0 if abs(w - cmath.exp(2j * cmath.pi / 3)) < 1e-9 else -1.0
    closed = -1.0 / 3.0 + sign * math.sqrt(3.0) * pl / 18.0 - 1j * pl / 6.0
    if abs(ratio - closed) > 1e-10 * max(1.0, abs(closed)):
        raise InvariantViolation(
            f"E1/E = {ratio} vs closed form {closed} for {(pair.k, pair.l)}"
        )
    if abs(ratio.imag + pl / 6.0) > 1e-12 * max(1.0, pl):
        raise InvariantViolation(f"Im(E1/E) != -pL/6 for {(pair.k, pair.l)}")
    return ratio
