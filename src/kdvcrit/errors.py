"""Exception types shared across the toolkit, and the argument checks of its entry points.

Every operation that can refuse an input raises one of these instead of
returning a sentinel; callers are expected to handle them explicitly.  The
check_* helpers hold one DomainError message per kind of argument; entry
points call them, inner functions trust their callers.
"""

import math
import numbers

import numpy as np


class KdvCritError(Exception):
    """Base class for all toolkit errors."""


class NotCritical(KdvCritError):
    """N admits no representation k^2 + kl + l^2 with k >= l >= 1."""


class DomainError(KdvCritError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class NearPole(KdvCritError):
    """Evaluation point too close to a real pole (scaled denominator underflow)."""


class InvariantViolation(KdvCritError):
    """A closed-form identity that must hold failed its numerical residual check."""


class CaseError(KdvCritError):
    """Operation requested in the wrong arithmetic case (E = 0 vs E != 0)."""


class ResolutionError(KdvCritError):
    """Grid too coarse to resolve the requested oscillatory content."""


class LinearSolveFailure(KdvCritError):
    """Banded linear solve failed (singular step matrix)."""


class FixedPointDiverged(KdvCritError):
    """Picard iteration for the nonlinear step did not converge."""


class NotReachable(KdvCritError):
    """Conjugate-gradient residual stagnated above tolerance; at a critical
    length this happens to some reachable targets too (see pde.hum_control)."""


class RootDerivativeSingular(KdvCritError):
    """3*lambda^2 + 1 vanished on the shifted line; derivative chain breaks."""


class SupportLeak(KdvCritError):
    """Reconstructed control has too much mass outside [0, T]."""


def check_positive(value, name: str):
    """value, if it is a real number in (0, inf)."""
    if not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        raise DomainError(f"{name} must be positive and finite, got {value}")
    return value


def check_int(value, name: str, low: int, *, even: bool = False):
    """value, if it is an integer >= low (a numpy one too, never a bool), and even if asked."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < low
        or (even and value % 2)
    ):
        kind = "an even integer" if even else "an integer"
        raise DomainError(f"{name} must be {kind} >= {low}, got {value!r}")
    return value


def check_finite(value, name: str) -> np.ndarray:
    """value as a float array, if it is non-empty and every entry is finite."""
    arr = np.asarray(value, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be non-empty and finite")
    return arr


def check_type(value, cls: type, name: str):
    """value, if it is an instance of cls."""
    if not isinstance(value, cls):
        raise DomainError(f"{name} must be a {cls.__name__}, got a {type(value).__name__}")
    return value
