"""Exception types shared across the toolkit, and the argument checks of its entry points.

Every operation that can refuse an input raises one of these instead of
returning a sentinel; callers are expected to handle them explicitly.  The
check_* helpers hold one DomainError message per kind of argument; entry
points call them, inner functions trust their callers.  in_double_range
turns the float overflow of a finite but extreme argument into DomainError.
"""

import math
import numbers
from contextlib import contextmanager

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
    """HUM target not reached: the residual at the control map's numerical rank
    exceeds the tolerance, as for a target with a component in M_N at a critical length."""


class RootDerivativeSingular(KdvCritError):
    """3*lambda^2 + 1 vanished on the shifted line; derivative chain breaks."""


class SupportLeak(KdvCritError):
    """Reconstructed control has too much mass outside [0, T]."""


def check_positive(value, name: str):
    """value, if it is a real number in (0, inf) (never a bool)."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        raise DomainError(f"{name} must be positive and finite, got {value}")
    return value


def check_int(value, name: str, low: int):
    """value, if it is an integer >= low (a numpy one too, never a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def check_numeric(value, name: str, dtype=float) -> np.ndarray:
    """value as an array of dtype, if numpy can convert it (no string, object or ragged list)."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be numeric, got {value!r:.40}") from None


def check_finite(value, name: str) -> np.ndarray:
    """value as a float array, if it is numeric, non-empty and every entry is finite."""
    arr = check_numeric(value, name)
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be non-empty and finite")
    return arr


def check_signal(value, name: str) -> np.ndarray:
    """value as a float array, if it is one row of finite samples."""
    arr = check_finite(value, name)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be a 1-D array of samples, got shape {arr.shape}")
    return arr


def check_type(value, cls: type, name: str):
    """value, if it is an instance of cls."""
    if not isinstance(value, cls):
        raise DomainError(f"{name} must be a {cls.__name__}, got a {type(value).__name__}")
    return value


@contextmanager
def in_double_range(what: str):
    """Raise DomainError where a float operation inside overflows, divides by zero or is invalid.

    For finite arguments too extreme for double precision (a grid step whose
    square underflows, a transform whose square overflows): the numpy warning
    they would leak becomes the entry point's DomainError.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except ArithmeticError as exc:  # numpy's FloatingPointError, or a Python float's
        raise DomainError(f"{what} leaves double range ({exc})") from None
