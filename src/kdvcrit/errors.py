"""Exception types shared across the toolkit.

Every operation that can refuse an input raises one of these instead of
returning a sentinel; callers are expected to handle them explicitly.
"""


class KdvCritError(Exception):
    """Base class for all toolkit errors."""


class NotCritical(KdvCritError):
    """N admits no representation k^2 + kl + l^2 with k >= l >= 1."""


class NoPositiveFrequency(KdvCritError):
    """Length class has no pair with p > 0, so the rotation time is undefined."""


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
