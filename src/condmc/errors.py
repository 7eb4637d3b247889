"""Structured exceptions shared across the package.

Every failure mode that callers are expected to branch on gets its own
class so the CLI can report a stable error name and exit code.
"""

from __future__ import annotations


class CondMcError(Exception):
    """Base class for all structured errors raised by condmc."""


class ConfigError(CondMcError):
    """Invalid run configuration (bad key, value out of range, missing file)."""


class NonFiniteState(CondMcError):
    """A simulated state became NaN/inf during Euler integration."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


class NonFiniteEstimate(CondMcError):
    """An estimate, its standard error or its variance is NaN or infinite,
    although every simulated state was finite (a functional value overflowed)."""


class CoefficientShapeError(CondMcError):
    """A model coefficient came back in a shape that does not fit its contract."""


class SingularJacobian(CondMcError):
    """Pathwise Jacobian became numerically singular (condition number > 1e12)."""


class DegenerateConstraint(CondMcError):
    """Constraint derivative has (numerically) zero energy; no weight exists."""


class NonAdaptedWithoutFactorization(CondMcError):
    """Non-adapted integrand passed to the Skorohod integral without a factorization."""


class DegenerateDenominator(CondMcError):
    """Denominator of a quotient estimator is statistically indistinguishable from zero."""


class EmptyKernelMass(CondMcError):
    """All kernel weights underflowed to zero; bandwidth too small for the sample."""


class ZeroSensitivity(CondMcError):
    """Drift does not depend on the parameter anywhere; nothing to differentiate."""


class SingularDiffusion(CondMcError):
    """Diffusion matrix is singular where the estimator needs to invert it."""


class NonDiagonalDiffusion(CondMcError):
    """Measure-splitting step requires a diagonal diffusion covariance."""
