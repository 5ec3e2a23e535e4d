"""Exception hierarchy and warning categories shared across the package.

Every failure mode raised by the library derives from ThetaGWError so callers
can catch one base class. Subclasses are semantic: they say what went wrong,
not where. The CLI maps them onto distinct exit codes.
"""

from __future__ import annotations

__all__ = [
    "ThetaGWError", "DomainError", "InconsistentParamsError", "UnclassifiableError",
    "NumericError", "TruncationError", "OverflowGuardError", "SingularPathError",
    "UnsupportedFormError", "RegimeError", "TrivialLawError",
    "ConditioningWarning", "QualityWarning",
]


class ThetaGWError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ThetaGWError, ValueError):
    """An input lies outside the mathematical domain of the operation."""


class InconsistentParamsError(DomainError):
    """Two redundant parameters were both supplied and disagree."""


class UnclassifiableError(DomainError):
    """The parameter combination belongs to none of the nine admissible cases."""


class NumericError(ThetaGWError, ArithmeticError):
    """A computation lost validity (overflow, non-convergence, bad residual)."""


class TruncationError(NumericError):
    """A truncated table could not be extended far enough to cover a request."""


class OverflowGuardError(NumericError):
    """An iterate left the invariant interval; further composition is unsound."""


class SingularPathError(DomainError):
    """An integration path touches a singular point of the integrand."""


class UnsupportedFormError(DomainError):
    """The requested series operation is undefined for this expansion point."""


class RegimeError(DomainError):
    """The limit-regime descriptor is degenerate or self-contradictory."""


class TrivialLawError(DomainError):
    """The requested limit law is identically zero for these parameters."""


class ConditioningWarning(UserWarning):
    """Accepted input sits close to a discrete branch point; results may be
    ill-conditioned (e.g. exponents of order 1/theta with tiny theta)."""


class QualityWarning(UserWarning):
    """A statistical or numerical estimate is degraded: heavy censoring of a
    Monte Carlo run, or a quadrature that ended on a QUADPACK flag (subinterval
    limit, roundoff, bad integrand behaviour, divergence)."""
