"""Exception types shared across the package."""

__all__ = ["ArmaxError", "ConfigurationError", "NumericLimitError", "UndefinedResultError"]


class ArmaxError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(ArmaxError, ValueError):
    """A process or run configuration is invalid or non-stationary.

    Also a ``ValueError`` so generic validation handlers catch it.
    """


class NumericLimitError(ArmaxError):
    """A numeric limit did not converge on the requested grid."""


class UndefinedResultError(ArmaxError):
    """An empirical quantity is undefined for the given sample.

    Raised e.g. when no observation exceeds a threshold, or when a
    conditioning event has empirical probability zero.
    """
