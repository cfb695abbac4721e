"""Exception types shared across the package, and the argument checks
that several modules raise with one message."""

import numbers

__all__ = ["ArmaxError", "ConfigurationError", "NumericLimitError", "UndefinedResultError"]


class ArmaxError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(ArmaxError, ValueError):
    """A process or run configuration is invalid.

    Also a ``ValueError`` so generic validation handlers catch it.
    """


class NumericLimitError(ArmaxError):
    """A numeric limit did not converge on the requested grid."""


class UndefinedResultError(ArmaxError):
    """An empirical quantity is undefined for the given sample.

    Raised e.g. when no observation exceeds a threshold, or when a
    conditioning event has empirical probability zero.
    """


def _check_open_unit(value, name: str = "c") -> None:
    if not (0.0 < value < 1.0):  # a nan is refused too
        raise ValueError(f"{name} must lie in (0, 1)")


def _check_coefficients(c, error: type[ValueError] = ValueError) -> None:
    if not all(0.0 < v < 1.0 for v in c):
        raise error("autoregression coefficients must lie in (0, 1)")


def _check_integer(value, name: str, error: type[ValueError] = ValueError) -> None:
    # an int or a numpy integer, not a bool or a float (integral or not)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")


def _check_top_k(k: int, n: int, error: type[ValueError] = ValueError, n_name: str = "n") -> None:
    # k upper order statistics of n values
    _check_integer(k, "k", error)
    if not 0 < k < n:
        raise error(f"k must lie strictly between 0 and {n_name}")
