"""Semantic exception types shared across the package, and the number checks behind them."""

import math
import numbers

import numpy as np


def _is_positive_integer(value) -> bool:
    """True for an integer of at least 1 (numpy integers included; bool, floats and NaN not)."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= 1


def _is_count(value) -> bool:
    """True for a positive integer, or a 1-D numpy row of whole numbers of at least 1 (integer or float dtype).

    A row of n is how a bound takes an ``n`` sweep in one call; inf and NaN are not whole numbers.
    """
    if not isinstance(value, np.ndarray):
        return _is_positive_integer(value)
    if value.ndim != 1 or value.dtype.kind not in "iuf":
        return False
    return bool(np.logical_and.reduce((value >= 1) & (value < math.inf) & (value == np.floor(value)), axis=None))


def _is_real(value) -> bool:
    """True for a real number, numpy's included; bool is not one, as the CLI schema reads it."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


class GenBoundsError(Exception):
    """Base class for all package errors."""


class DomainError(GenBoundsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ShapeError(GenBoundsError, ValueError):
    """Array arguments have incompatible shapes or sizes."""


class ParameterError(GenBoundsError, ValueError):
    """A scalar parameter violates its admissible range."""


class EvaluationError(GenBoundsError, RuntimeError):
    """A user-supplied callable produced NaN or infinity inside its declared domain."""


class DegenerateError(GenBoundsError, ValueError):
    """A computation collapsed, e.g. all probability mass sits on infinite values."""


class BudgetError(GenBoundsError, RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


class ConfigurationError(GenBoundsError, ValueError):
    """An experiment or CLI configuration is invalid or inconsistent."""
