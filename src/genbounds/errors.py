"""Semantic exception types shared across the package, and the integer check behind them."""

import numbers


def _is_positive_integer(value) -> bool:
    """True for an integer of at least 1 (numpy integers included; bool, floats and NaN not)."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= 1


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
