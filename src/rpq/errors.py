"""Exception types shared across the package."""


class RpqError(Exception):
    """Base class for all package errors."""


class ValidationError(RpqError, ValueError):
    """An argument violates a documented precondition."""


class ModeMixError(RpqError, TypeError):
    """Exact (rational) and approximate (float) values met in one computation."""


class CapacityError(RpqError):
    """An enumeration would exceed the desk-scale capacity guard."""


class ZeroProbabilityEventError(RpqError):
    """A conditioning event has probability zero."""


class UnderflowError(RpqError, ArithmeticError):
    """An approximate-mode value that is positive in exact arithmetic
    rounded to 0.0."""
