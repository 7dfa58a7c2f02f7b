"""Exception types shared across the package.

The CLI maps these onto exit codes: ValidationError (and its
ConfigurationError subclass) -> 2, NumericalError -> 3.
"""


class PenseqError(Exception):
    """Base class for all package errors."""


class ValidationError(PenseqError):
    """Raised when inputs violate a documented precondition or invariant."""


class ConfigurationError(ValidationError):
    """Raised when an experiment configuration is internally inconsistent."""


class NumericalError(PenseqError):
    """Raised when a numerical routine cannot certify its result."""


def require(cond: bool, msg: str) -> None:
    """Raise ValidationError(msg) unless cond holds."""
    if not cond:
        raise ValidationError(msg)
