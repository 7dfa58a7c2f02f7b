"""Exception types and the input checks shared across the package.

The CLI maps these onto exit codes: ValidationError -> 2, NumericalError -> 3.
"""

import math
import numbers
from dataclasses import MISSING, fields


class PenseqError(Exception):
    """Base class for all package errors."""


class ValidationError(PenseqError):
    """Raised when inputs violate a documented precondition or invariant."""


class NumericalError(PenseqError):
    """Raised when a numerical routine cannot certify its result."""


def require(cond: bool, msg: str) -> None:
    """Raise ValidationError(msg) unless cond holds."""
    if not cond:
        raise ValidationError(msg)


def require_finite(obj, *names: str) -> None:
    """Raise ValidationError naming the first of obj's fields that is not a finite number."""
    for name in names:
        value = getattr(obj, name)
        require(isinstance(value, numbers.Real) and math.isfinite(value),
                f"{name} must be a finite number, got {value!r}")


def dataclass_kwargs(doc, spec: type, name: str, skip=frozenset()) -> dict:
    """The mapping ``doc`` as keyword arguments of the dataclass ``spec``.

    Keys, defaults and the unknown- and missing-field checks come from the
    fields of ``spec`` less ``skip`` (fields the caller supplies); ``name``
    labels the errors.  A field annotated ``float`` is stored as float.
    """
    doc = dict(doc)
    own = [f for f in fields(spec) if f.name not in skip]
    unknown = set(doc) - {f.name for f in own}
    require(not unknown, f"unknown {name} fields: {sorted(unknown)}")
    kwargs = {}
    for f in own:
        require(f.name in doc or f.default is not MISSING,
                f"{name} section is missing {f.name!r}")
        value = doc.get(f.name, f.default)
        kwargs[f.name] = float(value) if f.type in (float, "float") else value
    return kwargs
