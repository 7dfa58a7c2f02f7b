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


def is_number(value) -> bool:
    """A JSON number is an int or a float, never a bool or a string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def as_float(value, name: str) -> float:
    """value as a float; TypeError naming it unless it is a number."""
    if not is_number(value):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def dataclass_kwargs(doc, spec: type, name: str, skip=frozenset()) -> dict:
    """The mapping ``doc`` as keyword arguments of the dataclass ``spec``.

    Keys, defaults and the unknown- and missing-field checks come from the
    fields of ``spec`` less ``skip`` (fields the caller supplies); ``name``
    labels the errors.  A field annotated ``float`` must be a number and is
    stored as float; one annotated ``float | None`` must be a number or None
    and is stored as written.
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
        if f.type in (float, "float"):
            value = as_float(value, f"{name}.{f.name}")
        elif f.type in (float | None, "float | None") and value is not None:
            as_float(value, f"{name}.{f.name}")
        kwargs[f.name] = value
    return kwargs
