"""Exception types and the input checks shared across the package.

The CLI maps these onto exit codes: ValidationError -> 2, NumericalError -> 3.

Every scalar input meets one of two rules, each raising ValidationError naming
its field: as_float takes a finite real number, never a bool, and whole a
whole number at or above a floor, of any numeric type (5.0 and np.int64(5)).
Every array input meets real_array: real numbers of any numeric type, never a
bool, complex number, string or other object.
"""

import math
import numbers
from dataclasses import MISSING, fields

import numpy as np


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


def is_number(value) -> bool:
    """A real number, never a bool; the exact-type test spares a float the slow ABC check."""
    return type(value) in (float, int) or (isinstance(value, numbers.Real)
                                           and not isinstance(value, bool))


def as_float(value, name: str) -> float:
    """value as a finite float; ValidationError naming it otherwise."""
    try:
        if is_number(value) and math.isfinite(value):
            return float(value)
    except OverflowError:                         # an integer past the float range
        pass
    raise ValidationError(f"{name} must be a finite number, got {value!r}")


def whole(value, name: str, least: int) -> int:
    """value as an int: a whole number >= least of any numeric type, an integer
    past the float range included; ValidationError naming it otherwise."""
    if is_number(value) and least <= value < math.inf and int(value) == value:
        return int(value)
    raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


def real_array(value, name: str) -> np.ndarray:
    """value as a float64 array of real numbers of any numeric type, never a bool,
    complex number, string or other object; ValidationError naming it otherwise,
    and naming an integer past the float range."""
    try:
        arr = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
        if arr.dtype.kind in "iuf" or arr.dtype.kind == "O" and all(map(is_number, arr.flat)):
            return np.asarray(arr, dtype=float)
    except OverflowError:                         # an integer past the float range
        raise ValidationError(f"{name} has a coefficient outside the float range") from None
    except ValueError:                            # nested arrays numpy cannot lay out
        pass
    raise ValidationError(f"{name} must hold real numbers only, got {value!r:.60}")


def require_finite(obj, *names: str) -> None:
    """Raise ValidationError naming the first of obj's fields that is not a finite number."""
    for name in names:
        as_float(getattr(obj, name), name)


def dataclass_kwargs(doc, spec: type, name: str, skip=frozenset()) -> dict:
    """The mapping ``doc`` as keyword arguments of the dataclass ``spec``.

    Keys, defaults and the unknown- and missing-field checks come from the
    fields of ``spec`` less ``skip`` (fields the caller supplies); ``name``
    labels the errors.  A field annotated ``float`` must be a finite number
    and is stored as float; one annotated ``float | None`` must be a finite
    number or None and is stored as written.
    """
    require(isinstance(doc, dict), f"{name} must be a JSON object")
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
