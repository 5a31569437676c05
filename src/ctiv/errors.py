"""Exception hierarchy shared across the package, and its two shared checks.

One class per thing a user can fix: an argument (InputError), the CSV
header or column flags (SchemaError), the data's values (ValidationError),
or data that cannot identify the estimate (EstimationError). The CLI
exits 3 on EstimationError and 2 on every other CtivError.
``require_binary`` is the package's one 0/1 check, ``require_probabilities``
its one check for values strictly inside (0, 1); both raise ValidationError.
"""

import numpy as np


class CtivError(Exception):
    """Base class for every error raised by this package."""


class InputError(CtivError):
    """An argument or flag out of range: a shape, a fraction, a target."""


class SchemaError(CtivError):
    """A required column is missing or the column mapping is wrong."""


class ValidationError(CtivError):
    """Data values violate a documented constraint (blank cell, NaN,
    non-binary arm, no units left...)."""


class EstimationError(CtivError):
    """The data cannot identify the estimate: degenerate growth, a
    separated logistic fit, an empty arm, no complier mass."""


def require_binary(values, name: str) -> np.ndarray:
    """``values`` as an array, once every entry is 0 or 1."""
    arr = np.asarray(values)
    if not np.all((arr == 0) | (arr == 1)):
        raise ValidationError(f"{name} must be 0/1")
    return arr


def require_probabilities(values, name: str) -> np.ndarray:
    """``values`` as a float64 array, once every entry lies strictly inside
    (0, 1); NaN does not."""
    arr = np.asarray(values, dtype=np.float64)
    if not ((arr > 0.0) & (arr < 1.0)).all():
        raise ValidationError(f"{name} must lie strictly inside (0, 1)")
    return arr
