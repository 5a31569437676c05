"""Exception hierarchy shared across the package, and its two shared checks.

Errors split into two families: data problems (bad input files, schema
mismatches, degenerate splits) and estimation problems (separation,
empty arms, rank deficiency). The CLI maps the families to distinct
exit codes. ``require_binary`` is the package's one 0/1 check
(ValidationError), ``require_probabilities`` its one check for values
strictly inside (0, 1) (DomainError).
"""

import numpy as np


class CtivError(Exception):
    """Base class for every error raised by this package."""


# --- data / validation family ---

class SchemaError(CtivError):
    """A required column is missing or the column mapping is wrong."""


class ValidationError(CtivError):
    """Input values violate a documented constraint (non-binary arm, NaN...)."""


class MissingValueError(CtivError):
    """A blank cell where a value is required."""


class InputError(CtivError):
    """Malformed arguments: wrong shape, non-finite values, bad dimension."""


class DomainError(CtivError):
    """A probability or parameter outside its mathematical domain."""


class SplitError(CtivError):
    """Holdout fractions that cannot produce a usable partition."""


class EmptyDatasetError(CtivError):
    """No units survive trimming or subsetting."""


class CalibrationError(CtivError):
    """A synthetic generator missed its target correlations."""


# --- estimation family ---

class EstimationError(CtivError):
    """An estimator could not produce a finite, identified answer."""


class SeparationError(EstimationError):
    """Perfectly separated logistic fit with no ridge penalty."""


class EmptyArmError(EstimationError):
    """A leaf or sample with one assignment arm empty."""


class GrowthError(EstimationError):
    """Tree growth impossible under the configured constraints."""


class AggregationError(EstimationError):
    """A weighted aggregate has no mass to average over."""


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
        raise DomainError(f"{name} must lie strictly inside (0, 1)")
    return arr
