"""Dataset helpers that more than one test module imports."""

import numpy as np

from ctiv import Dataset


def same_dataset(a: Dataset, b: Dataset) -> bool:
    """Field-wise equality of two datasets, dtypes included."""
    return a.feature_names == b.feature_names and all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("covariates", "z", "w", "y"))


def units(n: int) -> Dataset:
    """A dataset of ``n`` units, for a split, which reads only their count."""
    return Dataset(np.zeros((n, 1)), np.zeros(n), np.zeros(n), np.zeros(n), ("x",))
