"""Transformed outcomes and the weighted leaf contrast."""

from fractions import Fraction

import numpy as np
import pytest

from ctiv import leaf_weighted_itt, transformed_outcome
from ctiv.errors import DomainError, EmptyArmError, ValidationError


def test_transform_closed_forms():
    assert transformed_outcome(2.0, 1, 0.5) == pytest.approx(4.0, abs=1e-15)
    assert transformed_outcome(3.0, 0, 0.5) == pytest.approx(-6.0, abs=1e-15)
    assert transformed_outcome(1.0, 1, 0.25) == pytest.approx(4.0, abs=1e-15)


def test_transform_equals_simple_form():
    # y*(d-e)/((1-e)e) is y/e on the assigned arm, -y/(1-e) on the other
    rng = np.random.default_rng(0)
    y = rng.normal(size=500)
    d = rng.integers(0, 2, 500)
    e = rng.uniform(0.05, 0.95, 500)
    star = transformed_outcome(y, d, e)
    expected = np.where(d == 1, y / e, -y / (1.0 - e))
    assert np.allclose(star, expected, atol=1e-12)


def test_transform_domain_error():
    with pytest.raises(DomainError):
        transformed_outcome(1.0, 1, 0.0)
    with pytest.raises(DomainError):
        transformed_outcome(1.0, 0, 1.0)


@pytest.mark.parametrize("estimator", [transformed_outcome, leaf_weighted_itt])
def test_non_binary_indicator_is_validation_error(estimator):
    with pytest.raises(ValidationError, match="d must be 0/1"):
        estimator(np.ones(4), np.array([0.0, 1.0, 0.5, 1.0]), 0.5)


def test_weighted_itt_constant_e_is_mean_difference():
    y = np.array([3.0, 1.0, 2.0, 2.0])
    d = np.array([1, 1, 0, 0])
    assert leaf_weighted_itt(y, d, 0.5) == pytest.approx(0.0, abs=1e-15)
    y2 = np.array([3.0, 3.0, 2.0, 2.0])
    assert leaf_weighted_itt(y2, d, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_weighted_itt_equal_outcomes_balanced():
    y = np.full(6, 5.0)
    d = np.array([1, 0, 1, 0, 1, 0])
    assert leaf_weighted_itt(y, d, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_weighted_itt_hand_value():
    # exact rational arithmetic oracle for the four-unit example
    y = np.array([4.0, 2.0, 1.0, 3.0])
    d = np.array([1, 1, 0, 0])
    e = np.array([0.8, 0.4, 0.5, 0.25])
    treated = (Fraction(4) / Fraction(4, 5) + Fraction(2) / Fraction(2, 5)) / (
        1 / Fraction(4, 5) + 1 / Fraction(2, 5))
    control = (Fraction(1) / Fraction(1, 2) + Fraction(3) / Fraction(3, 4)) / (
        1 / Fraction(1, 2) + 1 / Fraction(3, 4))
    expected = treated - control
    assert expected == Fraction(13, 15)
    assert leaf_weighted_itt(y, d, e) == pytest.approx(float(expected), abs=1e-12)


def test_weighted_itt_reduces_to_mean_diff_under_constant_e():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(10, 200))
        y = rng.normal(size=n)
        d = rng.integers(0, 2, n)
        if d.min() == d.max():
            continue
        p = float(rng.uniform(0.1, 0.9))
        direct = y[d == 1].mean() - y[d == 0].mean()
        assert leaf_weighted_itt(y, d, np.full(n, p)) == pytest.approx(direct, abs=1e-12)


def test_weighted_itt_scale_equivariance():
    rng = np.random.default_rng(2)
    y = rng.normal(size=80)
    d = rng.integers(0, 2, 80)
    e = rng.uniform(0.2, 0.8, 80)
    base = leaf_weighted_itt(y, d, e)
    assert leaf_weighted_itt(3.5 * y, d, e) == pytest.approx(3.5 * base, rel=1e-12)


def test_weighted_itt_empty_arm():
    with pytest.raises(EmptyArmError):
        leaf_weighted_itt(np.ones(4), np.ones(4), 0.5)


def test_weighted_itt_unbiased_constant_effect():
    # light version of the acceptance check: known e, constant effect
    rng = np.random.default_rng(3)
    tau, n, reps = 1.5, 150, 4000
    e = rng.uniform(0.3, 0.7, n)
    estimates = np.empty(reps)
    for r in range(reps):
        d = (rng.random(n) < e).astype(int)
        if d.min() == d.max():
            d[0] = 1 - d[0]
        y = rng.normal(size=n) + tau * d
        estimates[r] = leaf_weighted_itt(y, d, e)
    mc_se = estimates.std(ddof=1) / np.sqrt(reps)
    assert abs(estimates.mean() - tau) < 4 * mc_se
