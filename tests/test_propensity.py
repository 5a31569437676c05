"""Logistic propensity fitting against independent oracles."""

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from ctiv import estimate_constant_p, fit_logistic
from ctiv.errors import InputError, SeparationError, ValidationError
from ctiv.propensity import loglik_gradient, penalized_loglik


def test_balanced_no_signal_gives_zeros():
    x = np.zeros((10, 2))
    labels = np.array([0, 1] * 5)
    model = fit_logistic(x, labels)
    assert model.converged
    assert model.intercept == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(model.coefficients, 0.0, atol=1e-9)


def test_predict_closed_forms():
    x = np.zeros((4, 1))
    model = fit_logistic(x, np.array([1, 1, 1, 0]), ridge_lambda=1e-6)
    # intercept solves mean p = 3/4 -> logit(0.75) = ln 3
    assert model.intercept == pytest.approx(np.log(3.0), abs=1e-4)
    assert model.predict_many(np.zeros((1, 1)))[0] == pytest.approx(0.75, abs=1e-4)


def test_predict_logistic_value():
    from ctiv.propensity import PropensityModel
    model = PropensityModel(intercept=0.0, coefficients=np.array([1.0]),
                            ridge_lambda=0.0, converged=True, iterations=0)
    assert model.predict_many(np.array([[-2.0]]))[0] == pytest.approx(1.0 / (1.0 + np.e ** 2))


def test_fit_matches_independent_optimizer():
    # oracle: quasi-Newton minimisation of the same penalised objective
    rng = np.random.default_rng(11)
    n, k = 200, 3
    x = rng.normal(size=(n, k))
    beta_true = np.array([0.5, -1.0, 2.0, 0.7])  # intercept first
    p = expit(beta_true[0] + x @ beta_true[1:])
    labels = (rng.random(n) < p).astype(int)
    lam = 1e-6
    model = fit_logistic(x, labels, ridge_lambda=lam)
    assert model.converged

    x_aug = np.hstack([np.ones((n, 1)), x])
    ref = minimize(
        lambda b: -penalized_loglik(b, x_aug, labels.astype(float), lam),
        np.zeros(k + 1),
        jac=lambda b: -loglik_gradient(b, x_aug, labels.astype(float), lam),
        method="BFGS",
        options={"gtol": 1e-10, "maxiter": 500},
    )
    fitted = np.concatenate([[model.intercept], model.coefficients])
    assert np.allclose(fitted, ref.x, atol=1e-5)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(30, 120))
        k = int(rng.integers(1, 6))
        x_aug = np.hstack([np.ones((n, 1)), rng.normal(size=(n, k))])
        labels = rng.integers(0, 2, n).astype(float)
        lam = float(rng.uniform(0, 0.5))
        beta = rng.normal(scale=0.8, size=k + 1)
        grad = loglik_gradient(beta, x_aug, labels, lam)
        h = 1e-6
        for j in range(k + 1):
            step = np.zeros(k + 1)
            step[j] = h
            num = (penalized_loglik(beta + step, x_aug, labels, lam)
                   - penalized_loglik(beta - step, x_aug, labels, lam)) / (2 * h)
            denom = max(1.0, abs(num))
            assert abs(grad[j] - num) / denom < 1e-4


def test_separated_data_with_ridge_converges():
    x = np.linspace(-1, 1, 40).reshape(-1, 1)
    labels = (x[:, 0] > 0).astype(int)
    model = fit_logistic(x, labels, ridge_lambda=0.1)
    assert model.converged
    assert np.isfinite(model.coefficients).all()
    assert model.coefficients[0] > 0


def test_one_class_without_ridge_errors():
    with pytest.raises(SeparationError):
        fit_logistic(np.zeros((5, 1)), np.ones(5), ridge_lambda=0.0)


@pytest.mark.parametrize("ridge", [-1.0, float("nan")])
def test_out_of_range_ridge_is_an_input_error(ridge):
    x = np.random.default_rng(0).normal(size=(40, 2))
    with pytest.raises(InputError, match="ridge_lambda must be nonnegative"):
        fit_logistic(x, np.arange(40) % 2, ridge_lambda=ridge)


def test_one_class_with_ridge_is_fine():
    model = fit_logistic(np.zeros((5, 1)), np.ones(5), ridge_lambda=1e-6)
    assert model.predict_many(np.zeros((1, 1)))[0] > 0.99


def test_nonfinite_covariates_error():
    with pytest.raises(InputError):
        fit_logistic(np.array([[np.inf], [0.0]]), np.array([0, 1]))


def test_nonbinary_labels_error():
    with pytest.raises(ValidationError):
        fit_logistic(np.zeros((3, 1)), np.array([0, 1, 2]))


def test_solution_beats_zero_vector():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(150, 2))
    labels = (rng.random(150) < expit(x[:, 0])).astype(float)
    lam = 1e-4
    model = fit_logistic(x, labels, ridge_lambda=lam)
    x_aug = np.hstack([np.ones((150, 1)), x])
    beta = np.concatenate([[model.intercept], model.coefficients])
    assert (penalized_loglik(beta, x_aug, labels, lam)
            >= penalized_loglik(np.zeros(3), x_aug, labels, lam))


def test_predictions_monotone_in_covariate():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(300, 1))
    labels = (rng.random(300) < expit(2 * x[:, 0])).astype(int)
    model = fit_logistic(x, labels)
    grid = np.linspace(-3, 3, 50).reshape(-1, 1)
    preds = model.predict_many(grid)
    assert (np.diff(preds) > 0).all()
    assert ((preds > 0) & (preds < 1)).all()


def test_predict_clamps_extremes():
    from ctiv.propensity import PropensityModel
    model = PropensityModel(intercept=500.0, coefficients=np.array([0.0]),
                            ridge_lambda=0.0, converged=True, iterations=0)
    assert model.predict_many(np.zeros((1, 1)))[0] == 1.0 - 1e-12


def test_predict_dimension_mismatch():
    model = fit_logistic(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
    with pytest.raises(InputError):
        model.predict_many(np.zeros((1, 3)))


def test_constant_p():
    assert estimate_constant_p(np.array([1, 0, 1, 1])) == 0.75
    assert estimate_constant_p(np.ones(5)) == 1.0
    with pytest.raises(InputError):
        estimate_constant_p(np.array([]))
    with pytest.raises(ValidationError):
        estimate_constant_p(np.array([0, 2]))
