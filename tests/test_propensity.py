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
    model = fit_logistic(x, labels, ridge_lambda=1e-6)
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


def test_infinite_ridge_is_an_input_error():
    x = np.random.default_rng(0).normal(size=(40, 2))
    with pytest.raises(InputError, match="ridge_lambda must be finite"):
        fit_logistic(x, np.arange(40) % 2, ridge_lambda=float("inf"))


def test_one_class_with_ridge_is_fine():
    model = fit_logistic(np.zeros((5, 1)), np.ones(5), ridge_lambda=1e-6)
    assert model.predict_many(np.zeros((1, 1)))[0] > 0.99


def test_nonfinite_covariates_error():
    with pytest.raises(InputError):
        fit_logistic(np.array([[np.inf], [0.0]]), np.array([0, 1]), ridge_lambda=1e-6)


def test_nonbinary_labels_error():
    with pytest.raises(ValidationError):
        fit_logistic(np.zeros((3, 1)), np.array([0, 1, 2]), ridge_lambda=1e-6)


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
    model = fit_logistic(x, labels, ridge_lambda=1e-6)
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
    model = fit_logistic(np.zeros((4, 2)), np.array([0, 1, 0, 1]), ridge_lambda=1e-6)
    with pytest.raises(InputError):
        model.predict_many(np.zeros((1, 3)))


def test_constant_p():
    assert estimate_constant_p(np.array([1, 0, 1, 1])) == 0.75
    assert estimate_constant_p(np.ones(5)) == 1.0
    with pytest.raises(InputError):
        estimate_constant_p(np.array([]))
    with pytest.raises(ValidationError):
        estimate_constant_p(np.array([0, 2]))


def test_expit_keeps_the_bits_of_scipy_special_expit():
    from ctiv.propensity import expit as ported
    log_max = np.log(np.finfo(np.float64).max)
    edges = [709.78, 709.79, 710.0, 746.0, 745.13, log_max,
             np.nextafter(log_max, np.inf), 1e308, np.inf]
    x = np.concatenate([
        edges, np.negative(edges), [np.nan, -0.0, 0.0, 5e-324, -5e-324],
        np.random.default_rng(13).standard_normal(1_000_000),
        np.random.default_rng(14).uniform(-800.0, 800.0, 100_000),
    ])
    got, want = ported(x), expit(x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    # -x overflows exp: inf there, as C's exp, and expit 0.0
    assert ported(np.array([-710.0, -np.inf]))[0] == 0.0
    assert np.array_equal(ported(x[:1_100_000].reshape(11, -1)),
                          want[:1_100_000].reshape(11, -1), equal_nan=True)


def reference_fit(x, labels, ridge_lambda, tol, max_iter):
    # the solver as first written: the link twice per iterate, and every
    # accepted step's log-likelihood recomputed
    n, k = x.shape
    x_aug = np.hstack([np.ones((n, 1)), x])
    lab = labels.astype(np.float64)
    penalty_diag = np.full(k + 1, ridge_lambda)
    penalty_diag[0] = 0.0
    beta = np.zeros(k + 1)
    ll = penalized_loglik(beta, x_aug, lab, ridge_lambda)
    converged, iterations = False, 0
    for _ in range(max_iter):
        grad = x_aug.T @ (lab - expit(x_aug @ beta))
        grad[1:] -= ridge_lambda * beta[1:]
        if np.abs(grad).max() < tol:
            converged = True
            break
        p = expit(x_aug @ beta)
        hess = (x_aug * (p * (1.0 - p))[:, None]).T @ x_aug + np.diag(penalty_diag)
        step = np.linalg.solve(hess, grad)
        scale = 1.0
        for _ in range(50):
            cand_ll = penalized_loglik(beta + scale * step, x_aug, lab, ridge_lambda)
            if cand_ll >= ll - 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step
        ll = penalized_loglik(beta, x_aug, lab, ridge_lambda)
        iterations += 1
    else:
        grad = x_aug.T @ (lab - expit(x_aug @ beta))
        grad[1:] -= ridge_lambda * beta[1:]
        converged = bool(np.abs(grad).max() < tol)
    return beta, converged, iterations


def assert_same_fit(model, ref):
    beta, converged, iterations = ref
    assert model.intercept == beta[0]
    assert np.array_equal(model.coefficients, beta[1:])
    assert (model.converged, model.iterations) == (converged, iterations)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("tol, max_iter", [(1e-8, 100), (1e-8, 2), (1e-8, 0), (0.0, 12)])
def test_fit_keeps_the_bits_of_the_first_solver(seed, tol, max_iter):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(50, 3000)), int(rng.integers(1, 6))
    x = rng.normal(size=(n, k))
    labels = (rng.random(n) < expit(0.3 + 1.5 * x[:, 0])).astype(int)
    lam = [0.0, 1e-6, 0.3, 5.0][seed]
    model = fit_logistic(x, labels, ridge_lambda=lam, tol=tol, max_iter=max_iter)
    assert_same_fit(model, reference_fit(x, labels, lam, tol, max_iter))


def test_exhausted_step_halving_keeps_the_last_scale(monkeypatch):
    # a step straight downhill is refused at every one of the 50 scales;
    # beta then moves by the step at the final scale, 2**-50
    import ctiv.propensity
    monkeypatch.setattr(np.linalg, "solve", lambda hess, grad: -1e3 * grad)
    rng = np.random.default_rng(31)
    x = rng.normal(size=(400, 2))
    labels = (rng.random(400) < expit(x[:, 0])).astype(int)
    calls = []
    monkeypatch.setattr(ctiv.propensity, "penalized_loglik",
                        lambda *a: calls.append(a) or penalized_loglik(*a))
    model = fit_logistic(x, labels, ridge_lambda=1e-6, max_iter=3)
    assert model.iterations == 3 and not model.converged
    # the start, then 50 refused candidates and the step taken, three times
    assert len(calls) == 1 + 3 * 51
    assert model.intercept != 0.0
    assert_same_fit(model, reference_fit(x, labels, 1e-6, 1e-8, 3))


def test_fit_evaluates_the_link_once_per_iterate(monkeypatch):
    import ctiv.propensity
    calls = []
    link = ctiv.propensity.expit
    monkeypatch.setattr(ctiv.propensity, "expit",
                        lambda eta: calls.append(eta.shape) or link(eta))
    rng = np.random.default_rng(41)
    x = rng.normal(size=(500, 3))
    labels = (rng.random(500) < expit(x @ [1.0, -0.5, 0.2])).astype(int)
    model = fit_logistic(x, labels, ridge_lambda=1e-6)
    assert model.converged and model.iterations >= 3
    assert calls == [(500,)] * (model.iterations + 1)
