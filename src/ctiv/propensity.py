"""Assignment-probability estimation.

Fits P(assignment = 1 | covariates) with a ridge-penalised logistic
regression solved by damped Newton iterations, or a constant share when
assignment is known to be randomised. The ridge penalty never touches
the intercept; predictions are clamped away from exact 0/1 so they can
be used as inverse weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import InputError, SeparationError, require_binary

PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class PropensityModel:
    """Fitted logistic model: intercept, slopes and fit diagnostics."""

    intercept: float
    coefficients: np.ndarray
    ridge_lambda: float
    converged: bool
    iterations: int

    def predict(self, x: np.ndarray) -> float:
        """Probability for a single covariate vector."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.coefficients.shape:
            raise InputError(
                f"expected {self.coefficients.shape[0]} features, got {x.shape}")
        return float(self.predict_many(x[None, :])[0])

    def predict_many(self, covariates: np.ndarray) -> np.ndarray:
        """Probabilities for each row of a covariate matrix."""
        x = np.asarray(covariates, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.coefficients.shape[0]:
            raise InputError(
                f"expected (N, {self.coefficients.shape[0]}) covariates, got {x.shape}")
        eta = self.intercept + x @ self.coefficients
        return np.clip(expit(eta), PROB_CLAMP, 1.0 - PROB_CLAMP)


def penalized_loglik(beta: np.ndarray, x_aug: np.ndarray, labels: np.ndarray,
                     ridge_lambda: float) -> float:
    """Bernoulli log-likelihood minus the ridge term (intercept exempt)."""
    eta = x_aug @ beta
    ll = float(labels @ eta - np.logaddexp(0.0, eta).sum())
    return ll - 0.5 * ridge_lambda * float(beta[1:] @ beta[1:])


def loglik_gradient(beta: np.ndarray, x_aug: np.ndarray, labels: np.ndarray,
                    ridge_lambda: float) -> np.ndarray:
    """Gradient of the penalised log-likelihood."""
    p = expit(x_aug @ beta)
    grad = x_aug.T @ (labels - p)
    grad[1:] -= ridge_lambda * beta[1:]
    return grad


def fit_logistic(covariates: np.ndarray, labels: np.ndarray,
                 ridge_lambda: float = 1e-6, tol: float = 1e-8,
                 max_iter: int = 100) -> PropensityModel:
    """Maximise the ridge-penalised Bernoulli log-likelihood.

    Newton steps with step halving whenever a full step would lower the
    objective. Convergence is declared when the gradient max-norm drops
    below ``tol``. One-class labels are only admissible with a positive
    ridge penalty; otherwise the optimum runs off to infinity.
    """
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InputError("covariates must be a nonempty 2-D array")
    if not np.isfinite(x).all():
        raise InputError("covariates contain non-finite values")
    lab = np.asarray(labels)
    if lab.shape != (x.shape[0],):
        raise InputError("labels must be a length-N vector")
    lab = require_binary(lab, "labels").astype(np.float64)
    if ridge_lambda < 0:
        raise InputError("ridge_lambda must be nonnegative")
    if ridge_lambda == 0.0 and (lab.min() == lab.max()):
        raise SeparationError(
            "labels are all one class and no ridge penalty is set")

    n, k = x.shape
    x_aug = np.hstack([np.ones((n, 1)), x])
    penalty_diag = np.full(k + 1, ridge_lambda)
    penalty_diag[0] = 0.0

    beta = np.zeros(k + 1)
    ll = penalized_loglik(beta, x_aug, lab, ridge_lambda)
    converged = False
    iterations = 0
    for _ in range(max_iter):
        grad = loglik_gradient(beta, x_aug, lab, ridge_lambda)
        if np.abs(grad).max() < tol:
            converged = True
            break
        p = expit(x_aug @ beta)
        weights = p * (1.0 - p)
        hess = (x_aug * weights[:, None]).T @ x_aug + np.diag(penalty_diag)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        # step halving: never accept a move that lowers the objective
        scale = 1.0
        for _ in range(50):
            candidate = beta + scale * step
            cand_ll = penalized_loglik(candidate, x_aug, lab, ridge_lambda)
            if cand_ll >= ll - 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step
        ll = penalized_loglik(beta, x_aug, lab, ridge_lambda)
        iterations += 1
    else:
        grad = loglik_gradient(beta, x_aug, lab, ridge_lambda)
        converged = bool(np.abs(grad).max() < tol)
    if not np.isfinite(beta).all():
        raise SeparationError("logistic fit diverged; labels may be separated")
    coefs = beta[1:].copy()
    coefs.setflags(write=False)
    return PropensityModel(
        intercept=float(beta[0]),
        coefficients=coefs,
        ridge_lambda=float(ridge_lambda),
        converged=converged,
        iterations=iterations,
    )


def estimate_constant_p(z: np.ndarray) -> float:
    """Share of assigned units; the propensity under pure randomisation."""
    arr = np.asarray(z)
    if arr.size == 0:
        raise InputError("z is empty")
    return float(require_binary(arr, "z").mean())
