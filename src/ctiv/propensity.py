"""Assignment-probability estimation.

Fits P(assignment = 1 | covariates) with a ridge-penalised logistic
regression solved by damped Newton iterations, or a constant share when
assignment is known to be randomised. The ridge penalty never touches
the intercept; predictions are clamped away from exact 0/1 so they can
be used as inverse weights.

The logistic link is ``expit`` below, written to give the bits of
``scipy.special.expit``: ``1 / (1 + exp(-x))`` with the C library's
``exp``. ``math.exp`` is that function; ``np.exp`` is not, since numpy
may evaluate it with its own SIMD kernel, which differs from the C
library's in the last bit on a few percent of inputs. So the link costs
a Python call per element, and ``fit_logistic`` evaluates it once per
Newton iterate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, InputError, require_binary

PROB_CLAMP = 1e-12
# the largest x whose exp(x) is finite; math.exp raises above it
_LOG_DBL_MAX = math.log(sys.float_info.max)
# fit_logistic's stopping rule: gradient max-norm, and Newton steps
_TOL = 1e-8
_MAX_ITER = 100


def expit(x: np.ndarray) -> np.ndarray:
    """Logistic function, elementwise, bit for bit as the C ``1/(1+exp(-x))``.

    Where C's ``exp`` overflows to inf, ``math.exp`` raises instead, so
    those elements get inf (and expit 0.0) here. NaN stays NaN.
    """
    neg = -np.asarray(x, dtype=np.float64)
    e = np.fromiter(map(math.exp, np.minimum(neg, _LOG_DBL_MAX).ravel().tolist()),
                    np.float64, count=neg.size).reshape(neg.shape)
    e[neg > _LOG_DBL_MAX] = np.inf
    return 1.0 / (1.0 + e)


@dataclass(frozen=True)
class PropensityModel:
    """Fitted logistic model: intercept, slopes and fit diagnostics."""

    intercept: float
    coefficients: np.ndarray
    ridge_lambda: float
    converged: bool
    iterations: int

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


def _gradient(p: np.ndarray, beta: np.ndarray, x_aug: np.ndarray,
              labels: np.ndarray, ridge_lambda: float) -> np.ndarray:
    # the gradient at beta, given p = expit(x_aug @ beta)
    grad = x_aug.T @ (labels - p)
    grad[1:] -= ridge_lambda * beta[1:]
    return grad


def check_ridge(ridge_lambda: float) -> None:
    """Reject a ridge penalty that is negative, NaN or infinite."""
    if not ridge_lambda >= 0:          # NaN included
        raise InputError("ridge_lambda must be nonnegative")
    if ridge_lambda == math.inf:
        raise InputError("ridge_lambda must be finite")


def fit_logistic(covariates: np.ndarray, labels: np.ndarray,
                 ridge_lambda: float) -> PropensityModel:
    """Maximise the ridge-penalised Bernoulli log-likelihood.

    Newton steps with step halving whenever a full step would lower the
    objective. Convergence is declared when the gradient max-norm drops
    below ``_TOL``; the fit stops unconverged after ``_MAX_ITER`` steps.
    One-class labels are only admissible with a positive ridge penalty;
    otherwise the optimum runs off to infinity.
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
    check_ridge(ridge_lambda)
    if ridge_lambda == 0.0 and (lab.min() == lab.max()):
        raise EstimationError(
            "labels are all one class and no ridge penalty is set")

    n, k = x.shape
    x_aug = np.hstack([np.ones((n, 1)), x])
    penalty_diag = np.full(k + 1, ridge_lambda)
    penalty_diag[0] = 0.0

    beta = np.zeros(k + 1)
    ll = penalized_loglik(beta, x_aug, lab, ridge_lambda)
    iterations = 0
    # covariates near the float limit overflow the products, which the
    # divergence check below reports; numpy's warnings would only add noise
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            # the link once per iterate: gradient and Hessian weights share p
            p = expit(x_aug @ beta)
            grad = _gradient(p, beta, x_aug, lab, ridge_lambda)
            converged = bool(np.abs(grad).max() < _TOL)
            if converged or iterations >= _MAX_ITER:
                break
            weights = p * (1.0 - p)
            hess = (x_aug * weights[:, None]).T @ x_aug + np.diag(penalty_diag)
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, grad, rcond=None)[0]
            # step halving: never accept a move that lowers the objective,
            # unless no scale down to 2**-50 avoids it; then take that last
            scale = 1.0
            for _ in range(51):
                candidate = beta + scale * step
                cand_ll = penalized_loglik(candidate, x_aug, lab, ridge_lambda)
                if cand_ll >= ll - 1e-12:
                    break
                scale *= 0.5
            beta, ll = candidate, cand_ll
            iterations += 1
    if not np.isfinite(beta).all():
        raise EstimationError("logistic fit diverged; labels may be separated")
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
