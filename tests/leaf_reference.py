"""The leaf estimators ``estimate_leaf`` was once built from, kept verbatim
as the reference its fields must match bit for bit.

``tsls_leaf`` also stays the reference for the Wald identity: with binary
z and w and no covariates its coefficient on w equals the ratio of the
z-contrast in y to the z-contrast in w up to rounding.
``reference_estimate_leaf`` composes the four estimators as the package
did; the ratio keeps its finiteness check, and it is only ever taken
with a positive complier share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ctiv.effects import LeafEstimate
from ctiv.errors import EmptyArmError, EstimationError, InputError, require_binary
from ctiv.transform import RegimeKind, leaf_weighted_itt


@dataclass(frozen=True)
class TslsFit:
    """Two-stage least squares result for one leaf."""

    gamma_hat: float         # coefficient on receipt in the second stage
    pi1_hat: float           # first-stage coefficient on the instrument
    se_gamma: float
    first_stage_f: float


def compliance_shares(z: np.ndarray, w: np.ndarray) -> tuple[float, float, float]:
    """(always-taker, never-taker, complier) shares from one leaf.

    pi_at = mean receipt among unassigned, pi_nt = 1 - mean receipt
    among assigned, pi_c = the assigned/unassigned receipt contrast.
    The three add to 1 by construction.
    """
    z = require_binary(z, "z").astype(np.float64)
    w = require_binary(w, "w").astype(np.float64)
    if z.shape != w.shape or z.ndim != 1:
        raise InputError("z and w must be aligned vectors")
    assigned = z == 1.0
    if not assigned.any() or assigned.all():
        raise EmptyArmError("both assignment arms must be nonempty")
    m1 = float(w[assigned].mean())
    m0 = float(w[~assigned].mean())
    return m0, 1.0 - m1, m1 - m0


def tsls_leaf(y: np.ndarray, w: np.ndarray, z: np.ndarray,
              covariates: np.ndarray | None = None) -> TslsFit:
    """Two-stage least squares of y on w, instrumented by z.

    Both stages carry an intercept. Given ``covariates``, their columns
    enter both stages additively. Standard errors assume homoskedastic
    residuals. With binary z/w and no covariates the coefficient on w
    equals the ratio of the z-contrast in y to the z-contrast in w (the
    Wald estimate) up to float rounding.
    """
    y = np.asarray(y, dtype=np.float64)
    w = require_binary(w, "w").astype(np.float64)
    z = require_binary(z, "z").astype(np.float64)
    if not (y.shape == w.shape == z.shape) or y.ndim != 1:
        raise InputError("y, w, z must be aligned vectors")
    n = y.shape[0]
    assigned = z == 1.0
    if not assigned.any() or assigned.all():
        raise EmptyArmError("both assignment arms must be nonempty")

    if covariates is None:
        exog = np.ones((n, 1))
    else:
        x = np.asarray(covariates, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != n:
            raise InputError("covariates must be (N, K)")
        exog = np.hstack([np.ones((n, 1)), x])
    inst = np.hstack([exog[:, :1], z[:, None], exog[:, 1:]])   # [1, z, X]
    design = np.hstack([exog[:, :1], w[:, None], exog[:, 1:]])  # [1, w, X]
    p = inst.shape[1]
    if n <= p:
        raise EstimationError(f"leaf too small for TSLS: n={n}, parameters={p}")

    # first stage: w on [1, z, X]
    ztz = inst.T @ inst
    try:
        ztz_inv = np.linalg.inv(ztz)
    except np.linalg.LinAlgError:
        raise EstimationError("first-stage design is rank deficient") from None
    if np.linalg.matrix_rank(inst) < p:
        raise EstimationError("first-stage design is rank deficient")
    pi = ztz_inv @ (inst.T @ w)
    pi1 = float(pi[1])
    fs_resid = w - inst @ pi
    fs_sigma2 = float(fs_resid @ fs_resid) / (n - p)
    var_pi1 = fs_sigma2 * ztz_inv[1, 1]
    with np.errstate(divide="ignore"):
        first_stage_f = float(pi1 ** 2 / var_pi1) if var_pi1 > 0 else np.inf

    if pi1 == 0.0:
        raise EstimationError("instrument has no first-stage effect; not identified")

    # just-identified IV: solve (Z'X) beta = Z'y
    ztx = inst.T @ design
    try:
        ztx_inv = np.linalg.inv(ztx)
    except np.linalg.LinAlgError:
        raise EstimationError("instrumented design is singular") from None
    beta = ztx_inv @ (inst.T @ y)
    resid = y - design @ beta
    sigma2 = float(resid @ resid) / (n - p)
    cov = sigma2 * (ztx_inv @ ztz @ ztx_inv.T)
    se_gamma = float(np.sqrt(max(cov[1, 1], 0.0)))
    return TslsFit(
        gamma_hat=float(beta[1]),
        pi1_hat=pi1,
        se_gamma=se_gamma,
        first_stage_f=first_stage_f,
    )


def neyman_variance(treated_y: np.ndarray, control_y: np.ndarray) -> float:
    """s2_t/N_t + s2_c/N_c with N-1 divisor sample variances."""
    t = np.asarray(treated_y, dtype=np.float64)
    c = np.asarray(control_y, dtype=np.float64)
    if t.size < 2 or c.size < 2:
        raise EstimationError(
            "each arm needs at least two units for a variance estimate")
    return float(t.var(ddof=1) / t.size + c.var(ddof=1) / c.size)


def cace_ratio(itt_hat: float, pi_c_hat: float) -> float:
    """Scale an ITT effect up to compliers: itt_hat / pi_c_hat (taken
    only with pi_c_hat > 0)."""
    if not np.isfinite(itt_hat) or not np.isfinite(pi_c_hat):
        raise InputError("itt_hat and pi_c_hat must be finite")
    return itt_hat / pi_c_hat


def reference_estimate_leaf(leaf_id: int, y: np.ndarray, z: np.ndarray, w: np.ndarray,
                            regime: RegimeKind, e: np.ndarray,
                            covariates: np.ndarray | None = None) -> LeafEstimate:
    """``estimate_leaf`` as the composition of the estimators above."""
    w_arr = np.asarray(w)
    d = regime.indicator(w_arr, np.asarray(z))
    itt = leaf_weighted_itt(y, d, e)
    pi_at, pi_nt, pi_c = compliance_shares(d, w_arr)
    compliers_ok = pi_c > 0.0
    cace = cace_ratio(itt, pi_c) if compliers_ok else float("nan")
    try:
        fit = tsls_leaf(y, w_arr, d, covariates)
        cace_se, first_f = fit.se_gamma, fit.first_stage_f
    except EstimationError:
        cace_se, first_f = float("nan"), float("nan")
    arm1 = np.asarray(y, dtype=np.float64)[d == 1]
    arm0 = np.asarray(y, dtype=np.float64)[d == 0]
    try:
        nvar = neyman_variance(arm1, arm0)
    except EstimationError:
        nvar = float("nan")
    return LeafEstimate(
        leaf_id=int(leaf_id),
        n=int(d.size),
        n1=int(arm1.size),
        n0=int(arm0.size),
        itt_hat=float(itt),
        pi_at_hat=float(pi_at),
        pi_nt_hat=float(pi_nt),
        pi_c_hat=float(pi_c),
        cace_hat=float(cace),
        cace_se=float(cace_se),
        neyman_var=float(nvar),
        first_stage_f=float(first_f),
        compliers_ok=bool(compliers_ok),
    )
