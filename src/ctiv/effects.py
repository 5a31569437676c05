"""Leaf-level effect estimators for instrumented assignment.

With one-sided-or-worse compliance the assignment contrast inside a
leaf is an intention-to-treat (ITT) effect. Dividing by the estimated
complier share turns it into a complier average causal effect (CACE);
the same number also falls out of two-stage least squares with the
assignment as instrument, which additionally provides a standard error
and a first-stage strength diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AggregationError,
    EmptyArmError,
    EstimationError,
    InputError,
    NoCompliersError,
    require_binary,
)
from .transform import AssignmentRegime, leaf_weighted_itt

WEAK_F_THRESHOLD = 10.0


@dataclass(frozen=True)
class LeafEstimate:
    """Everything reported for one leaf, estimated on the fitting sample."""

    leaf_id: int
    n: int
    n1: int                  # units with assignment 1
    n0: int
    itt_hat: float
    pi_at_hat: float
    pi_nt_hat: float
    pi_c_hat: float
    cace_hat: float          # itt_hat / pi_c_hat; NaN when compliers_ok is False
    cace_se: float           # TSLS standard error; NaN when TSLS fails
    neyman_var: float        # variance of the assignment-arm mean contrast
    first_stage_f: float     # squared first-stage t-statistic of the instrument
    compliers_ok: bool

    @property
    def weak_instrument(self) -> bool:
        """True unless the first stage is comfortably strong (F >= 10)."""
        return not (self.first_stage_f >= WEAK_F_THRESHOLD)


@dataclass(frozen=True)
class TslsFit:
    """Two-stage least squares result for one leaf."""

    gamma_hat: float         # coefficient on receipt in the second stage
    pi1_hat: float           # first-stage coefficient on the instrument
    se_gamma: float
    first_stage_f: float
    covariate_adjusted: bool


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


def cace_ratio(itt_hat: float, pi_c_hat: float) -> float:
    """Scale an ITT effect up to compliers: itt_hat / pi_c_hat."""
    if not np.isfinite(itt_hat) or not np.isfinite(pi_c_hat):
        raise InputError("itt_hat and pi_c_hat must be finite")
    if pi_c_hat <= 0.0:
        raise NoCompliersError(
            f"complier share {pi_c_hat:g} is not positive; CACE unidentified")
    return itt_hat / pi_c_hat


def tsls_leaf(y: np.ndarray, w: np.ndarray, z: np.ndarray,
              covariates: np.ndarray | None = None,
              adjust_covariates: bool = False) -> TslsFit:
    """Two-stage least squares of y on w, instrumented by z.

    Both stages carry an intercept. With ``adjust_covariates`` the
    covariate columns enter both stages additively. Standard errors
    assume homoskedastic residuals. With binary z/w and no covariates
    the coefficient on w equals the ratio of the z-contrast in y to the
    z-contrast in w (the Wald estimate) up to float rounding.
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

    if adjust_covariates:
        if covariates is None:
            raise InputError("adjust_covariates=True requires covariates")
        x = np.asarray(covariates, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != n:
            raise InputError("covariates must be (N, K)")
        exog = np.hstack([np.ones((n, 1)), x])
    else:
        exog = np.ones((n, 1))
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
        covariate_adjusted=bool(adjust_covariates),
    )


def neyman_variance(treated_y: np.ndarray, control_y: np.ndarray) -> float:
    """s2_t/N_t + s2_c/N_c with N-1 divisor sample variances."""
    t = np.asarray(treated_y, dtype=np.float64)
    c = np.asarray(control_y, dtype=np.float64)
    if t.size < 2 or c.size < 2:
        raise EstimationError(
            "each arm needs at least two units for a variance estimate")
    return float(t.var(ddof=1) / t.size + c.var(ddof=1) / c.size)


def test_leaf_ate(y: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Difference of receipt-arm means plus its variance, on held-out units."""
    y = np.asarray(y, dtype=np.float64)
    w = require_binary(w, "w").astype(np.float64)
    if y.shape != w.shape or y.ndim != 1:
        raise InputError("y and w must be aligned vectors")
    treated = w == 1.0
    if not treated.any() or treated.all():
        raise EmptyArmError("both receipt arms must be nonempty")
    ate = float(y[treated].mean() - y[~treated].mean())
    return ate, neyman_variance(y[treated], y[~treated])


def estimate_leaf(leaf_id: int, y: np.ndarray, z: np.ndarray, w: np.ndarray,
                  covariates: np.ndarray, regime: AssignmentRegime,
                  e: np.ndarray, adjust_covariates: bool) -> LeafEstimate:
    """Full per-leaf report on the fitting sample.

    The headline CACE is the weighted-ITT ratio, which collapses exactly
    onto the plain leaf effect under full compliance; TSLS contributes
    the standard error and the first-stage F. A nonpositive complier
    share or a failed TSLS flags the leaf instead of raising.
    """
    w_arr = np.asarray(w)
    # the split indicator is also the instrument; for a plain causal tree
    # receipt doubles as assignment, so compliance is trivially full
    d = regime.indicator(w_arr, np.asarray(z))
    itt = leaf_weighted_itt(y, d, e)
    pi_at, pi_nt, pi_c = compliance_shares(d, w_arr)
    compliers_ok = pi_c > 0.0
    cace = cace_ratio(itt, pi_c) if compliers_ok else float("nan")
    try:
        fit = tsls_leaf(y, w_arr, d, covariates=covariates,
                        adjust_covariates=adjust_covariates)
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


def overall_cace(leaves: list[LeafEstimate]) -> float:
    """Complier-weighted average of leaf CACEs.

    Weights are the rounded complier counts pi_c * n per leaf. Leaves
    must all pass the compliers check before aggregation.
    """
    if not leaves:
        raise AggregationError("no leaves to aggregate")
    for leaf in leaves:
        if not leaf.compliers_ok:
            raise InputError(
                f"leaf {leaf.leaf_id} failed the compliers check; exclude it first")
    weights = np.array([round(leaf.pi_c_hat * leaf.n) for leaf in leaves], dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise AggregationError("zero total compliers across leaves")
    values = np.array([leaf.cace_hat for leaf in leaves])
    return float((values * weights).sum() / total)

