"""Leaf-level effect estimates for instrumented assignment.

With one-sided-or-worse compliance the assignment contrast inside a
leaf is an intention-to-treat (ITT) effect. Dividing by the estimated
complier share turns it into a complier average causal effect (CACE);
the same number also falls out of two-stage least squares with the
assignment as instrument, which additionally provides a standard error
and a first-stage strength diagnostic. ``estimate_leaf`` computes every
reported field in one place: the complier share from raw receipt means,
the standard error and first-stage F from a homoskedastic TSLS, and
``neyman_var`` from raw arm variances (ROADMAP item 1 replaces these
formulas with one weighted Wald estimator).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, InputError, require_binary
from .transform import RegimeKind, leaf_weighted_itt

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


def estimate_leaf(leaf_id: int, y: np.ndarray, z: np.ndarray, w: np.ndarray,
                  regime: RegimeKind, e: np.ndarray,
                  covariates: np.ndarray | None = None) -> LeafEstimate:
    """Full per-leaf report on the fitting sample.

    The headline CACE is the weighted ITT over the complier share, which
    collapses exactly onto the plain leaf effect under full compliance.
    The shares are raw receipt means per arm of the split indicator,
    ``neyman_var`` sums the raw arm variances over arm sizes, and
    ``cace_se`` and ``first_stage_f`` come from a homoskedastic TSLS,
    adjusted for ``covariates`` if given (``fit_ctiv`` gives them exactly
    under iv-unconfounded). ROADMAP item 1 replaces these formulas. A
    nonpositive complier share, a failed TSLS or an arm with fewer than
    two units flags its fields with NaN instead of raising.
    """
    w_arr = np.asarray(w)
    # the split indicator is also the instrument; for a plain causal tree
    # receipt doubles as assignment, so compliance is trivially full
    d = regime.indicator(w_arr, np.asarray(z))
    y = np.asarray(y, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    itt = leaf_weighted_itt(y, d, e)     # checks d, e and that both arms are nonempty
    w = require_binary(w_arr, "w").astype(np.float64)
    if w.shape != d.shape or d.ndim != 1:
        raise InputError("z and w must be aligned vectors")
    assigned = d == 1.0
    m1 = float(w[assigned].mean())
    m0 = float(w[~assigned].mean())
    pi_c = m1 - m0
    compliers_ok = pi_c > 0.0
    if compliers_ok and not np.isfinite(itt):
        raise InputError("itt_hat and pi_c_hat must be finite")
    x = None
    if covariates is not None:
        x = np.asarray(covariates, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != d.size:
            raise InputError("covariates must be (N, K)")
    cace_se, first_f = _tsls_se_and_f(y, w, d, x)
    arm1, arm0 = y[assigned], y[~assigned]
    nvar = float("nan")
    if arm1.size >= 2 and arm0.size >= 2:
        nvar = float(arm1.var(ddof=1) / arm1.size + arm0.var(ddof=1) / arm0.size)
    return LeafEstimate(
        leaf_id=int(leaf_id),
        n=int(d.size),
        n1=int(arm1.size),
        n0=int(arm0.size),
        itt_hat=float(itt),
        pi_at_hat=m0,
        pi_nt_hat=1.0 - m1,
        pi_c_hat=pi_c,
        cace_hat=itt / pi_c if compliers_ok else float("nan"),
        cace_se=cace_se,
        neyman_var=nvar,
        first_stage_f=first_f,
        compliers_ok=compliers_ok,
    )


def _tsls_se_and_f(y: np.ndarray, w: np.ndarray, z: np.ndarray,
                   x: np.ndarray | None) -> tuple[float, float]:
    """Homoskedastic two-stage least squares of y on [1, w, X], with
    [1, z, X] as instruments: the standard error of the coefficient on w
    and the squared first-stage t-statistic of z. Both are NaN when the
    leaf cannot identify them (too few units, a rank-deficient or
    singular design, or no first-stage effect)."""
    n = y.shape[0]
    rest = [] if x is None else [x]
    inst = np.hstack([np.ones((n, 1)), z[:, None], *rest])
    design = np.hstack([np.ones((n, 1)), w[:, None], *rest])
    p = inst.shape[1]
    failed = (float("nan"), float("nan"))
    if n <= p:
        return failed

    # first stage: w on [1, z, X]
    ztz = inst.T @ inst
    try:
        ztz_inv = np.linalg.inv(ztz)
    except np.linalg.LinAlgError:
        return failed
    if np.linalg.matrix_rank(inst) < p:
        return failed
    pi = ztz_inv @ (inst.T @ w)
    pi1 = float(pi[1])
    if pi1 == 0.0:
        return failed
    fs_resid = w - inst @ pi
    fs_sigma2 = float(fs_resid @ fs_resid) / (n - p)
    var_pi1 = fs_sigma2 * ztz_inv[1, 1]
    with np.errstate(divide="ignore"):
        first_stage_f = float(pi1 ** 2 / var_pi1) if var_pi1 > 0 else np.inf

    # just-identified IV: solve (Z'X) beta = Z'y
    ztx = inst.T @ design
    try:
        ztx_inv = np.linalg.inv(ztx)
    except np.linalg.LinAlgError:
        return failed
    beta = ztx_inv @ (inst.T @ y)
    resid = y - design @ beta
    sigma2 = float(resid @ resid) / (n - p)
    cov = sigma2 * (ztx_inv @ ztz @ ztx_inv.T)
    return float(np.sqrt(max(cov[1, 1], 0.0))), first_stage_f


def overall_cace(leaves: Iterable[LeafEstimate]) -> float:
    """Complier-weighted average of the CACEs of the leaves that pass the
    compliers check; a leaf that fails it, whose CACE is NaN, is left out.

    Weights are the rounded complier counts pi_c * n per leaf. Its only
    error is EstimationError when nothing is left to aggregate: no leaf
    passes the check, or none has a complier once rounded.
    """
    leaves = [leaf for leaf in leaves if leaf.compliers_ok]
    if not leaves:
        raise EstimationError("no leaves to aggregate")
    weights = np.array([round(leaf.pi_c_hat * leaf.n) for leaf in leaves], dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise EstimationError("zero total compliers across leaves")
    values = np.array([leaf.cace_hat for leaf in leaves])
    return float((values * weights).sum() / total)

