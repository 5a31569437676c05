"""Compliance shares, CACE, TSLS and variance estimators."""

import dataclasses

import numpy as np
import pytest

from ctiv import (
    cace_ratio,
    compliance_shares,
    design_spec,
    estimate_leaf,
    generate,
    neyman_variance,
    overall_cace,
    tsls_leaf,
)
from ctiv.effects import LeafEstimate
from ctiv.errors import (
    AggregationError,
    EmptyArmError,
    EstimationError,
    InputError,
    NoCompliersError,
)
from ctiv.transform import RegimeKind


def leaf(leaf_id=1, n=100, pi_c=0.5, cace=0.4, ok=True):
    return LeafEstimate(
        leaf_id=leaf_id, n=n, n1=n // 2, n0=n - n // 2, itt_hat=cace * pi_c,
        pi_at_hat=0.2, pi_nt_hat=0.8 - pi_c, pi_c_hat=pi_c,
        cace_hat=cace if ok else float("nan"), cace_se=0.1, neyman_var=0.01,
        first_stage_f=50.0, compliers_ok=ok)


def test_shares_mixed_leaf():
    z = np.array([1, 1, 1, 0, 0, 0])
    w = np.array([1, 1, 0, 0, 0, 1])
    pi_at, pi_nt, pi_c = compliance_shares(z, w)
    assert pi_at == pytest.approx(1 / 3, abs=1e-15)
    assert pi_nt == pytest.approx(1 / 3, abs=1e-15)
    assert pi_c == pytest.approx(1 / 3, abs=1e-15)


def test_shares_full_compliance():
    z = np.array([1, 0, 1, 0])
    pi_at, pi_nt, pi_c = compliance_shares(z, z)
    assert (pi_at, pi_nt, pi_c) == (0.0, 0.0, 1.0)


def test_shares_one_sided():
    z = np.array([1, 1, 0, 0])
    w = np.array([1, 0, 0, 0])
    pi_at, pi_nt, pi_c = compliance_shares(z, w)
    assert pi_at == 0.0 and pi_nt == 0.5 and pi_c == 0.5


def test_shares_identity_random_leaves():
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(4, 200))
        z = rng.integers(0, 2, n)
        if z.min() == z.max():
            continue
        w = rng.integers(0, 2, n)
        pi_at, pi_nt, pi_c = compliance_shares(z, w)
        assert abs(pi_at + pi_nt + pi_c - 1.0) <= 1e-12


def test_shares_need_both_arms():
    with pytest.raises(EmptyArmError):
        compliance_shares(np.ones(3), np.ones(3))


def test_cace_ratio_values():
    assert cace_ratio(0.55, 0.902) == pytest.approx(0.55 / 0.902, abs=1e-15)
    assert abs(cace_ratio(0.55, 0.902) - 0.61) < 0.005
    assert cace_ratio(0.3, 1.0) == 0.3
    assert cace_ratio(0.0, 0.5) == 0.0


def test_cace_ratio_no_compliers():
    with pytest.raises(NoCompliersError):
        cace_ratio(0.2, 0.0)
    with pytest.raises(NoCompliersError):
        cace_ratio(0.2, -0.1)


def test_tsls_full_compliance_plain_difference():
    y = np.array([2.0, 4.0, 1.0, 1.0])
    w = np.array([1, 1, 0, 0])
    fit = tsls_leaf(y, w, w)
    assert fit.gamma_hat == pytest.approx(2.0, abs=1e-12)
    assert fit.pi1_hat == pytest.approx(1.0, abs=1e-15)
    assert fit.first_stage_f == np.inf


def test_tsls_wald_identity_random_leaves():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(20, 150))
        z = rng.integers(0, 2, n)
        w = (rng.random(n) < 0.3 + 0.5 * z).astype(int)
        if z.min() == z.max():
            continue
        pi1 = w[z == 1].mean() - w[z == 0].mean()
        if abs(pi1) < 1e-12:
            continue
        y = rng.normal(size=n) + 2.0 * w
        fit = tsls_leaf(y, w, z)
        itt = y[z == 1].mean() - y[z == 0].mean()
        assert abs(fit.gamma_hat - itt / pi1) < 1e-10
        assert abs(fit.pi1_hat - pi1) < 1e-10


def test_tsls_recovers_known_effect_with_se():
    # oracle: the generator's true average effect over one big leaf
    sample = generate(design_spec(2, 4000, seed=12))
    ds = sample.dataset
    fit = tsls_leaf(ds.y, ds.w, ds.z)
    truth = sample.true_cate.mean()
    assert abs(fit.gamma_hat - truth) < 3 * fit.se_gamma
    assert fit.first_stage_f > 100.0


def test_tsls_covariate_adjusted_runs():
    sample = generate(design_spec(2, 3000, seed=13))
    ds = sample.dataset
    fit = tsls_leaf(ds.y, ds.w, ds.z, covariates=ds.covariates)
    assert abs(fit.gamma_hat - sample.true_cate.mean()) < 4 * fit.se_gamma
    # adjusting for the additive baseline shrinks residual noise
    plain = tsls_leaf(ds.y, ds.w, ds.z)
    assert fit.se_gamma < plain.se_gamma


def test_tsls_rank_deficient_errors():
    rng = np.random.default_rng(9)
    n = 50
    z = rng.integers(0, 2, n)
    w = (rng.random(n) < 0.2 + 0.6 * z).astype(int)
    x = np.ones((n, 1))  # collinear with the intercept
    with pytest.raises(EstimationError):
        tsls_leaf(rng.normal(size=n), w, z, covariates=x)


def test_tsls_no_first_stage_errors():
    n = 40
    z = np.array([0, 1] * 20)
    w = np.array([0, 0, 1, 1] * 10)  # receipt independent of assignment
    assert w[z == 1].mean() == w[z == 0].mean()
    with pytest.raises(EstimationError):
        tsls_leaf(np.random.default_rng(1).normal(size=n), w, z)


def test_neyman_known_value():
    assert neyman_variance(np.array([0.0, 2.0]), np.array([0.0, 0.0, 0.0, 4.0])) \
        == pytest.approx(2.0, abs=1e-15)


def test_neyman_given_moments():
    # s2_t=1, N_t=4 and s2_c=2, N_c=8 -> 0.25 + 0.25
    t = np.array([0.0, 0.0, 1.0, 3.0])       # hand-tuned: var (ddof 1) = 2
    assert np.var(t, ddof=1) == pytest.approx(2.0)
    c = np.zeros(8)
    c[:2] = [2.0, 2.0]
    target = 2.0 / 4 + np.var(c, ddof=1) / 8
    assert neyman_variance(t, c) == pytest.approx(target, abs=1e-15)


def test_neyman_constant_arms_zero():
    assert neyman_variance(np.full(5, 3.0), np.full(4, 1.0)) == 0.0


def test_neyman_needs_two_per_arm():
    with pytest.raises(EstimationError):
        neyman_variance(np.array([1.0]), np.array([1.0, 2.0]))


def test_neyman_variance_calibrated():
    # the variance should track the sampling variance of the arm contrast
    rng = np.random.default_rng(14)
    reps, n = 5000, 60
    estimates = np.empty(reps)
    reported = np.empty(reps)
    for r in range(reps):
        w = rng.integers(0, 2, n)
        if w.min() == w.max():
            w[:2] = [0, 1]
        y = rng.normal(size=n) + 0.8 * w
        treated, control = y[w == 1], y[w == 0]
        estimates[r] = treated.mean() - control.mean()
        reported[r] = neyman_variance(treated, control)
    empirical = estimates.var(ddof=1)
    assert abs(reported.mean() - empirical) / empirical < 0.15


def test_overall_cace_weighted():
    leaves = [leaf(leaf_id=2, n=100, pi_c=0.3, cace=0.2),
              leaf(leaf_id=3, n=50, pi_c=0.2, cace=0.4)]
    assert overall_cace(leaves) == pytest.approx((0.2 * 30 + 0.4 * 10) / 40, abs=1e-15)


def test_overall_cace_single_leaf():
    assert overall_cace([leaf(cace=0.7)]) == pytest.approx(0.7, abs=1e-15)


def test_overall_cace_brackets_leaf_values():
    rng = np.random.default_rng(15)
    for _ in range(50):
        leaves = [leaf(leaf_id=i + 2, n=int(rng.integers(20, 200)),
                       pi_c=float(rng.uniform(0.1, 0.9)),
                       cace=float(rng.normal())) for i in range(4)]
        total = overall_cace(leaves)
        values = [le.cace_hat for le in leaves]
        assert min(values) - 1e-12 <= total <= max(values) + 1e-12


def test_overall_cace_rejects_flagged_leaf():
    with pytest.raises(InputError):
        overall_cace([leaf(), leaf(leaf_id=3, ok=False)])


def test_overall_cace_zero_compliers():
    with pytest.raises(AggregationError):
        overall_cace([leaf(n=10, pi_c=0.01)])  # rounds to zero compliers


def test_itt_below_cace_with_partial_compliance():
    rng = np.random.default_rng(16)
    for _ in range(30):
        itt = float(rng.uniform(0.05, 2.0))
        pi_c = float(rng.uniform(0.05, 0.95))
        assert cace_ratio(itt, pi_c) >= itt


def test_estimate_leaf_full_report():
    sample = generate(design_spec(2, 2000, seed=17))
    ds = sample.dataset
    p = float(ds.z.mean())
    regime = RegimeKind.IV_RANDOMIZED
    est = estimate_leaf(4, ds.y, ds.z, ds.w, regime, np.full(ds.n_units, p))
    assert est.leaf_id == 4
    assert est.n == 2000 and est.n1 + est.n0 == 2000
    assert est.compliers_ok
    assert est.cace_hat == pytest.approx(est.itt_hat / est.pi_c_hat, abs=1e-12)
    assert abs(est.pi_at_hat + est.pi_nt_hat + est.pi_c_hat - 1.0) <= 1e-12
    assert est.first_stage_f > 10
    assert est.neyman_var > 0
    # under a constant propensity the ratio and TSLS agree exactly
    fit = tsls_leaf(ds.y, ds.w, ds.z)
    assert est.cace_hat == pytest.approx(fit.gamma_hat, abs=1e-10)
    assert (est.cace_se, est.first_stage_f) == (fit.se_gamma, fit.first_stage_f)
    # given covariates, only the TSLS fields change: they are the adjusted fit's
    adjusted = estimate_leaf(4, ds.y, ds.z, ds.w, regime, np.full(ds.n_units, p),
                             ds.covariates)
    fit = tsls_leaf(ds.y, ds.w, ds.z, ds.covariates)
    assert (adjusted.cace_se, adjusted.first_stage_f) == (fit.se_gamma,
                                                          fit.first_stage_f)
    assert adjusted.cace_se != est.cace_se
    assert adjusted == dataclasses.replace(est, cace_se=fit.se_gamma,
                                           first_stage_f=fit.first_stage_f)


def test_weak_instrument_flag():
    assert dataclasses.replace(leaf(), first_stage_f=9.9).weak_instrument
    assert not dataclasses.replace(leaf(), first_stage_f=10.0).weak_instrument
    assert dataclasses.replace(leaf(), first_stage_f=float("nan")).weak_instrument


def test_estimate_leaf_flags_no_compliers():
    rng = np.random.default_rng(18)
    n = 100
    z = rng.integers(0, 2, n)
    w = 1 - z  # perfect defiance: pi_c = -1
    y = rng.normal(size=n)
    regime = RegimeKind.IV_RANDOMIZED
    est = estimate_leaf(2, y, z, w, regime, np.full(n, 0.5))
    assert not est.compliers_ok
    assert np.isnan(est.cace_hat)
    assert np.isfinite(est.itt_hat)
