"""Compliance shares, CACE, TSLS and variance fields of ``estimate_leaf``,
checked against the estimators it was built from (``leaf_reference``)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ctiv
import ctiv.effects
import ctiv.errors
import ctiv.transform
from ctiv import design_spec, estimate_leaf, generate, overall_cace
from ctiv.effects import LeafEstimate
from ctiv.errors import (
    AggregationError,
    DomainError,
    EmptyArmError,
    InputError,
    ValidationError,
)
from ctiv.transform import RegimeKind
from leaf_reference import reference_estimate_leaf, tsls_leaf

RANDOMIZED = RegimeKind.IV_RANDOMIZED


def leaf(leaf_id=1, n=100, pi_c=0.5, cace=0.4, ok=True):
    return LeafEstimate(
        leaf_id=leaf_id, n=n, n1=n // 2, n0=n - n // 2, itt_hat=cace * pi_c,
        pi_at_hat=0.2, pi_nt_hat=0.8 - pi_c, pi_c_hat=pi_c,
        cace_hat=cace if ok else float("nan"), cace_se=0.1, neyman_var=0.01,
        first_stage_f=50.0, compliers_ok=ok)


def estimate(z, w, y=None, covariates=None):
    """``estimate_leaf`` on one leaf assigned by a fair coin."""
    z = np.asarray(z)
    y = np.zeros(z.size) if y is None else y
    return estimate_leaf(1, y, z, w, RANDOMIZED, np.full(z.size, 0.5), covariates)


def arms(treated_y, control_y):
    """``estimate`` on a fully compliant leaf with these arm outcomes."""
    t = np.asarray(treated_y, dtype=np.float64)
    c = np.asarray(control_y, dtype=np.float64)
    z = np.r_[np.ones(t.size, dtype=int), np.zeros(c.size, dtype=int)]
    return estimate(z, z, np.r_[t, c])


def test_shares_mixed_leaf():
    z = np.array([1, 1, 1, 0, 0, 0])
    w = np.array([1, 1, 0, 0, 0, 1])
    est = estimate(z, w)
    assert est.pi_at_hat == pytest.approx(1 / 3, abs=1e-15)
    assert est.pi_nt_hat == pytest.approx(1 / 3, abs=1e-15)
    assert est.pi_c_hat == pytest.approx(1 / 3, abs=1e-15)


def test_shares_full_compliance():
    z = np.array([1, 0, 1, 0])
    est = estimate(z, z)
    assert (est.pi_at_hat, est.pi_nt_hat, est.pi_c_hat) == (0.0, 0.0, 1.0)


def test_shares_one_sided():
    z = np.array([1, 1, 0, 0])
    w = np.array([1, 0, 0, 0])
    est = estimate(z, w)
    assert est.pi_at_hat == 0.0 and est.pi_nt_hat == 0.5 and est.pi_c_hat == 0.5


def test_shares_identity_random_leaves():
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(4, 200))
        z = rng.integers(0, 2, n)
        if z.min() == z.max():
            continue
        w = rng.integers(0, 2, n)
        est = estimate(z, w)
        assert abs(est.pi_at_hat + est.pi_nt_hat + est.pi_c_hat - 1.0) <= 1e-12


def test_shares_need_both_arms():
    with pytest.raises(EmptyArmError):
        estimate(np.ones(3), np.ones(3))


def test_cace_ratio_values():
    # 451 of 500 assigned units take it up and no unassigned one: pi_c 0.902
    z = np.r_[np.ones(500, dtype=int), np.zeros(500, dtype=int)]
    w = np.r_[np.ones(451, dtype=int), np.zeros(549, dtype=int)]
    est = estimate(z, w, 0.55 * z)
    assert est.pi_c_hat == 0.902 and est.itt_hat == pytest.approx(0.55, abs=1e-12)
    assert est.cace_hat == pytest.approx(est.itt_hat / 0.902, abs=1e-15)
    assert abs(est.cace_hat - 0.61) < 0.005
    est = estimate(z, z, 0.3 * z)
    assert est.pi_c_hat == 1.0 and est.itt_hat == pytest.approx(0.3, abs=1e-12)
    assert est.cace_hat == est.itt_hat
    est = estimate(z, np.r_[np.ones(250, dtype=int), np.zeros(750, dtype=int)])
    assert est.pi_c_hat == 0.5 and est.itt_hat == 0.0
    assert est.cace_hat == 0.0


def test_cace_ratio_no_compliers():
    # a nonpositive complier share flags the leaf: no CACE, no error
    z = np.r_[np.ones(10, dtype=int), np.zeros(10, dtype=int)]
    for w, pi_c in [(np.tile([1, 0], 10), 0.0),
                    (np.r_[np.ones(2), np.zeros(8), np.ones(3), np.zeros(7)], -0.1)]:
        est = estimate(z, w.astype(int), np.arange(20.0))
        assert est.pi_c_hat == pytest.approx(pi_c, abs=1e-15)
        assert not est.compliers_ok and np.isnan(est.cace_hat)


def test_tsls_full_compliance_plain_difference():
    y = np.array([2.0, 4.0, 1.0, 1.0])
    w = np.array([1, 1, 0, 0])
    est = estimate(w, w, y)
    assert est.cace_hat == pytest.approx(2.0, abs=1e-12)
    assert est.pi_c_hat == pytest.approx(1.0, abs=1e-15)
    assert est.first_stage_f == np.inf


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
        est = estimate(z, w, y)
        itt = y[z == 1].mean() - y[z == 0].mean()
        assert abs(est.cace_hat - itt / pi1) < 1e-10
        assert abs(est.pi_c_hat - pi1) < 1e-10
        # the reference TSLS coefficient is the same Wald ratio
        assert abs(tsls_leaf(y, w, z).gamma_hat - itt / pi1) < 1e-10


def test_tsls_recovers_known_effect_with_se():
    # oracle: the generator's true average effect over one big leaf
    sample = generate(design_spec(2, 4000, seed=12))
    ds = sample.dataset
    est = estimate(ds.z, ds.w, ds.y)
    truth = sample.true_cate.mean()
    assert abs(est.cace_hat - truth) < 3 * est.cace_se
    assert est.first_stage_f > 100.0


def test_tsls_covariate_adjusted_runs():
    sample = generate(design_spec(2, 3000, seed=13))
    ds = sample.dataset
    adjusted = estimate(ds.z, ds.w, ds.y, covariates=ds.covariates)
    gamma = tsls_leaf(ds.y, ds.w, ds.z, covariates=ds.covariates).gamma_hat
    assert abs(gamma - sample.true_cate.mean()) < 4 * adjusted.cace_se
    # adjusting for the additive baseline shrinks residual noise
    plain = estimate(ds.z, ds.w, ds.y)
    assert adjusted.cace_se < plain.cace_se


def test_tsls_rank_deficient_errors():
    rng = np.random.default_rng(9)
    n = 50
    z = rng.integers(0, 2, n)
    w = (rng.random(n) < 0.2 + 0.6 * z).astype(int)
    x = np.ones((n, 1))  # collinear with the intercept
    est = estimate(z, w, rng.normal(size=n), covariates=x)
    assert np.isnan(est.cace_se) and np.isnan(est.first_stage_f)
    assert est.compliers_ok and np.isfinite(est.cace_hat)


def test_tsls_no_first_stage_errors():
    n = 40
    z = np.array([0, 1] * 20)
    w = np.array([0, 0, 1, 1] * 10)  # receipt independent of assignment
    assert w[z == 1].mean() == w[z == 0].mean()
    est = estimate(z, w, np.random.default_rng(1).normal(size=n))
    assert np.isnan(est.cace_se) and np.isnan(est.first_stage_f)


def test_neyman_known_value():
    assert arms([0.0, 2.0], [0.0, 0.0, 0.0, 4.0]).neyman_var \
        == pytest.approx(2.0, abs=1e-15)


def test_neyman_given_moments():
    # s2_t=1, N_t=4 and s2_c=2, N_c=8 -> 0.25 + 0.25
    t = np.array([0.0, 0.0, 1.0, 3.0])       # hand-tuned: var (ddof 1) = 2
    assert np.var(t, ddof=1) == pytest.approx(2.0)
    c = np.zeros(8)
    c[:2] = [2.0, 2.0]
    target = 2.0 / 4 + np.var(c, ddof=1) / 8
    assert arms(t, c).neyman_var == pytest.approx(target, abs=1e-15)


def test_neyman_constant_arms_zero():
    assert arms(np.full(5, 3.0), np.full(4, 1.0)).neyman_var == 0.0


def test_neyman_needs_two_per_arm():
    est = arms([1.0], [1.0, 2.0])
    assert est.n1 == 1 and np.isnan(est.neyman_var)


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
        reported[r] = estimate(w, w, y).neyman_var
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
    checked = 0
    while checked < 30:
        n = int(rng.integers(40, 200))
        z = rng.integers(0, 2, n)
        w = (rng.random(n) < rng.uniform(0.0, 0.3) + rng.uniform(0.05, 0.7) * z).astype(int)
        y = rng.normal(size=n) + rng.uniform(0.05, 2.0) * w
        if z.min() == z.max():
            continue
        est = estimate(z, w, y)
        if not (est.itt_hat > 0.0 and 0.0 < est.pi_c_hat < 1.0):
            continue
        assert est.cace_hat >= est.itt_hat
        checked += 1


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


def outcome(estimator, *args):
    """An estimate's repr, which spells every float exactly (-0.0 and nan
    included), or the class and message of the error it raised."""
    try:
        return repr(estimator(*args))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


@st.composite
def leaves(draw):
    """A leaf under a random regime: from 2 units up, so TSLS can have no
    more units than parameters and an arm can hold one unit; the receipt
    is random, so the complier share can be zero or negative."""
    n = draw(st.integers(2, 40))
    binary = hnp.arrays(np.int8, n, elements=st.integers(0, 1))
    z, w = draw(binary), draw(binary)
    z[:2], w[:2] = (1, 0), (1, 0)      # both arms nonempty in every regime
    y = draw(hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    k = draw(st.sampled_from([None, 1, 3]))
    x = None if k is None else draw(
        hnp.arrays(np.float64, (n, k), elements=st.floats(-10, 10)))
    if draw(st.booleans()):
        e = np.full(n, draw(st.floats(0.05, 0.95)))
    else:
        e = draw(hnp.arrays(np.float64, n, elements=st.floats(0.05, 0.95)))
    return draw(st.sampled_from(list(RegimeKind))), y, z, w, e, x


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(leaves())
@example((RANDOMIZED, np.array([3.0, 1.0]), np.array([1, 0]), np.array([1, 0]),
          np.full(2, 0.5), None))
@example((RegimeKind.IV_UNCONFOUNDED, np.arange(4.0), np.array([1, 0, 1, 0]),
          np.array([1, 0, 1, 0]), np.full(4, 0.5), np.ones((4, 1))))
def test_estimate_leaf_matches_the_reference_bit_for_bit(case):
    regime, y, z, w, e, x = case
    assert outcome(estimate_leaf, 5, y, z, w, regime, e, x) \
        == outcome(reference_estimate_leaf, 5, y, z, w, regime, e, x)


def _bad_inputs():
    z = np.array([1, 0, 1, 0, 1, 0])
    w = np.array([1, 0, 0, 0, 1, 1])
    y = np.arange(6.0)
    e = np.full(6, 0.5)
    x = np.arange(12.0).reshape(6, 2)
    nan_y = np.r_[np.nan, y[1:]]
    iv, ct = RANDOMIZED, RegimeKind.CT
    return [
        # leaf_weighted_itt's checks come first
        (InputError, (y[:5], z, w, iv, e, x)),
        (ValidationError, (y, z + 1, w, iv, e, x)),
        (ValidationError, (y, z, w + 1, ct, e, None)),
        (DomainError, (y, z, w, iv, e + 0.5, x)),
        (EmptyArmError, (y, np.ones(6, dtype=int), w, iv, e, x)),
        # then receipt: non-binary before misaligned
        (ValidationError, (y, z, w + 1, iv, e, x)),
        (ValidationError, (y, z, np.r_[w, 2], iv, e, x)),
        (InputError, (y, z, np.r_[w, 1], iv, e, x)),
        (InputError, (y[:, None], z[:, None], w, iv, e[:, None], x)),
        # then a non-finite ITT with compliers, before malformed covariates
        (InputError, (nan_y, z, w, iv, e, x[:, 0])),
        (InputError, (y, z, w, iv, e, x[:, 0])),
        (InputError, (y, z, w, iv, e, x[:5])),
        # without compliers a NaN outcome is no error
        (None, (nan_y, z, 1 - z, iv, e, x)),
    ]


@pytest.mark.parametrize("error, args", _bad_inputs())
def test_estimate_leaf_keeps_the_reference_errors_in_order(error, args):
    got = outcome(estimate_leaf, 1, *args)
    assert got == outcome(reference_estimate_leaf, 1, *args)
    assert (got[0] if isinstance(got, tuple) else None) is error


def test_estimate_leaf_checks_each_array_once(monkeypatch):
    # receipt here, the indicator in leaf_weighted_itt, and nothing twice
    seen = []
    for module in (ctiv.effects, ctiv.transform):
        real = module.require_binary
        monkeypatch.setattr(module, "require_binary",
                            lambda arr, name, real=real: seen.append(name) or real(arr, name))
    z = np.array([1, 0, 1, 0, 1, 0])
    estimate(z, np.array([1, 0, 0, 0, 1, 1]), np.arange(6.0), np.ones((6, 1)))
    assert sorted(seen) == ["d", "w"]


def test_the_leaf_estimators_left_the_package():
    for name in ("tsls_leaf", "TslsFit", "compliance_shares", "cace_ratio",
                 "neyman_variance"):
        assert not hasattr(ctiv, name) and not hasattr(ctiv.effects, name)
        assert name not in ctiv.__all__
    assert not hasattr(ctiv.errors, "NoCompliersError")
