"""Synthetic designs: calibration, composition and scenario pairing."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from ctiv import DesignSpec, design_spec, generate
from ctiv.bench import DESIGN_LABELS, _cell_seed
from ctiv.errors import InputError
from ctiv.synth import (
    CALIBRATION_CHECK_MIN_N,
    CORRELATION_TOLERANCE,
    COVARIATE_VARIANCE,
    DEFAULT_COR_WETA,
    DEFAULT_COR_WZ,
    DIRECT_EFFECT_COEF,
    latent_receipt_coefficients,
)
from datasets import same_dataset


def by_norm(cor_wz, cor_weta):
    """(a, b, c, t) from ``scipy.stats.norm``, or None where b >= 1."""
    q = float(norm.ppf(0.5 + cor_wz / 2.0))
    b = cor_weta / (2.0 * float(norm.pdf(q)))
    return (2.0 * q, b, math.sqrt(1.0 - b * b), q) if b < 1.0 else None


def replay(design_id, n, seed, scenario=None, cor_wz=DEFAULT_COR_WZ,
           cor_weta=DEFAULT_COR_WETA, coefficients=latent_receipt_coefficients):
    """Independent replay of the documented draw order and formulas."""
    k = 1 if design_id == 1 else 10
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, math.sqrt(COVARIATE_VARIANCE), size=(n, k))
    z = (rng.random(n) < 0.5).astype(np.int8)
    eta = rng.standard_normal(n)
    u = rng.standard_normal(n)
    if design_id == 3:
        eps = rng.exponential(scale=0.1, size=n) - 0.1
    elif design_id == 4:
        eps = rng.random(n) - 0.5
    else:
        eps = rng.standard_normal(n)
    a, b, c, t = coefficients(cor_wz, cor_weta)
    w = (a * z + b * eta + c * u > t).astype(np.int8)
    f = x[:, 0] if design_id == 1 else x.sum(axis=1)
    if design_id == 1:
        g = x[:, 0]
    elif design_id == 5:
        g = x[:, 8] * x[:, 9]
    else:
        g = x[:, 8] + x[:, 9]
    base = 1.0 + f + eta + eps
    if scenario == 2:
        base = base + DIRECT_EFFECT_COEF * z * (x[:, 9] >= 0.0)
    tc = 1.0 + g
    y = np.where(w == 1, base + tc, base)
    return x, z, w, y, tc


@pytest.mark.parametrize("design_id", [1, 2, 3, 4, 5])
def test_generate_matches_replay_bitwise(design_id):
    sample = generate(design_spec(design_id, 800, seed=41))
    x, z, w, y, tc = replay(design_id, 800, 41)
    ds = sample.dataset
    assert np.array_equal(ds.covariates, x)
    assert np.array_equal(ds.z, z)
    assert np.array_equal(ds.w, w)
    assert np.array_equal(ds.y, y)
    assert np.array_equal(sample.true_cate, tc)


@pytest.mark.parametrize("design_id", [1, 2, 3, 4, 5])
def test_calibration_window(design_id):
    sample = generate(design_spec(design_id, 20_000, seed=42))
    assert abs(sample.realized_cor_wz - DEFAULT_COR_WZ) <= CORRELATION_TOLERANCE
    assert abs(sample.realized_cor_weta - DEFAULT_COR_WETA) <= CORRELATION_TOLERANCE


def test_weak_instrument_scenario_calibration():
    weak = generate(design_spec(2, 20_000, seed=43, scenario=1))
    assert abs(weak.realized_cor_wz - 0.5) <= CORRELATION_TOLERANCE
    strong = generate(design_spec(2, 20_000, seed=43))
    assert weak.realized_cor_wz < strong.realized_cor_wz


def test_marginal_moments():
    sample = generate(design_spec(2, 20_000, seed=44))
    ds = sample.dataset
    assert abs(ds.z.mean() - 0.5) < 0.02
    assert abs(ds.w.mean() - 0.5) < 0.02  # threshold chosen for a balanced receipt
    assert np.allclose(ds.covariates.var(axis=0), COVARIATE_VARIANCE, rtol=0.1)
    assert np.all(np.isfinite(ds.y))


def test_true_cate_forms():
    s1 = generate(design_spec(1, 300, seed=45))
    assert np.array_equal(s1.true_cate, 1.0 + s1.dataset.covariates[:, 0])
    s2 = generate(design_spec(2, 300, seed=45))
    x = s2.dataset.covariates
    assert np.array_equal(s2.true_cate, 1.0 + (x[:, 8] + x[:, 9]))
    s5 = generate(design_spec(5, 300, seed=45))
    x = s5.dataset.covariates
    assert np.array_equal(s5.true_cate, 1.0 + x[:, 8] * x[:, 9])


def test_potential_outcomes_consistent():
    sample = generate(design_spec(3, 2000, seed=46))
    ds = sample.dataset
    picked = np.where(ds.w == 1, sample.y_if_treated, sample.y_if_untreated)
    assert np.array_equal(ds.y, picked)
    gap = sample.y_if_treated - sample.y_if_untreated
    assert np.allclose(gap, sample.true_cate, atol=1e-12, rtol=0.0)


def test_reproducible_and_seed_sensitive():
    a = generate(design_spec(4, 500, seed=47))
    b = generate(design_spec(4, 500, seed=47))
    assert same_dataset(a.dataset, b.dataset)
    assert np.array_equal(a.true_cate, b.true_cate)
    c = generate(design_spec(4, 500, seed=48))
    assert not np.array_equal(a.dataset.y, c.dataset.y)


def test_scenario2_paired_with_design2():
    plain = generate(design_spec(2, 3000, seed=49))
    twisted = generate(design_spec(2, 3000, seed=49, scenario=2))
    x = plain.dataset.covariates
    assert np.array_equal(twisted.dataset.covariates, x)
    assert np.array_equal(twisted.dataset.z, plain.dataset.z)
    assert np.array_equal(twisted.dataset.w, plain.dataset.w)
    assert np.array_equal(twisted.true_cate, plain.true_cate)
    untouched = x[:, 9] < 0.0
    assert np.array_equal(twisted.dataset.y[untouched],
                          plain.dataset.y[untouched])
    bumped = (x[:, 9] >= 0.0) & (plain.dataset.z == 1)
    assert bumped.any()
    diff = twisted.dataset.y[bumped] - plain.dataset.y[bumped]
    assert np.allclose(diff, DIRECT_EFFECT_COEF, atol=1e-12)


def test_scenario_one_weakens_the_instrument_unless_told_otherwise():
    assert design_spec(2, 10, 0).target_cor_wz == 0.65
    assert design_spec(2, 10, 0, scenario=1).target_cor_wz == 0.5
    assert design_spec(2, 10, 0, scenario=2).target_cor_wz == 0.65
    explicit = design_spec(2, 10, 0, target_cor_wz=0.6, scenario=1)
    assert explicit.target_cor_wz == 0.6
    assert explicit.target_cor_weta == 0.5


def test_coefficients_hit_targets_analytically():
    a, b, c, t = latent_receipt_coefficients(0.65, 0.50)
    assert a == pytest.approx(2 * t, abs=1e-15)
    assert b * b + c * c == pytest.approx(1.0, abs=1e-12)
    # a huge sample realizes the targets well inside the tolerance
    sample = generate(design_spec(2, 200_000, seed=50))
    assert abs(sample.realized_cor_wz - 0.65) < 0.01
    assert abs(sample.realized_cor_weta - 0.50) < 0.01


def test_coefficients_agree_with_scipy_stats_norm():
    # the defaults, scenario 1's, then targets near either end of (0, 1)
    named = [(DEFAULT_COR_WZ, DEFAULT_COR_WETA), (0.5, 0.5), (1e-9, 1e-9),
             (1e-9, 0.79), (0.999, 1e-9), (0.999, 0.0035)]
    grid = [(float(wz), float(weta)) for wz in np.linspace(0.005, 0.995, 199)
            for weta in np.linspace(0.005, 0.795, 80)]
    want = {pair: by_norm(*pair) for pair in named + grid}
    assert sum(v is not None for v in want.values()) > 5000
    for pair, coefs in want.items():
        if coefs is None:
            with pytest.raises(InputError, match="infeasible"):
                latent_receipt_coefficients(*pair)
            continue
        got = latent_receipt_coefficients(*pair)
        assert all(type(v) is float for v in got)
        assert np.allclose(got, coefs, rtol=1e-12, atol=0.0), pair


# (design, n, seed, scenario) of every sample behind a pinned digest:
# tests/test_golden.py's sample.csv, CI's 60,000-row sample.csv, perfbench
# cli-roundtrip's at seed 0 and fit-deep's pool of 12 at seed 0, then the
# cells of the golden bench grid (CI's sweep is two of them) and of
# perfbench bench-sweep's default grid at base seed 0
PINNED_DRAWS = [(2, 3000, 0, None), (2, 60_000, 0, None)]
PINNED_DRAWS += [(2, 50_000, seed, None) for seed in range(12)]
PINNED_DRAWS += [
    (DESIGN_LABELS[label][0], 2 * n, _cell_seed(0, label, n, rep), DESIGN_LABELS[label][1])
    for labels, sizes, reps in ((tuple(DESIGN_LABELS), (300, 600), 2),
                                (("1", "2", "3", "4", "5"), (500, 1000, 5000), 10))
    for label in labels for n in sizes for rep in range(reps)]
# (design, n, seed, scenario, cor_wz, cor_weta) with overridden targets
OVERRIDDEN_DRAWS = [(1, 2000, 8, None, 0.9, 0.15), (2, 4000, 7, None, 0.5, 0.3),
                    (3, 20_000, 10, None, 0.8, 0.25), (4, 999, 9, None, 0.2, 0.15),
                    (5, 7000, 11, None, 0.3, 0.45), (2, 5000, 12, 1, 0.4, 0.35),
                    (2, 12_000, 13, 2, 0.6, 0.2)]


def test_receipt_is_the_one_drawn_with_scipy_stats_norm_coefficients():
    # the coefficients reach a sample only through W = 1{aZ + b*eta + cU > t}:
    # where W is the one scipy's quantile and density draw, no pinned byte moves
    assert len(PINNED_DRAWS) == 2 + 12 + 28 + 150
    for design, n, seed, scenario, *targets in PINNED_DRAWS + OVERRIDDEN_DRAWS:
        spec = design_spec(design, n, seed, *targets, scenario=scenario)
        _, _, w, _, _ = replay(design, n, seed, scenario, spec.target_cor_wz,
                               spec.target_cor_weta, coefficients=by_norm)
        assert np.array_equal(generate(spec).dataset.w, w), spec


def test_cor_wz_too_close_to_one_raises():
    # 0.5 + cor_wz / 2 rounds to 1.0, where the quantile is infinite
    assert 0.5 + 0.9999999999999999 / 2.0 == 1.0
    with pytest.raises(InputError, match="too close to 1"):
        latent_receipt_coefficients(0.9999999999999999, 0.5)
    # a target outside (0, 1) is no calibration problem
    for target in (-1.0, 1.5, math.nan):
        with pytest.raises(InputError, match=rf"Cor\(W,Z\)={target} must lie in \(0, 1\)"):
            latent_receipt_coefficients(target, 0.5)
    with pytest.raises(InputError, match="too close to 1"):
        generate(design_spec(2, 50, seed=0, target_cor_wz=0.9999999999999999))


def test_infeasible_targets_raise():
    with pytest.raises(InputError, match="infeasible"):
        latent_receipt_coefficients(0.65, 0.60)
    with pytest.raises(InputError, match="infeasible"):
        latent_receipt_coefficients(0.65, 0.0)


def test_bad_design_and_scenario_ids():
    with pytest.raises(InputError, match=r"must be one of \(1, 2, 3, 4, 5\), got 0"):
        design_spec(0, 100, 1)
    with pytest.raises(InputError, match="got 6"):
        design_spec(6, 100, 1)
    with pytest.raises(InputError, match=r"scenario must be one of \(1, 2\), got 3"):
        design_spec(2, 100, 1, scenario=3)


def test_design_spec_built_directly_takes_the_scenario_defaults():
    # a DesignSpec built directly fills in the targets its scenario asks for
    weak = DesignSpec(2, 300, 1, scenario=1)
    assert (weak.target_cor_wz, weak.target_cor_weta) == (0.5, DEFAULT_COR_WETA)
    assert weak == design_spec(2, 300, 1, scenario=1)
    assert DesignSpec(2, 300, 1) == DesignSpec(2, 300, 1, DEFAULT_COR_WZ, DEFAULT_COR_WETA)
    assert DesignSpec(2, 300, 1, 0.6, scenario=1).target_cor_wz == 0.6
    assert DesignSpec(2, 300, 1, scenario=2).target_cor_wz == DEFAULT_COR_WZ


@pytest.mark.parametrize("seed, cor_wz, cor_weta, missed", [
    (744, 0.02, 0.5, r"realized Cor\(W,Z\)=0\.0727 misses target 0\.02"),
    (645, 0.65, 0.02, r"realized Cor\(W,eta\)=-0\.0309 misses target 0\.02")])
def test_a_sample_that_misses_a_target_raises(seed, cor_wz, cor_weta, missed):
    # near-zero targets spread the sample correlation most: at n = 5,000
    # these seeds miss by more than the tolerance
    with pytest.raises(InputError, match=missed):
        generate(design_spec(1, CALIBRATION_CHECK_MIN_N, seed, cor_wz, cor_weta))


def test_small_samples_skip_calibration_gate():
    # the realized-correlation check only applies at scale
    assert CALIBRATION_CHECK_MIN_N == 5000
    for seed in range(5):
        generate(design_spec(2, 60, seed=seed))


def test_feature_names():
    assert generate(design_spec(1, 50, seed=51)).dataset.feature_names == ("x1",)
    names = generate(design_spec(2, 50, seed=51)).dataset.feature_names
    assert names == tuple(f"x{i}" for i in range(1, 11))
