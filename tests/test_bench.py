"""Paired benchmark harness: scoring, seeding, sweep plumbing."""

import csv
import io
import math
import os
from dataclasses import replace

import numpy as np
import pytest

import ctiv.bench
import ctiv.parallel

from ctiv import (
    BenchResult,
    CausalTree,
    GrowthConfig,
    RegimeKind,
    aggregate,
    design_spec,
    evaluate_mse,
    fit_ctiv,
    format_summary,
    generate,
    holdout_split,
    relative_gap,
    results_csv,
    run_cell,
    run_sweep,
)
from ctiv.effects import LeafEstimate
from ctiv.errors import EstimationError, InputError
from ctiv.tree import TreeNode


def estimate(leaf_id, itt, cace, ok=True):
    return LeafEstimate(
        leaf_id=leaf_id, n=50, n1=25, n0=25, itt_hat=itt, pi_at_hat=0.0,
        pi_nt_hat=0.0, pi_c_hat=1.0 if ok else 0.0, cace_hat=cace,
        cace_se=0.1, neyman_var=0.01, first_stage_f=99.0, compliers_ok=ok)


def two_leaf_tree(left_itt, left_cace, right_itt, right_cace, left_ok=True):
    left = TreeNode(n=50, n1=25, n0=25, tau=left_itt, node_id=2)
    right = TreeNode(n=50, n1=25, n0=25, tau=right_itt, node_id=3)
    root = TreeNode(n=100, n1=50, n0=50, tau=0.0, feature=0, threshold=0.0,
                    left=left, right=right, node_id=1)
    return CausalTree(
        root=root, estimates=(estimate(2, left_itt, left_cace, ok=left_ok),
                              estimate(3, right_itt, right_cace)),
        feature_names=("x1",),
        regime_kind=RegimeKind.IV_RANDOMIZED, alpha=0.0, p_hat=0.5,
        propensity=None, adjust_covariates=False, n_input=100, n_trimmed=0,
        n_train=50, n_validation=50, n_omega=100, seed=0, max_depth=1,
        min_leaf_fraction=0.1, min_arm_count=1)


def test_evaluate_mse_perfect_tree():
    tree = two_leaf_tree(-1.0, -1.0, 1.0, 1.0)
    x = np.array([[-2.0], [-0.5], [0.5], [3.0]])
    truth = np.array([-1.0, -1.0, 1.0, 1.0])
    got = evaluate_mse(tree, x, truth)
    assert got.mse == 0.0
    assert got.n_excluded == 0


def test_evaluate_mse_constant_shift():
    tree = two_leaf_tree(-1.0, -1.0, 1.0, 1.0)
    x = np.array([[-1.0], [1.0], [-3.0], [2.0]])
    truth = np.array([-1.0, 1.0, -1.0, 1.0]) + 0.3
    got = evaluate_mse(tree, x, truth)
    assert got.mse == pytest.approx(0.09, abs=1e-12)


@pytest.mark.parametrize("label", ["1", "2", "3", "4", "5", "s1", "s2"])
def test_receipt_split_leaves_have_their_itt_as_cace(label):
    # evaluate_mse scores every tree on cace_hat: a ct leaf's receipt is its
    # own instrument, so its complier share is 1 and its CACE its ITT
    sample = generate(ctiv.bench._spec_for(label, 1000, 70))
    split = holdout_split(sample.dataset, (0.5, 0.5), seed=70)
    cfg = GrowthConfig(regime=RegimeKind.CT, max_depth=3, alpha_override=0.0)
    leaves = fit_ctiv(sample.dataset, cfg, split, seed=70).leaves()
    assert len(leaves) > 1
    for est in leaves:
        assert est.pi_c_hat == 1.0 and est.compliers_ok
        assert est.cace_hat == est.itt_hat


def test_evaluate_mse_excludes_undefined_leaves():
    tree = two_leaf_tree(-1.0, float("nan"), 1.0, 1.0, left_ok=False)
    x = np.array([[-1.0], [-2.0], [1.0], [2.0], [3.0]])
    truth = np.array([0.0, 0.0, 1.0, 1.0, 2.0])
    got = evaluate_mse(tree, x, truth)
    assert got.n_excluded == 2
    assert got.mse == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_evaluate_mse_all_excluded_raises():
    tree = two_leaf_tree(-1.0, float("nan"), 1.0, 1.0, left_ok=False)
    x = np.array([[-1.0], [-2.0]])
    with pytest.raises(EstimationError):
        evaluate_mse(tree, x, np.zeros(2))


def test_evaluate_mse_alignment_check():
    tree = two_leaf_tree(-1.0, -1.0, 1.0, 1.0)
    with pytest.raises(InputError):
        evaluate_mse(tree, np.zeros((3, 1)), np.zeros(2))


def test_relative_gap_values():
    assert relative_gap(0.2325, 0.1002) == pytest.approx(56.903225806451616, abs=1e-9)
    assert relative_gap(0.65, 0.034) == pytest.approx(94.76923076923077, abs=1e-9)
    assert relative_gap(0.4, 0.4) == 0.0
    assert relative_gap(0.1, 0.2) == pytest.approx(-100.0, abs=1e-9)


def test_relative_gap_guards():
    with pytest.raises(EstimationError):
        relative_gap(0.0, 0.1)
    with pytest.raises(InputError):
        relative_gap(float("nan"), 0.1)


def test_run_cell_reproducible():
    a = run_cell("2", 400, 0, base_seed=7)
    b = run_cell("2", 400, 0, base_seed=7)
    assert a == b
    c = run_cell("2", 400, 1, base_seed=7)
    assert c.seed != a.seed


def test_run_cell_fields_consistent():
    res = run_cell("1", 500, 0)
    assert res.design_label == "1" and res.n == 500
    assert res.mse_ct > 0 and res.mse_ctiv > 0
    assert res.relative_gap_pct == pytest.approx(
        100.0 * (res.mse_ct - res.mse_ctiv) / res.mse_ct, abs=1e-9)
    assert res.n_weak_leaves >= 0


def test_run_cell_scenarios():
    for label in ("s1", "s2"):
        res = run_cell(label, 400, 0)
        assert res.design_label == label
        assert math.isfinite(res.relative_gap_pct)


def test_a_cell_fits_ct_then_ct_iv_with_the_sweeps_growth_options(monkeypatch):
    # the first fit's MSE is reported as mse_ct, the second's as mse_ctiv
    cfgs, real = [], ctiv.bench.fit_ctiv
    monkeypatch.setattr(ctiv.bench, "fit_ctiv",
                        lambda ds, cfg, *args: cfgs.append(cfg) or real(ds, cfg, *args))
    run_sweep(["1"], [300], 1, 0, 3, 0.2, 5)
    run_cell("1", 300, 0)
    growth = GrowthConfig(RegimeKind.CT, 3, 0.2, 5)
    assert cfgs == [growth, replace(growth, regime=RegimeKind.IV_RANDOMIZED),
                    GrowthConfig(RegimeKind.CT), GrowthConfig(RegimeKind.IV_RANDOMIZED)]


def test_run_sweep_growth_options_sit_where_they_did():
    # positional callers of the growth options still reach them
    with pytest.raises(InputError, match="max_depth"):
        run_sweep(["2"], [300], 1, 0, 0)
    with pytest.raises(TypeError):
        run_sweep(["2"], [300], 1, alpha_override=1.0)


def test_root_only_tree_mse_near_effect_variance():
    # a constant prediction cannot beat the spread of 1 + x9 + x10,
    # whose variance is 0.2 by construction
    sample = generate(design_spec(2, 4000, seed=60))
    split = holdout_split(sample.dataset, (0.5, 0.5), seed=60)
    cfg = GrowthConfig(regime=RegimeKind.IV_RANDOMIZED,
                       max_depth=2, min_leaf_fraction=0.1, min_arm_count=10,
                       alpha_override=1e9)
    tree = fit_ctiv(sample.dataset, cfg, split, seed=60)
    assert tree.root.is_leaf
    fresh = generate(design_spec(2, 4000, seed=61))
    got = evaluate_mse(tree, fresh.dataset.covariates, fresh.true_cate)
    assert 0.15 < got.mse < 0.35


def test_run_sweep_shapes_and_determinism():
    results, failures = run_sweep(["2"], [300], n_seeds=2, base_seed=3)
    assert failures == []
    assert len(results) == 2
    assert {r.n for r in results} == {300}
    again, _ = run_sweep(["2"], [300], n_seeds=2, base_seed=3)
    assert results == again


def test_run_sweep_records_failures():
    # 40 units cannot satisfy the 10-per-arm floor after the 50/50 split
    results, failures = run_sweep(["2"], [30], n_seeds=1, base_seed=0)
    assert results == []
    assert len(failures) == 1
    assert failures[0]["design"] == "2" and failures[0]["n"] == 30
    assert "error" in failures[0]


@pytest.mark.parametrize("designs, sizes, message", [
    (["1", "1"], [300], r"designs must not repeat, got \['1', '1'\]"),
    (["1", "2"], [300, 300], r"sizes must not repeat, got \[300, 300\]")])
def test_run_sweep_refuses_a_repeated_design_or_size(designs, sizes, message):
    # a repeat would count the same draws again as further replicates
    with pytest.raises(InputError, match=message):
        run_sweep(designs, sizes, n_seeds=2, progress=pytest.fail)


@pytest.mark.parametrize("label", ["7", "s3", "x"])
def test_run_sweep_refuses_an_unknown_design_before_any_cell(label):
    with pytest.raises(InputError, match=r"designs must be among \['1', '2', '3', '4', "
                                         r"'5', 's1', 's2'\], got \['1', '" + label):
        run_sweep(["1", label], [300], n_seeds=1, progress=pytest.fail)


def test_aggregate_means():
    rows = [BenchResult("2", 500, 1, 0.4, 0.1, 75.0, 0, 0, 0),
            BenchResult("2", 500, 2, 0.2, 0.1, 50.0, 1, 0, 0),
            BenchResult("3", 500, 3, 0.3, 0.3, 0.0, 0, 0, 0)]
    agg = aggregate(rows)
    assert agg[("2", 500)]["n_reps"] == 2
    assert agg[("2", 500)]["mse_ct_mean"] == pytest.approx(0.3)
    assert agg[("2", 500)]["gap_mean"] == pytest.approx(62.5)
    assert agg[("3", 500)]["gap_sd"] == 0.0


def test_format_summary_layout():
    rows = [BenchResult("2", 500, 1, 0.4, 0.1, 75.0, 0, 0, 0),
            BenchResult("s1", 500, 2, 0.5, 0.2, 60.0, 1, 0, 0)]
    text = format_summary(rows)
    assert "MSE CT-IV" in text and "MSE CT" in text and "Rel. gap %" in text
    assert "N=500" in text
    lines = text.splitlines()
    # numbered designs come before scenario rows
    assert lines.index(next(l for l in lines if l.startswith("2"))) < \
        lines.index(next(l for l in lines if l.startswith("s1")))


def test_results_csv_round_trip():
    rows = [BenchResult("2", 500, 11, 0.4321, 0.1234, 71.44179, 1, 2, 3)]
    text = results_csv(rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 1
    assert parsed[0]["design"] == "2"
    assert float(parsed[0]["mse_ctiv"]) == 0.1234
    assert int(parsed[0]["n_excluded_ctiv"]) == 3


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_progress_reports_each_cell_in_order(monkeypatch, cpus):
    # only cells run in this process are reported: a pool's outcomes
    # arrive in bursts, so it reports none, but a lone cell runs here
    monkeypatch.setattr(ctiv.parallel, "usable_cpus", lambda: cpus)
    seen = []
    results, failures = run_sweep(["1", "2"], [300], n_seeds=2, base_seed=5,
                                  progress=lambda *cell: seen.append(cell))
    cells = [("1", 300, 0), ("1", 300, 1), ("2", 300, 0), ("2", 300, 1)]
    assert seen == (cells if cpus == 1 else [])
    assert len(results) + len(failures) == 4
    seen.clear()
    run_sweep(["2"], [300], n_seeds=1, progress=lambda *cell: seen.append(cell))
    assert seen == [("2", 300, 0)]


def test_sweep_starts_at_most_one_worker_per_cell(monkeypatch):
    started = []
    real = ctiv.parallel.ProcessPoolExecutor
    monkeypatch.setattr(ctiv.parallel, "ProcessPoolExecutor",
                        lambda n, **kw: started.append(n) or real(n, **kw))
    monkeypatch.setattr(ctiv.parallel, "usable_cpus", lambda: 4)
    run_sweep(["1"], [300], n_seeds=1)
    run_sweep(["1"], [300], n_seeds=2)
    assert started == [2]


def test_parallel_sweep_matches_serial(monkeypatch):
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(ctiv.parallel, "usable_cpus", lambda: cpus)
        runs.append(run_sweep(["1"], [300], n_seeds=2, base_seed=5))
    assert runs[0] == runs[1]


@pytest.mark.skipif(not ctiv.parallel.fork_is_safe(), reason="cannot fork here")
def test_sweep_finishes_the_cells_of_a_dead_worker(monkeypatch):
    this, ran_here = os.getpid(), []
    real = ctiv.bench.run_cell

    def run_cell(*args):
        if os.getpid() != this:
            os._exit(1)                 # as if killed from outside
        ran_here.append(args[:3])
        return real(*args)

    monkeypatch.setattr(ctiv.parallel, "usable_cpus", lambda: 1)
    serial = run_sweep(["1", "2"], [300], n_seeds=2, base_seed=5)
    monkeypatch.setattr(ctiv.bench, "run_cell", run_cell)
    monkeypatch.setattr(ctiv.parallel, "usable_cpus", lambda: 2)
    assert run_sweep(["1", "2"], [300], n_seeds=2, base_seed=5) == serial
    assert ran_here == [(label, 300, rep) for label in "12" for rep in range(2)]
