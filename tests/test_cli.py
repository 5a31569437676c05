"""End-to-end command line behavior: files written, exit codes, determinism."""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ctiv.dataset
import ctiv.errors
import ctiv.parallel
from ctiv import (Dataset, GrowthConfig, design_spec, export_json, fit_ctiv, generate,
                  holdout_split, load_json, save_csv)
from ctiv.cli import EXIT_DATA, EXIT_ESTIMATION, EXIT_OK, EXIT_USAGE, main
from ctiv.errors import CtivError, ValidationError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_trial_csv(path, n=900, seed=70, full_compliance=True):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    z = rng.integers(0, 2, n).astype(np.int8)
    if full_compliance:
        w = z
    else:
        w = ((0.8 * z + 0.5 * rng.normal(size=n)) > 0.4).astype(np.int8)
    y = rng.normal(size=n) + 0.4 * x[:, 0] + w * (1.0 + 2.0 * (x[:, 1] > 0))
    ds = Dataset(covariates=x, z=z, w=w, y=y, feature_names=("x1", "x2"))
    save_csv(ds, path)
    return ds


def test_simulate_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        code, _, err = run(capsys, "simulate", "--design", "2", "--n", "400",
                           "--seed", "9", "--out", str(out))
        assert code == EXIT_OK, err
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().count("\n") == 401
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["design_id"] == 2 and meta["n"] == 400
    assert "realized_cor_wz" in meta
    assert (tmp_path / "a.csv.meta.json").read_bytes() == \
        (tmp_path / "b.csv.meta.json").read_bytes()


def test_simulate_scenario(tmp_path, capsys):
    out = tmp_path / "s2.csv"
    code, _, _ = run(capsys, "simulate", "--scenario", "2", "--n", "300",
                     "--seed", "1", "--out", str(out))
    assert code == EXIT_OK
    meta = json.loads((tmp_path / "s2.csv.meta.json").read_text())
    assert meta["scenario"] == 2 and meta["design_id"] == 2
    # scenario 1 lowers the instrument-strength target
    code, _, _ = run(capsys, "simulate", "--scenario", "1", "--n", "300",
                     "--seed", "1", "--out", str(tmp_path / "s1.csv"))
    assert code == EXIT_OK
    meta1 = json.loads((tmp_path / "s1.csv.meta.json").read_text())
    assert meta1["target_cor_wz"] == 0.5


def test_fit_refuses_outcomes_whose_squares_overflow(tmp_path, capsys):
    # the fit's sums of squares would overflow: a data error, not a
    # traceback or a wrong tree
    ds = write_trial_csv(tmp_path / "trial.csv")
    big = Dataset(ds.covariates, ds.z, ds.w, ds.y * 1e155, ds.feature_names)
    save_csv(big, tmp_path / "big.csv")
    code, _, err = run(capsys, "fit", "--input", str(tmp_path / "big.csv"),
                       "--regime", "iv-randomized", "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_DATA
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "ValidationError"
    assert "overflow" in json.loads(err)["message"]


@pytest.mark.parametrize("scale", [1e-155, 1e-160, 1e-165])
def test_fit_refuses_outcomes_whose_squares_underflow(tmp_path, capsys, scale):
    # gains n * tau^2 would fall into subnormals and then to 0: alpha/scale^2
    # moved at 1e-160 and the bare root fitted with alpha=0 at 1e-165, exit 0
    ds = generate(design_spec(2, 4000, 1)).dataset
    tiny = Dataset(ds.covariates, ds.z, ds.w, ds.y * scale, ds.feature_names)
    save_csv(tiny, tmp_path / "tiny.csv")
    code, _, err = run(capsys, "fit", "--input", str(tmp_path / "tiny.csv"),
                       "--regime", "iv-randomized", "--max-depth", "3",
                       "--min-leaf-fraction", "0.05", "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_DATA
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "ValidationError"
    assert "under 2.22507e-308, the least normal float" in json.loads(err)["message"]


def test_fit_of_all_zero_outcomes_is_the_bare_root(tmp_path, capsys):
    ds = write_trial_csv(tmp_path / "trial.csv")
    zero = Dataset(ds.covariates, ds.z, ds.w, np.zeros(ds.n_units), ds.feature_names)
    save_csv(zero, tmp_path / "zero.csv")
    code, out, err = run(capsys, "fit", "--input", str(tmp_path / "zero.csv"),
                         "--regime", "iv-randomized", "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_OK, err
    assert out.startswith("fitted iv-randomized tree: 1 leaves, alpha=0, ")


@pytest.mark.parametrize("regime, ridge", [("ct", "1e-6"), ("ct", "0"),
                                           ("iv-unconfounded", "1e-6")])
def test_fit_on_covariates_near_the_float_limit_writes_one_error_line(
        tmp_path, capsys, regime, ridge):
    # the logistic fit's products overflow and it diverges: numpy's warnings
    # once came out on stderr ahead of the JSON error
    x = np.linspace(-1e300, 1e300, 200)[:, None]
    w = (x[:, 0] > 0).astype(np.int8)
    y = np.random.default_rng(0).normal(size=200)
    data = tmp_path / "d.csv"
    save_csv(Dataset(covariates=x, z=w, w=w, y=y, feature_names=("x1",)), data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, "fit", "--input", str(data), "--regime", regime,
                           "--ridge", ridge, "--out-dir", str(tmp_path / "o"))
    assert caught == [] and code == EXIT_ESTIMATION
    assert err.count("\n") == 1 and json.loads(err) == {
        "error": "EstimationError",
        "message": "logistic fit diverged; labels may be separated"}


def test_fit_with_no_unit_left_to_validate_fails(tmp_path, capsys):
    write_trial_csv(tmp_path / "trial.csv")
    code, _, err = run(capsys, "fit", "--input", str(tmp_path / "trial.csv"),
                       "--regime", "iv-randomized", "--train-frac", "1.0",
                       "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_DATA
    assert json.loads(err) == {"error": "ValidationError",
                               "message": "no validation units survive trimming"}


def test_fit_without_compliers_reports_no_overall_cace(tmp_path, capsys):
    # receipt is the opposite of assignment: no leaf has a positive
    # complier share, so there is nothing to average
    ds = write_trial_csv(tmp_path / "trial.csv")
    defiers = Dataset(ds.covariates, ds.z, 1 - ds.z, ds.y, ds.feature_names)
    save_csv(defiers, tmp_path / "defiers.csv")
    code, out, err = run(capsys, "fit", "--input", str(tmp_path / "defiers.csv"),
                         "--regime", "iv-randomized", "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_OK, err
    assert "overall CACE (complier-weighted): nan\n" in out
    resolved = json.loads((tmp_path / "o" / "run.json").read_text())["resolved"]
    assert np.isnan(resolved["overall_cace"])


def test_simulate_design_and_scenario_conflict(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", "--design", "2", "--scenario", "1",
                       "--n", "100", "--out", str(tmp_path / "x.csv"))
    assert code == EXIT_USAGE
    assert json.loads(err)["error"] == "UsageError"


def test_fit_writes_outputs(tmp_path, capsys):
    data = tmp_path / "d1.csv"
    run(capsys, "simulate", "--design", "1", "--n", "1200", "--seed", "3",
        "--out", str(data))
    out = tmp_path / "fit"
    code, stdout, err = run(capsys, "fit", "--input", str(data),
                            "--regime", "iv-randomized",
                            "--features", "x1",
                            "--out-dir", str(out), "--seed", "3")
    assert code == EXIT_OK, err
    for name in ("tree.json", "tree.dot", "leaf_report.csv", "run.json"):
        assert (out / name).exists()
    tree = json.loads((out / "tree.json").read_text())
    assert tree["format"] == "ctiv-tree"
    run_cfg = json.loads((out / "run.json").read_text())
    assert run_cfg["resolved"]["n_leaves"] >= 1
    # iv-randomized fits no propensity model, so there is no solver state
    assert run_cfg["resolved"]["propensity_converged"] is None
    assert run_cfg["resolved"]["propensity_iterations"] is None
    assert "overall CACE" in stdout
    header = (out / "leaf_report.csv").read_text().splitlines()[0]
    assert header == "node_id,n,itt_hat,pi_c_hat,cace_hat,cace_se,first_stage_f"


def test_fit_rerun_byte_identical(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_trial_csv(data, full_compliance=False)
    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        code, _, err = run(capsys, "fit", "--input", str(data),
                           "--regime", "iv-unconfounded",
                           "--out-dir", str(out), "--seed", "5")
        assert code == EXIT_OK, err
        outs.append(out)
    for name in ("tree.json", "tree.dot", "leaf_report.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # run.json echoes the differing --out-dir; everything else matches
    configs = [json.loads((o / "run.json").read_text()) for o in outs]
    for cfg in configs:
        cfg["options"].pop("out_dir")
    assert configs[0] == configs[1]
    # the logistic solver's state, as tree.json records it
    prop = json.loads((outs[0] / "tree.json").read_text())["meta"]["propensity"]
    resolved = configs[0]["resolved"]
    assert resolved["propensity_converged"] is prop["converged"] is True
    assert resolved["propensity_iterations"] == prop["iterations"] >= 1


def test_fit_full_compliance_regimes_match(tmp_path, capsys, unadjusted_tree_payload):
    data = tmp_path / "fc.csv"
    ds = write_trial_csv(data, full_compliance=True)
    payloads = {}
    for regime in ("ct", "iv-unconfounded"):
        out = tmp_path / regime
        code, _, err = run(capsys, "fit", "--input", str(data),
                           "--regime", regime,
                           "--out-dir", str(out), "--seed", "5")
        assert code == EXIT_OK, err
        text = (out / "tree.json").read_text()
        payloads[regime] = json.loads(text)["tree"]
        report = (out / "leaf_report.csv").read_text().splitlines()[1:]
        for line in report:
            fields = line.split(",")
            itt, pi_c, cace = (float(fields[2]), float(fields[3]),
                               float(fields[4]))
            assert pi_c == 1.0
            assert cace == itt
    # iv-unconfounded adjusts its TSLS; unadjusted, its leaves are ct's
    assert payloads["ct"] != payloads["iv-unconfounded"]
    assert unadjusted_tree_payload(load_json(text), ds) == payloads["ct"]


def test_fit_missing_column_exit_data(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,w,x1\n1.0,1,0.2\n2.0,0,-0.1\n")
    code, _, err = run(capsys, "fit", "--input", str(bad),
                       "--regime", "iv-randomized",
                       "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_DATA
    assert "z" in json.loads(err)["message"]


def test_fit_constant_assignment_exit_data(tmp_path, capsys):
    # every unit assigned: the randomized share is 1, and no unit can be
    # weighted by 1 / (1 - p_hat), even with trimming off
    data = tmp_path / "all_assigned.csv"
    rng = np.random.default_rng(71)
    ds = Dataset(covariates=rng.normal(size=(100, 2)), z=np.ones(100, dtype=np.int8),
                 w=rng.integers(0, 2, 100), y=rng.normal(size=100),
                 feature_names=("x1", "x2"))
    save_csv(ds, data)
    code, _, err = run(capsys, "fit", "--input", str(data), "--regime", "iv-randomized",
                       "--trim-lo", "0", "--trim-hi", "1",
                       "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_DATA
    assert json.loads(err) == {"error": "ValidationError",
                               "message": "p_hat must lie in (0, 1), got 1.0"}


@pytest.mark.parametrize("regime", ["ct", "iv-unconfounded"])
def test_fit_saturated_propensity_with_trimming_off(tmp_path, capsys, regime):
    # x1 separates both indicators, so the logistic fit saturates; the
    # model clamps its probabilities inside (0, 1), and every unit keeps
    # a weight even with trimming off
    data = tmp_path / "separated.csv"
    rng = np.random.default_rng(72)
    x = rng.normal(size=(200, 2))
    d = (x[:, 0] > 0).astype(np.int8)
    save_csv(Dataset(covariates=x, z=d, w=d.copy(), y=rng.normal(size=200),
                     feature_names=("x1", "x2")), data)
    code, _, err = run(capsys, "fit", "--input", str(data), "--regime", regime,
                       "--trim-lo", "0", "--trim-hi", "1",
                       "--out-dir", str(tmp_path / "o"))
    assert (code, err) == (EXIT_OK, "")
    tree = json.loads((tmp_path / "o" / "tree.json").read_text())
    assert tree["meta"]["n_trimmed"] == 0


def test_fit_growth_failure_exit_estimation(tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    write_trial_csv(data, n=60, full_compliance=False)
    code, _, err = run(capsys, "fit", "--input", str(data),
                       "--regime", "iv-randomized", "--min-arm-count", "50",
                       "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_ESTIMATION
    assert json.loads(err)["error"] == "EstimationError"


def _blank_x1_cell(path):
    path.write_text("y,w,z,x1\n1.0,1,1,0.5\n2.0,0,0,\n")


def _z_all_1(path):
    path.write_text("y,w,z,x1\n" + "".join(f"{i % 5},{i % 2},1,{i / 7}\n" for i in range(40)))


def _trial_300(path):
    write_trial_csv(path, n=300, full_compliance=False)


# one input per folded class, named by the class it raised before the fold
@pytest.mark.parametrize("write, argv, code, kind", [
    pytest.param(_trial_300, ["fit", "--regime", "ct", "--train-frac", "1.5"],
                 EXIT_DATA, "InputError", id="SplitError"),
    pytest.param(None, ["simulate", "--design", "2", "--n", "50",
                        "--cor-wz", "0.9999999999999999"],
                 EXIT_DATA, "InputError", id="CalibrationError"),
    pytest.param(_blank_x1_cell, ["fit", "--regime", "ct"],
                 EXIT_DATA, "ValidationError", id="MissingValueError"),
    pytest.param(_z_all_1, ["fit", "--regime", "iv-randomized"],
                 EXIT_DATA, "ValidationError", id="DomainError"),
    pytest.param(_trial_300, ["fit", "--regime", "ct", "--min-arm-count", "200",
                              "--min-leaf-fraction", "0.5"],
                 EXIT_ESTIMATION, "EstimationError", id="GrowthError"),
])
def test_a_folded_error_class_keeps_its_exit_code(tmp_path, capsys, write, argv, code, kind):
    data, out = tmp_path / "in.csv", tmp_path / "o"
    if write:
        write(data)
        argv = [*argv, "--input", str(data), "--out-dir", str(out)]
    else:
        argv = [*argv, "--out", str(out / "s.csv")]
    got, _, err = run(capsys, *argv)
    assert (got, json.loads(err)["error"]) == (code, kind)
    assert err.count("\n") == 1 and not out.exists()


def test_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "fit", "--regime", "iv-randomized")
    assert code == EXIT_USAGE
    assert json.loads(err)["error"] == "UsageError"
    code, _, err = run(capsys, "bench", "--designs", "9",
                       "--out-dir", str(tmp_path))
    assert code == EXIT_USAGE
    # the sweep sizes its own pool: one process per usable CPU
    code, _, err = run(capsys, "bench", "--workers", "2", "--out-dir", str(tmp_path))
    assert code == EXIT_USAGE
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "UsageError",
                               "message": "unrecognized arguments: --workers 2"}
    data = tmp_path / "d.csv"
    write_trial_csv(data, n=100, full_compliance=False)
    # validation is the units left out of training: it has no option
    code, _, err = run(capsys, "fit", "--input", str(data),
                       "--regime", "iv-randomized", "--val-frac", "0.5",
                       "--out-dir", str(tmp_path))
    assert code == EXIT_USAGE
    assert "unrecognized arguments: --val-frac" in json.loads(err)["message"]
    # a missing input file is a data problem, not a usage problem
    code, _, err = run(capsys, "fit", "--input", str(tmp_path / "nope.csv"),
                       "--regime", "iv-randomized",
                       "--out-dir", str(tmp_path))
    assert code == EXIT_DATA


@pytest.mark.parametrize("argv, word", [
    (("fit", "--max-depth", "0"), "max_depth"),
    (("fit", "--min-leaf-fraction", "0.9"), "min_leaf_fraction"),
    (("fit", "--alpha", "-1"), "alpha_override"),
    (("fit", "--alpha", "nan"), "alpha_override"),
    (("fit", "--min-arm-count", "0"), "min_arm_count"),
    (("fit", "--ridge", "-1"), "ridge_lambda"),
    (("fit", "--trim-lo", "0.9", "--trim-hi", "0.1"), "trim bounds"),
    (("bench", "--seeds", "0"), "n_seeds"),
    (("simulate", "--n", "5"), "n must be"),
    (("simulate", "--cor-wz", "1.5"), "target_cor_wz"),
    (("bench", "--seeds", "-2"), "n_seeds"),
    (("simulate", "--cor-weta", "1.5"), "target_cor_weta"),
    (("simulate", "--seed", "-1"), "seed must be nonnegative"),
    (("fit", "--seed", "-1"), "seed must be nonnegative"),
    (("bench", "--base-seed", "-1"), "base_seed must be nonnegative"),
    (("bench", "--sizes", "-5"), "sizes must be >= 5"),
    (("bench", "--sizes", "3"), "sizes must be >= 5"),
    # bench checks its growth options once, before any cell runs
    (("bench", "--max-depth", "0"), "max_depth"),
    (("bench", "--min-leaf-fraction", "0.9"), "min_leaf_fraction"),
    (("bench", "--min-arm-count", "0"), "min_arm_count"),
    # leaf ids past 2**63 would not fit the int64 that rows map to leaves in
    (("fit", "--max-depth", "63"), "max_depth must lie in [1, 62]"),
    (("bench", "--max-depth", "63"), "max_depth must lie in [1, 62]"),
    # samples numpy cannot shape, found before any draw
    (("simulate", "--n", str(10 ** 20)), "numpy cannot shape"),
    (("bench", "--sizes", str(10 ** 20)), "numpy cannot shape"),
])
def test_out_of_range_option_exit_data(tmp_path, capsys, argv, word):
    # the library owns the range checks: its InputError is a data error
    data = tmp_path / "d.csv"
    write_trial_csv(data, n=200, full_compliance=False)
    base = {
        "fit": ["--input", str(data), "--regime", "ct", "--out-dir", str(tmp_path / "o")],
        "bench": ["--designs", "2", "--sizes", "300", "--out-dir", str(tmp_path / "b")],
        "simulate": ["--design", "2", "--n", "400", "--out", str(tmp_path / "s.csv")],
    }
    code, _, err = run(capsys, argv[0], *base[argv[0]], *argv[1:])
    assert code == EXIT_DATA
    assert err.count("\n") == 1 and "Traceback" not in err
    payload = json.loads(err)
    assert payload["error"] == "InputError" and word in payload["message"]


def test_fit_grows_at_the_deepest_max_depth(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_trial_csv(data, n=200, full_compliance=False)
    code, _, err = run(capsys, "fit", "--input", str(data), "--regime", "ct",
                       "--max-depth", "62", "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_OK, err


@pytest.mark.parametrize("argv, code, error, word", [
    (("--train-frac", "1.5"), EXIT_DATA, "InputError", "nonnegative"),
    (("--train-frac", "nan"), EXIT_DATA, "InputError", "finite"),
    (("--train-frac", "0"), EXIT_DATA, "InputError", "train fraction"),
    (("--seed", "-1"), EXIT_DATA, "InputError", "seed must be nonnegative"),
    (("--max-depth", "0"), EXIT_DATA, "InputError", "max_depth"),
    (("--min-leaf-fraction", "0.9"), EXIT_DATA, "InputError", "min_leaf_fraction"),
    (("--min-arm-count", "0"), EXIT_DATA, "InputError", "min_arm_count"),
    (("--alpha", "-1"), EXIT_DATA, "InputError", "alpha_override"),
    (("--ridge", "inf"), EXIT_DATA, "InputError", "ridge_lambda"),
    (("--trim-lo", "0.9", "--trim-hi", "0.1"), EXIT_DATA, "InputError", "trim bounds"),
], ids=["fractions-over-1", "nan-fraction", "no-train-part", "seed", "max-depth",
        "min-leaf-fraction", "min-arm-count", "alpha", "ridge", "trim-bounds"])
def test_fit_checks_its_options_before_reading_the_input(tmp_path, capsys, argv,
                                                         code, error, word):
    # a missing file would exit 2 with OSError; each bad option is found first
    got, _, err = run(capsys, "fit", "--input", str(tmp_path / "nope.csv"),
                      "--regime", "iv-randomized", "--out-dir", str(tmp_path / "o"),
                      *argv)
    assert got == code
    payload = json.loads(err)
    assert payload["error"] == error and word in payload["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("option", ["--train-frac"])
def test_nan_split_fraction_exit_data(tmp_path, capsys, option):
    data = tmp_path / "d.csv"
    write_trial_csv(data, n=200, full_compliance=False)
    code, _, err = run(capsys, "fit", "--input", str(data), "--regime", "ct",
                       option, "nan", "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_DATA
    assert json.loads(err) == {"error": "InputError",
                               "message": "fractions must be finite"}
    assert not (tmp_path / "o").exists()


# (--train-frac, the --val-frac it used to need) -> the (n_train,
# n_validation) that pair gave before validation became the rest
OLD_PAIRS = {("0.42", "0.58"): (378, 522), ("0.18", "0.82"): (162, 738),
             ("0.7", "0.3"): (630, 270), ("0.99", "0.01"): (891, 9),
             ("0.4", "0.6"): (360, 540)}


@pytest.mark.parametrize("train, val", sorted(OLD_PAIRS))
def test_train_fraction_alone_splits_as_the_old_pair(tmp_path, capsys, train, val):
    data = tmp_path / "d.csv"
    write_trial_csv(data, n=900, full_compliance=False)
    code, _, err = run(capsys, "fit", "--input", str(data), "--regime", "ct",
                       "--train-frac", train, "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_OK, err
    meta = json.loads((tmp_path / "o" / "tree.json").read_text())["meta"]
    assert (meta["n_train"], meta["n_validation"]) == OLD_PAIRS[train, val]
    assert meta["n_train"] + meta["n_validation"] == meta["n_omega"]


def test_library_and_cli_split_one_train_fraction_alike(tmp_path, capsys):
    # 0.58 * 3000 floors to 1739, (1 - 0.42) * 3000 to 1740: both sides
    # size validation from the train fraction alone
    data = tmp_path / "d.csv"
    ds = write_trial_csv(data, n=3000, full_compliance=False)
    in_train = holdout_split(ds, (0.42, 0.58), seed=5)
    assert int((~in_train).sum()) == 1740
    code, _, err = run(capsys, "fit", "--input", str(data), "--regime", "iv-randomized",
                       "--train-frac", "0.42", "--seed", "5", "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_OK, err
    text = (tmp_path / "o" / "tree.json").read_text()
    meta = json.loads(text)["meta"]
    assert (meta["n_trimmed"], meta["n_validation"]) == (0, 1740)
    cfg = GrowthConfig(regime="iv-randomized")      # the CLI's defaults
    assert export_json(fit_ctiv(ds, cfg, in_train, seed=5)) == text


def test_fit_feature_that_is_the_outcome_exit_data(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_trial_csv(data, n=200)
    code, _, err = run(capsys, "fit", "--input", str(data), "--regime", "ct",
                       "--features", "y,x1,x2", "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_DATA
    assert json.loads(err) == {"error": "SchemaError",
                               "message": f"{data}: feature column 'y' is the y column"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("features", ["x1,x1", "x2,x1, x1"])
def test_fit_feature_named_twice_exit_data(tmp_path, capsys, features):
    # once refused only by the dataset, in a message naming neither the
    # file nor the column
    data = tmp_path / "d.csv"
    write_trial_csv(data, n=200)
    code, _, err = run(capsys, "fit", "--input", str(data), "--regime", "ct",
                       "--features", features, "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_DATA
    assert json.loads(err) == {"error": "SchemaError",
                               "message": f"{data}: feature column 'x1' is named twice"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, column, roles", [
    ("--w-col", "z", "w and z"), ("--y-col", "z", "y and z"), ("--y-col", "w", "y and w")])
def test_fit_two_roles_naming_one_column_exit_data(tmp_path, capsys, flag, column, roles):
    # --w-col z would grow a receipt tree on the assignment column
    data = tmp_path / "d1.csv"
    code, _, err = run(capsys, "simulate", "--design", "1", "--n", "400",
                       "--seed", "4", "--out", str(data))
    assert code == EXIT_OK, err
    code, _, err = run(capsys, "fit", "--input", str(data), "--regime", "ct",
                       flag, column, "--features", "x1",
                       "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_DATA
    assert json.loads(err) == {
        "error": "SchemaError",
        "message": f"{data}: the {roles} roles both name column '{column}'"}
    assert not (tmp_path / "o").exists()


def test_fit_tsls_covariates_is_no_option(tmp_path, capsys):
    # the regime alone decides whether the leaf TSLS is covariate-adjusted
    data = tmp_path / "d.csv"
    write_trial_csv(data, n=200)
    for flag in ("--tsls-covariates", "--no-tsls-covariates"):
        code, _, err = run(capsys, "fit", "--input", str(data),
                           "--regime", "iv-unconfounded", flag,
                           "--out-dir", str(tmp_path / "o"))
        assert code == EXIT_USAGE
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "UsageError",
                                   "message": f"unrecognized arguments: {flag}"}
    assert not (tmp_path / "o").exists()
    with pytest.raises(SystemExit):
        main(["fit", "--help"])
    assert "tsls" not in capsys.readouterr().out


def test_parent_unadjusted_iv_unconfounded_tree_loads_and_scores(tmp_path, capsys):
    # written by `ctiv fit --regime iv-unconfounded --no-tsls-covariates
    # --alpha 0 --features x1,...,x10 --seed 3` on the sample below, when
    # that option existed: its meta reads "adjust_covariates": false
    fixture = Path(__file__).parent / "data" / "iv_unconfounded_unadjusted_tree.json"
    text = fixture.read_text(encoding="utf-8")
    tree = load_json(text)
    assert tree.adjust_covariates is False and tree.root.n_leaves() == 3
    assert export_json(tree) == text
    data = tmp_path / "d2.csv"
    code, _, err = run(capsys, "simulate", "--design", "2", "--n", "600",
                       "--seed", "3", "--out", str(data))
    assert code == EXIT_OK, err
    pred = tmp_path / "pred.csv"
    code, _, err = run(capsys, "predict", "--tree", str(fixture),
                       "--input", str(data), "--output", str(pred))
    assert code == EXIT_OK, err
    # the predictions that tree's writer made from it
    assert hashlib.sha256(pred.read_bytes()).hexdigest() == (
        "a1b863f630595bc8fdc87320eb2baf7ac62f74e493969c679f10cf61e3649835")


def test_bench_refuses_a_repeated_design_or_size(tmp_path, capsys):
    # a repeat would count the same draws again as further replicates
    for grid, message in [
            (("--designs", "1,1"), "design '1' is given more than once"),
            (("--designs", "1-3,2"), "design '2' is given more than once"),
            (("--designs", "s1,2,s1"), "design 's1' is given more than once"),
            (("--sizes", "300,300"), "size '300' is given more than once"),
            (("--sizes", "300,0300"), "size '300' is given more than once")]:
        code, _, err = run(capsys, "bench", "--seeds", "2", *grid, "--out-dir", str(tmp_path / "o"))
        assert code == EXIT_USAGE
        assert json.loads(err) == {"error": "UsageError", "message": message}
    assert not (tmp_path / "o").exists()


def test_bench_refuses_a_reversed_design_range(tmp_path, capsys):
    # '5-4' once ran nothing for itself: '1,5-4' ran design 1 alone, and
    # '2-1' exited with "no designs given"
    for designs, chunk in [("1,5-4", "5-4"), ("2-1", "2-1")]:
        code, _, err = run(capsys, "bench", "--designs", designs, "--sizes", "300",
                           "--seeds", "1", "--out-dir", str(tmp_path / "o"))
        assert code == EXIT_USAGE
        assert json.loads(err) == {"error": "UsageError",
                                   "message": f"bad design range '{chunk}'"}
    assert not (tmp_path / "o").exists()
    code, _, err = run(capsys, "bench", "--designs", "3-3", "--sizes", "300",
                       "--seeds", "1", "--out-dir", str(tmp_path / "one"))
    assert code == EXIT_OK, err
    resolved = json.loads((tmp_path / "one" / "run.json").read_text())["resolved"]
    assert resolved["designs"] == ["3"]


@pytest.mark.parametrize("grid, message", [
    (("--designs", "1-x"), "bad design range '1-x'"),
    (("--designs", ","), "no designs given"),
    (("--sizes", " , "), "no sizes given"),
    (("--sizes", "300,x"), "bad --sizes '300,x'"),
    (("--designs", "s1-2"), "bad design range 's1-2'")])
def test_bench_refuses_a_malformed_list(tmp_path, capsys, grid, message):
    code, _, err = run(capsys, "bench", *grid, "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_USAGE
    assert json.loads(err) == {"error": "UsageError", "message": message}
    assert not (tmp_path / "o").exists()


def test_bench_records_a_failed_cell_and_says_so(tmp_path, capsys):
    # on 5 units the CT fit's receipt model is so sharp that trimming keeps none
    code, out, err = run(capsys, "bench", "--designs", "1", "--sizes", "5",
                         "--seeds", "1", "--out-dir", str(tmp_path))
    assert code == EXIT_OK, err
    assert out.endswith("no successful cells\n1 cell(s) failed; see run.json\n")
    failures = json.loads((tmp_path / "run.json").read_text())["failures"]
    assert [(f["design"], f["n"], f["rep"], f["error"]) for f in failures] == [
        ("1", 5, 0, "ValidationError")]


def test_fit_help_lists_the_train_fraction_alone(capsys):
    with pytest.raises(SystemExit):
        main(["fit", "--help"])
    text = capsys.readouterr().out
    assert "--train-frac" in text and "--val-frac" not in text


def test_byte_order_mark_reads_as_the_plain_file_by_name_and_through_stdin(
        tmp_path, capsys):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    code, _, err = run(capsys, "simulate", "--design", "2", "--n", "600",
                       "--seed", "3", "--out", str(plain))
    assert code == EXIT_OK, err
    bom.write_bytes("\ufeff".encode() + plain.read_bytes())
    fit = ["fit", "--regime", "ct", "--features", "x1,x2,x3"]
    for source in (plain, bom):
        code, _, err = run(capsys, *fit, "--input", str(source),
                           "--out-dir", str(tmp_path / source.stem))
        assert code == EXIT_OK, err
        code, _, err = run(capsys, "predict", "--input", str(source),
                           "--tree", str(tmp_path / "plain" / "tree.json"),
                           "--output", str(tmp_path / f"{source.stem}.pred.csv"))
        assert code == EXIT_OK, err
    # a pipe cannot seek back over the mark
    done = subprocess.run([sys.executable, "-m", "ctiv.cli", *fit,
                           "--input", "/dev/stdin", "--out-dir", str(tmp_path / "piped")],
                          input=bom.read_bytes(), env=fresh_env(), capture_output=True)
    assert done.returncode == 0, done.stderr
    for name in ("tree.json", "leaf_report.csv"):
        want = (tmp_path / "plain" / name).read_bytes()
        assert (tmp_path / "bom" / name).read_bytes() == want
        assert (tmp_path / "piped" / name).read_bytes() == want
    assert (tmp_path / "bom.pred.csv").read_bytes() == \
        (tmp_path / "plain.pred.csv").read_bytes()


@pytest.mark.parametrize("regime", ["ct", "iv-unconfounded", "iv-randomized"])
@pytest.mark.parametrize("ridge", ["-1", "nan"])
def test_out_of_range_ridge_is_rejected_in_every_regime(tmp_path, capsys, regime, ridge):
    # iv-randomized never fits a propensity model, so it needs its own check
    data = tmp_path / "d.csv"
    write_trial_csv(data, n=200, full_compliance=False)
    code, _, err = run(capsys, "fit", "--input", str(data), "--regime", regime,
                       "--ridge", ridge, "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_DATA
    assert json.loads(err) == {"error": "InputError",
                               "message": "ridge_lambda must be nonnegative"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("regime", ["ct", "iv-unconfounded", "iv-randomized"])
def test_infinite_ridge_is_rejected_in_every_regime(tmp_path, capsys, regime):
    # an infinite penalty would turn Newton's step into NaN and the fit
    # into a misleading EstimationError
    data = tmp_path / "d.csv"
    write_trial_csv(data, n=200, full_compliance=False)
    code, _, err = run(capsys, "fit", "--input", str(data), "--regime", regime,
                       "--ridge", "inf", "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_DATA
    assert json.loads(err) == {"error": "InputError",
                               "message": "ridge_lambda must be finite"}
    assert not (tmp_path / "o").exists()


def test_predict_round_trip(tmp_path, capsys):
    data = tmp_path / "d2.csv"
    run(capsys, "simulate", "--design", "2", "--n", "1500", "--seed", "8",
        "--out", str(data))
    fit_dir = tmp_path / "fit"
    features = ",".join(f"x{i}" for i in range(1, 11))
    code, _, err = run(capsys, "fit", "--input", str(data),
                       "--regime", "iv-randomized", "--features", features,
                       "--out-dir", str(fit_dir), "--seed", "8")
    assert code == EXIT_OK, err
    preds = tmp_path / "preds.csv"
    code, stdout, err = run(capsys, "predict", "--tree", str(fit_dir / "tree.json"),
                            "--input", str(data), "--output", str(preds))
    assert code == EXIT_OK, err
    lines = preds.read_text().splitlines()
    assert lines[0] == "leaf_id,itt_hat,cace_hat,cace_se"
    assert len(lines) == 1501
    # every row's numbers equal its leaf's report entry
    report = {}
    for line in (fit_dir / "leaf_report.csv").read_text().splitlines()[1:]:
        f = line.split(",")
        report[f[0]] = (f[2], f[4], f[5])
    for line in lines[1:]:
        leaf_id, itt, cace, se = line.split(",")
        assert (itt, cace, se) == report[leaf_id]


def test_predict_header_only_input(tmp_path, capsys):
    data = tmp_path / "d1.csv"
    run(capsys, "simulate", "--design", "1", "--n", "800", "--seed", "2",
        "--out", str(data))
    fit_dir = tmp_path / "fit"
    run(capsys, "fit", "--input", str(data), "--regime", "iv-randomized",
        "--features", "x1", "--out-dir", str(fit_dir), "--seed", "2")
    empty = tmp_path / "empty.csv"
    empty.write_text("x1\n")
    out = tmp_path / "preds.csv"
    code, stdout, _ = run(capsys, "predict", "--tree", str(fit_dir / "tree.json"),
                          "--input", str(empty), "--output", str(out))
    assert code == EXIT_OK
    assert out.read_text() == "leaf_id,itt_hat,cace_hat,cace_se\n"
    assert "0 predictions" in stdout


def test_predict_feature_mismatch(tmp_path, capsys):
    data = tmp_path / "d1.csv"
    run(capsys, "simulate", "--design", "1", "--n", "800", "--seed", "2",
        "--out", str(data))
    fit_dir = tmp_path / "fit"
    run(capsys, "fit", "--input", str(data), "--regime", "iv-randomized",
        "--features", "x1", "--out-dir", str(fit_dir), "--seed", "2")
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("a,b\n1.0,2.0\n")
    code, _, err = run(capsys, "predict", "--tree", str(fit_dir / "tree.json"),
                       "--input", str(wrong), "--output", str(tmp_path / "p.csv"))
    assert code == EXIT_DATA
    assert "x1" in json.loads(err)["message"]


def test_bench_small_run(tmp_path, capsys):
    out = tmp_path / "bench"
    code, stdout, err = run(capsys, "bench", "--designs", "2", "--sizes", "300",
                            "--seeds", "1", "--out-dir", str(out))
    assert code == EXIT_OK, err
    rows = (out / "results.csv").read_text().splitlines()
    assert len(rows) == 2  # header plus one cell
    assert "Rel. gap %" in (out / "summary.txt").read_text()
    run_cfg = json.loads((out / "run.json").read_text())
    assert run_cfg["resolved"]["n_cells"] == 1
    assert run_cfg["resolved"]["n_failures"] == 0
    # byte-stable on rerun
    out2 = tmp_path / "bench2"
    run(capsys, "bench", "--designs", "2", "--sizes", "300", "--seeds", "1",
        "--out-dir", str(out2))
    assert (out / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()


def test_bench_bytes_do_not_depend_on_workers(tmp_path, capsys, monkeypatch):
    grid = ("--designs", "1,s1", "--sizes", "300", "--seeds", "2")
    outs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(ctiv.parallel, "usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        code, stdout, err = run(capsys, "bench", *grid, "--out-dir", str(out))
        assert code == EXIT_OK, err
        # progress lines only from a sweep run in this process
        assert stdout.count("done design") == (4 if cpus == 1 else 0)
        outs[cpus] = out
    configs = {}
    for cpus, out in outs.items():
        for name in ("results.csv", "summary.txt"):
            assert (out / name).read_bytes() == (outs[1] / name).read_bytes()
        cfg = json.loads((out / "run.json").read_text())
        cfg["options"].pop("out_dir")
        configs[cpus] = cfg
    assert configs[1] == configs[2]


def round_trip(capsys):
    """simulate, fit and predict on 25,000 rows, then a sweep of two cells,
    in the working directory: every file's bytes, by path, and the
    sweep's progress lines."""
    features = ",".join(f"x{i}" for i in range(1, 11))
    for argv in (("simulate", "--design", "2", "--n", "25000", "--seed", "4",
                  "--out", "sample.csv"),
                 ("fit", "--input", "sample.csv", "--regime", "iv-randomized",
                  "--features", features, "--out-dir", "fit"),
                 ("predict", "--tree", "fit/tree.json", "--input", "sample.csv",
                  "--output", "predict.csv"),
                 ("bench", "--designs", "1", "--sizes", "300", "--seeds", "2",
                  "--out-dir", "bench")):
        code, stdout, err = run(capsys, *argv)
        assert code == EXIT_OK, err
    files = {str(p): p.read_bytes() for p in sorted(Path().rglob("*")) if p.is_file()}
    return files, stdout.count("done design")


@pytest.mark.skipif(not ctiv.parallel.fork_is_safe(), reason="cannot fork here")
def test_commands_beside_another_thread_start_no_process(tmp_path, capsys, monkeypatch):
    # a thread holding a lock at a fork would leave it held in the child,
    # so with a second thread alive every command stays in this process
    # and writes the bytes it writes with forked workers
    pools = []
    real = ctiv.parallel.ProcessPoolExecutor
    monkeypatch.setattr(ctiv.parallel, "ProcessPoolExecutor",
                        lambda n, **kw: pools.append(n) or real(n, **kw))
    monkeypatch.setattr(ctiv.parallel, "usable_cpus", lambda: 2)
    (tmp_path / "forked").mkdir()
    monkeypatch.chdir(tmp_path / "forked")
    forked, forked_progress = round_trip(capsys)
    # simulate's writer, fit's reader and holdout tree, predict's reader,
    # the sweep's cells; only a sweep run here prints progress lines
    assert ctiv.tree._OVERLAP_ROWS < 25_000 and pools == [2, 2, 1, 2, 2]
    assert forked_progress == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(ctiv.parallel, "ProcessPoolExecutor", no_pool)
    (tmp_path / "alone").mkdir()
    monkeypatch.chdir(tmp_path / "alone")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        assert not ctiv.parallel.fork_is_safe()
        alone, alone_progress = round_trip(capsys)
    finally:
        stop.set()
        thread.join(60)
    assert not thread.is_alive()
    assert alone_progress == 2
    assert list(alone) == list(forked)
    assert alone == forked


def test_bench_default_on_one_cpu_is_serial(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ctiv.parallel, "ProcessPoolExecutor", None)
    monkeypatch.setattr(ctiv.parallel, "usable_cpus", lambda: 1)
    code, stdout, err = run(capsys, "bench", "--designs", "1", "--sizes", "300",
                            "--seeds", "2", "--out-dir", str(tmp_path))
    assert code == EXIT_OK, err
    assert stdout.count("done design") == 2
    assert "workers" not in json.loads((tmp_path / "run.json").read_text())["options"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def _one_feature_tree(tmp_path, capsys):
    """A tree.json fitted on x1 alone that splits on it, so predict reads
    x1: unpruned, since the holdout's pick here is the bare root."""
    data = tmp_path / "d1.csv"
    run(capsys, "simulate", "--design", "1", "--n", "800", "--seed", "2",
        "--out", str(data))
    fit_dir = tmp_path / "fit"
    code, _, err = run(capsys, "fit", "--input", str(data), "--regime",
                       "iv-randomized", "--features", "x1", "--alpha", "0",
                       "--out-dir", str(fit_dir), "--seed", "2")
    assert code == EXIT_OK, err
    assert load_json((fit_dir / "tree.json").read_text()).split_features() == [0]
    return fit_dir / "tree.json"


@pytest.mark.parametrize("text, row, value", [
    ("x1\nnan\ninf\n", 1, "nan"),
    ("x1\n0.5\ninf\n", 2, "inf"),
    ("x1\r\n0.5\r\n1\r\n-Infinity\r\n", 3, "-inf"),
])
def test_predict_rejects_non_finite_features(tmp_path, capsys, text, row, value):
    tree = _one_feature_tree(tmp_path, capsys)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text.encode("utf-8"))
    out = tmp_path / "p.csv"
    code, _, err = run(capsys, "predict", "--tree", str(tree),
                       "--input", str(bad), "--output", str(out))
    assert code == EXIT_DATA
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert payload["message"] == (
        f"{bad}: non-finite value {value} for column 'x1' at data row {row}")
    assert not out.exists()


def test_fit_names_the_first_non_finite_cell(tmp_path, capsys):
    # fit once called a nan outcome a covariate problem and named no cell;
    # it now refuses the first non-finite cell in row order, as predict does
    bad = tmp_path / "bad.csv"
    for rows, message in [
            ("1.0,1,1,0.5\nnan,0,0,0.2\n2.0,1,0,inf\n", "nan for column 'y' at data row 2"),
            ("1.0,1,1,0.5\n2.0,0,0,-inf\nnan,1,0,0.2\n", "-inf for column 'x1' at data row 2")]:
        bad.write_text(f"y,w,z,x1\n{rows}0.5,0,1,0.1\n")
        code, _, err = run(capsys, "fit", "--input", str(bad), "--regime", "iv-randomized",
                           "--out-dir", str(tmp_path / "o"))
        assert code == EXIT_DATA
        assert json.loads(err) == {"error": "ValidationError",
                                   "message": f"{bad}: non-finite value {message}"}
    assert not (tmp_path / "o").exists()


def test_predict_malformed_tree_exit_data(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    tree.write_text('{"format":"ctiv-tree"}')
    data = tmp_path / "x.csv"
    data.write_text("x1\n0.5\n")
    code, _, err = run(capsys, "predict", "--tree", str(tree),
                       "--input", str(data), "--output", str(tmp_path / "p.csv"))
    assert code == EXIT_DATA
    assert json.loads(err)["error"] == "ValidationError"


def test_predict_leaf_without_an_estimate_exit_data(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_trial_csv(data, n=300)
    code, _, err = run(capsys, "fit", "--input", str(data), "--regime", "ct",
                       "--alpha", "1e9", "--out-dir", str(tmp_path / "fit"))
    assert code == EXIT_OK, err
    tree = tmp_path / "fit" / "tree.json"
    payload = json.loads(tree.read_text())
    payload["tree"]["estimate"] = None      # a leaf must carry its estimate
    tree.write_text(json.dumps(payload))
    message = "leaf 1: estimate None is not an object"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        load_json(tree.read_text())
    code, _, err = run(capsys, "predict", "--tree", str(tree), "--input", str(data),
                       "--output", str(tmp_path / "p.csv"))
    assert code == EXIT_DATA
    assert json.loads(err) == {"error": "ValidationError", "message": message}
    assert not (tmp_path / "p.csv").exists()


def test_predict_reads_a_tree_json_with_a_byte_order_mark(tmp_path, capsys):
    data = tmp_path / "d.csv"
    write_trial_csv(data, n=300)
    code, _, err = run(capsys, "fit", "--input", str(data), "--regime", "ct",
                       "--out-dir", str(tmp_path / "fit"))
    assert code == EXIT_OK, err
    plain = tmp_path / "fit" / "tree.json"
    bom = tmp_path / "bom.json"
    bom.write_bytes("\ufeff".encode() + plain.read_bytes())
    for tree in (plain, bom):
        code, _, err = run(capsys, "predict", "--tree", str(tree), "--input", str(data),
                           "--output", str(tmp_path / f"{tree.stem}.csv"))
        assert code == EXIT_OK, err
    assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "tree.csv").read_bytes()


def _deep_tree_text(depth):
    """tree.json text whose left children nest ``depth`` levels, each node
    well formed, so loading recurses as deep as the text goes."""
    nodes = "".join(f'{{"node_id": {1 << level}, "n": 2, "n1": 1, "n0": 1, '
                    f'"tau": 0.0, "feature": 0, "threshold": 0.0, "right": {{}}, '
                    f'"left": ' for level in range(depth))
    return ('{"format": "ctiv-tree", "version": 1, "meta": {"feature_names": '
            '["x1"], "propensity": null}, "tree": ' + nodes + "{}" + "}" * (depth + 1))


def test_predict_tree_nested_too_deeply_exit_data(tmp_path, capsys):
    with pytest.raises(ValidationError, match="lacks key 'node_id'"):
        load_json(_deep_tree_text(5))   # the innermost {} is the only fault
    text = _deep_tree_text(5000)
    with pytest.raises(ValidationError, match="^JSON nested too deeply to load$"):
        load_json(text)
    tree = tmp_path / "tree.json"
    tree.write_text(text)
    data = tmp_path / "x.csv"
    data.write_text("x1\n0.5\n")
    out = tmp_path / "p.csv"
    code, _, err = run(capsys, "predict", "--tree", str(tree),
                       "--input", str(data), "--output", str(out))
    assert code == EXIT_DATA
    assert err.count("\n") == 1 and "Traceback" not in err
    assert json.loads(err) == {"error": "ValidationError",
                               "message": "JSON nested too deeply to load"}
    assert not out.exists()


def test_predict_reports_bad_cell(tmp_path, capsys):
    tree = _one_feature_tree(tmp_path, capsys)
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,label\n0.5,a\n,b\n")
    code, _, err = run(capsys, "predict", "--tree", str(tree),
                       "--input", str(bad), "--output", str(tmp_path / "p.csv"))
    assert code == EXIT_DATA
    assert json.loads(err) == {
        "error": "ValidationError",
        "message": "blank value for column 'x1' at data row 2"}


def _split_tree(tmp_path, capsys, *options):
    """The path of a 2,000-row design-2 sample, the path of the tree.json
    fitted on its x1..x10 with ``options``, and that tree."""
    data = tmp_path / "d2.csv"
    run(capsys, "simulate", "--design", "2", "--n", "2000", "--seed", "5",
        "--out", str(data))
    fit_dir = tmp_path / "fit"
    code, _, err = run(capsys, "fit", "--input", str(data), "--regime", "iv-randomized",
                       "--features", ",".join(f"x{i}" for i in range(1, 11)),
                       "--seed", "5", "--out-dir", str(fit_dir), *options)
    assert code == EXIT_OK, err
    return data, fit_dir / "tree.json", load_json((fit_dir / "tree.json").read_text())


def _with_cells(source, target, cells, header=None):
    """``source``'s CSV text with ``cells`` ({(data row, column): text})
    put in, and its header row replaced by ``header`` if given."""
    lines = source.read_bytes().decode().split("\r\n")
    names = lines[0].split(",")
    for (row, column), text in cells.items():
        line = lines[row].split(",")
        line[names.index(column)] = text
        lines[row] = ",".join(line)
    if header is not None:
        lines[0] = ",".join(header)
    target.write_bytes("\r\n".join(lines).encode())


def _predict(capsys, tree, data, shared):
    """``predict`` of ``data``, in this process or in pieces of 16 KiB
    shared among up to 3 processes; the exit code, stderr and output."""
    out = data.with_suffix(".out")
    with contextlib.ExitStack() as stack:
        if shared:
            stack.enter_context(mock.patch.object(ctiv.dataset, "_SHARE_BYTES", 1 << 14))
            stack.enter_context(mock.patch.object(ctiv.parallel, "usable_cpus",
                                                  return_value=3))
        code, _, err = run(capsys, "predict", "--tree", str(tree), "--input", str(data),
                           "--output", str(out))
    return code, err, out.read_bytes() if out.exists() else None


JUNK = ["abc", "nan", ""]


@pytest.mark.parametrize("shared", [False, True])
def test_predict_reads_only_the_columns_its_splits_test(tmp_path, capsys, shared):
    data, tree_path, tree = _split_tree(tmp_path, capsys, "--max-depth", "2", "--alpha", "0")
    split = [tree.feature_names[f] for f in tree.split_features()]
    unsplit = [name for name in tree.feature_names if name not in split]
    assert split and unsplit
    # text, nan and blank cells early and late in every column no split
    # tests, and a header naming one of them twice, where true_cate was
    cells = {(row, column): JUNK[(row + i) % 3]
             for i, column in enumerate(unsplit) for row in (1, 2, 3, 1500, 2000)}
    header = data.read_bytes().split(b"\r\n", 1)[0].decode().split(",")
    junk = tmp_path / "junk.csv"
    _with_cells(data, junk, cells, [*header[:-1], unsplit[0]])
    assert data.stat().st_size >= 2 * (1 << 14)
    clean = _predict(capsys, tree_path, data, shared)
    assert clean[:2] == (EXIT_OK, "")
    assert _predict(capsys, tree_path, junk, shared) == clean


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("text, message", [
    ("abc", "non-numeric value 'abc' for column '{column}' at data row 1500"),
    ("nan", "{path}: non-finite value nan for column '{column}' at data row 1500"),
    ("", "blank value for column '{column}' at data row 1500"),
])
def test_predict_refuses_a_bad_cell_in_a_split_column(tmp_path, capsys, shared, text,
                                                      message):
    data, tree_path, tree = _split_tree(tmp_path, capsys, "--max-depth", "2", "--alpha", "0")
    column = tree.feature_names[tree.split_features()[-1]]
    bad = tmp_path / "bad.csv"
    _with_cells(data, bad, {(1500, column): text})
    code, err, out = _predict(capsys, tree_path, bad, shared)
    assert code == EXIT_DATA and out is None
    assert json.loads(err) == {"error": "ValidationError",
                               "message": message.format(path=bad, column=column)}


@pytest.mark.parametrize("shared", [False, True])
def test_predict_with_a_one_leaf_tree_reads_no_column(tmp_path, capsys, shared):
    data, tree_path, tree = _split_tree(tmp_path, capsys, "--alpha", "1e300")
    assert tree.split_features() == [] and tree.root.is_leaf
    cells = {(row, f"x{i}"): JUNK[(row + i) % 3] for i in range(1, 11) for row in range(1, 2001)}
    junk = tmp_path / "junk.csv"
    _with_cells(data, junk, cells)
    code, err, out = _predict(capsys, tree_path, junk, shared)
    assert (code, err) == (EXIT_OK, "")
    root = tree.estimates[0]
    row = f"1,{root.itt_hat!r},{root.cace_hat!r},{root.cace_se!r}\n"
    assert out.decode() == "leaf_id,itt_hat,cace_hat,cace_se\n" + row * 2000
    # every row's cells are still counted
    lines = junk.read_bytes().split(b"\r\n")
    lines[1700] = b",".join(lines[1700].split(b",")[:6])
    short = tmp_path / "short.csv"
    short.write_bytes(b"\r\n".join(lines))
    code, err, out = _predict(capsys, tree_path, short, shared)
    assert code == EXIT_DATA and out is None
    assert json.loads(err) == {"error": "ValidationError",
                               "message": f"{short}: data row 1700 has 6 cells, expected 14"}


def _late_byte_csv(path):
    # the bad byte sits past the first 8 KiB, which the header read decodes
    lines = ["y,w,z,x1"] + [f"{i},{i % 2},{i // 2 % 2},0.5" for i in range(2000)]
    path.write_bytes("\n".join(lines).encode() + b"\xe9\n")


@pytest.mark.parametrize("command, bad", [
    ("fit", "header"), ("fit", "late"), ("predict", "header"),
    ("predict", "late"), ("predict", "tree"),
])
def test_non_utf8_file_exit_data(tmp_path, capsys, command, bad):
    path = tmp_path / ("tree.json" if bad == "tree" else "bad.csv")
    if bad == "late":
        _late_byte_csv(path)
    elif bad == "header":
        path.write_bytes(b"y,w,z,x\xe91\n1,1,0,0.5\n")
    else:
        path.write_bytes(b'{"format": "ctiv-tree\xe9"}')
    if command == "fit":
        argv = ["fit", "--input", str(path), "--regime", "ct",
                "--out-dir", str(tmp_path / "o")]
    else:
        tree = path if bad == "tree" else _one_feature_tree(tmp_path, capsys)
        data = tmp_path / "x.csv"
        data.write_text("x1\n0.5\n")
        argv = ["predict", "--tree", str(tree),
                "--input", str(data if bad == "tree" else path),
                "--output", str(tmp_path / "p.csv")]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_DATA
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert payload["message"].startswith(f"{path}: not UTF-8 text")


@pytest.mark.parametrize("big_row", [1, 2])
def test_cell_over_csv_field_limit_exit_data(tmp_path, capsys, big_row):
    # the oversized cell is in a column that is not read
    rows = ["1,1,0,0.5,a", "0,0,1,0.2,b"]
    rows[big_row - 1] = rows[big_row - 1][:-1] + "x" * 200_000
    data = tmp_path / "big.csv"
    data.write_text("y,w,z,x1,big\n" + "\n".join(rows) + "\n")
    code, _, err = run(capsys, "fit", "--input", str(data), "--regime", "ct",
                       "--features", "x1", "--out-dir", str(tmp_path / "o"))
    assert code == EXIT_DATA
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert payload["message"].startswith(f"{data}: data row {big_row}: field larger")


def test_simulate_scenario_one_explicit_target(tmp_path, capsys):
    out = tmp_path / "s1.csv"
    code, _, err = run(capsys, "simulate", "--scenario", "1", "--cor-wz", "0.6",
                       "--n", "300", "--seed", "1", "--out", str(out))
    assert code == EXIT_OK, err
    meta = json.loads((tmp_path / "s1.csv.meta.json").read_text())
    assert meta["target_cor_wz"] == 0.6 and meta["scenario"] == 1


def test_cor_wz_too_close_to_one_exit_data(tmp_path, capsys):
    # 0.5 + cor_wz / 2 rounds to 1.0, so the threshold cannot be calibrated
    code, _, err = run(capsys, "simulate", "--design", "2", "--n", "50",
                       "--cor-wz", "0.9999999999999999",
                       "--out", str(tmp_path / "s.csv"))
    assert code == EXIT_DATA
    assert err.count("\n") == 1 and "Traceback" not in err
    assert json.loads(err)["error"] == "InputError"
    assert not (tmp_path / "s.csv").exists()


def test_recorded_key_sets(tmp_path, capsys):
    data = tmp_path / "d1.csv"
    code, _, err = run(capsys, "simulate", "--design", "1", "--n", "600",
                       "--seed", "4", "--out", str(data))
    assert code == EXIT_OK, err
    assert set(json.loads((tmp_path / "d1.csv.meta.json").read_text())) == {
        "design_id", "scenario", "n", "seed", "k", "error_dist",
        "target_cor_wz", "target_cor_weta", "realized_cor_wz",
        "realized_cor_weta", "true_cate_column"}
    code, _, err = run(capsys, "fit", "--input", str(data), "--regime",
                       "iv-randomized", "--features", "x1",
                       "--out-dir", str(tmp_path / "fit"))
    assert code == EXIT_OK, err
    fit_cfg = json.loads((tmp_path / "fit" / "run.json").read_text())
    assert fit_cfg["command"] == "fit"
    assert set(fit_cfg["options"]) == {
        "input", "regime", "y_col", "w_col", "z_col", "features", "max_depth",
        "min_leaf_fraction", "min_arm_count", "alpha", "ridge", "trim_lo",
        "trim_hi", "train_frac", "seed", "out_dir"}
    code, _, err = run(capsys, "bench", "--designs", "1", "--sizes", "300",
                       "--seeds", "1", "--out-dir", str(tmp_path / "bench"))
    assert code == EXIT_OK, err
    bench_cfg = json.loads((tmp_path / "bench" / "run.json").read_text())
    assert bench_cfg["command"] == "bench"
    assert set(bench_cfg["options"]) == {
        "designs", "sizes", "seeds", "base_seed", "max_depth",
        "min_leaf_fraction", "min_arm_count", "out_dir"}


# --- fuzz: malformed CSV and tree.json through main, shares forced small ---

FUZZ = settings(max_examples=50, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
CSV_BYTES = [b"", b",", b"\n", b"\r", b"\r\n", b'"', b"\xff", b"\xc3", b"nan",
             b"inf", b"2", b"-", b"e", b" ", b"#", b"x", b"\x00", b"1e999"]
JSON_BYTES = [b"", b"{", b"}", b"[", b"]", b",", b":", b'"', b"null", b"-1",
              b"1e999", b"NaN", b"true", b"\xff", b"0", b'"x"']
JSON_VALUES = [None, True, -1, 0, 2, 0.5, -1e308, float("nan"), "x", "", [],
               {}, [1, 2], {"a": 1}]


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A simulated CSV and the tree fitted on it, as bytes and text."""
    d = tmp_path_factory.mktemp("fuzz")
    assert main(["simulate", "--design", "2", "--n", "300", "--seed", "3",
                 "--out", str(d / "s.csv")]) == EXIT_OK
    assert main(["fit", "--input", str(d / "s.csv"), "--regime", "iv-randomized",
                 "--min-leaf-fraction", "0.2", "--out-dir", str(d / "fit")]) == EXIT_OK
    return (d / "s.csv").read_bytes(), (d / "fit" / "tree.json").read_text()


def byte_edits(pieces):
    """Up to four (where, insert, cut) edits, and the share of bytes kept."""
    return st.tuples(
        st.lists(st.tuples(st.floats(0, 1), st.sampled_from(pieces),
                           st.integers(0, 3)), max_size=4),
        st.one_of(st.just(1.0), st.floats(0, 1)))


def edited(data: bytes, edits) -> bytes:
    changes, kept = edits
    for where, insert, cut in changes:
        i = int(where * len(data))
        data = data[:i] + insert + data[i + cut:]
    return data[:int(kept * len(data))]


def key_paths(doc):
    """Every key path in a JSON document, dict keys and list indices
    alike, each parent before its children."""
    paths = []

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else (
            enumerate(node) if isinstance(node, list) else ())
        for key, child in items:
            paths.append(path + (key,))
            walk(child, path + (key,))

    walk(doc, ())
    return paths


@st.composite
def tree_edits(draw, text):
    """tree.json with one value replaced or removed, then edited as bytes."""
    doc = json.loads(text)
    path = draw(st.sampled_from(key_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        parent[path[-1]] = draw(st.sampled_from(JSON_VALUES))
    elif isinstance(parent, dict):
        del parent[path[-1]]
    return edited(json.dumps(doc).encode(), draw(byte_edits(JSON_BYTES)))


def main_quietly(*argv):
    """main(argv) with stdout dropped: the exit code and stderr, once main
    returned without raising."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def fuzz_main(*argv):
    """main_quietly(argv) with CSV text over 128 bytes shared out in pieces
    of about 64 bytes."""
    with mock.patch.object(ctiv.dataset, "_SHARE_BYTES", 64), \
            mock.patch.object(ctiv.parallel, "usable_cpus", return_value=3):
        return main_quietly(*argv)


def assert_clean_exit(code, err):
    assert code in (EXIT_OK, EXIT_DATA, EXIT_ESTIMATION)
    if code != EXIT_OK:
        assert err.endswith("\n") and len(err.splitlines()) == 1
        assert set(json.loads(err)) == {"error", "message"}


@FUZZ
@given(st.data())
def test_fit_on_malformed_csv_exits_cleanly(fitted, data):
    csv_bytes, _ = fitted
    regime = data.draw(st.sampled_from(["ct", "iv-randomized", "iv-unconfounded"]))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "in.csv"
        path.write_bytes(edited(csv_bytes, data.draw(byte_edits(CSV_BYTES))))
        assert_clean_exit(*fuzz_main("fit", "--input", str(path), "--regime", regime,
                                     "--min-leaf-fraction", "0.2",
                                     "--out-dir", str(Path(d) / "o")))


@FUZZ
@given(st.data())
def test_predict_on_malformed_csv_or_tree_exits_cleanly(fitted, data):
    csv_bytes, tree_text = fitted
    with tempfile.TemporaryDirectory() as d:
        tree, path = Path(d) / "tree.json", Path(d) / "in.csv"
        tree.write_bytes(data.draw(st.one_of(st.just(tree_text.encode()),
                                             tree_edits(tree_text))))
        path.write_bytes(edited(csv_bytes, data.draw(byte_edits(CSV_BYTES))))
        assert_clean_exit(*fuzz_main("predict", "--tree", str(tree),
                                     "--input", str(path),
                                     "--output", str(Path(d) / "p.csv")))


# --- tree.json, key by key: each key dropped or set to each value ---

DROP = object()                         # stands for deleting the key
TREE_VALUES = [None, True, 0, -1, 1.5, float("nan"), float("inf"), -float("inf"),
               "x", [], {}, [1], 10 ** 400, -10 ** 400]


@functools.cache
def keyed_tree():
    """The tree.json text of a 4-leaf iv-unconfounded fit, with a
    propensity record (design 2, 3,000 rows, seed 1, depth 2, alpha 0);
    every key path in it, list indices included; and a CSV of 20 of its
    rows."""
    ds = generate(design_spec(2, 3000, 1)).dataset
    cfg = GrowthConfig(regime="iv-unconfounded", max_depth=2, alpha_override=0.0)
    tree = fit_ctiv(ds, cfg, holdout_split(ds, (0.5, 0.5), seed=1), 1)
    assert tree.root.n_leaves() == 4
    text = export_json(tree)
    rows = [",".join(ds.feature_names)]
    rows += [",".join(map(repr, row)) for row in ds.covariates[:20].tolist()]
    return text, tuple(key_paths(json.loads(text))), "\n".join(rows) + "\n"


@settings(max_examples=400, deadline=None)
@given(path=st.deferred(lambda: st.sampled_from(keyed_tree()[1])),
       value=st.sampled_from([DROP, *TREE_VALUES]))
@example(path=("meta", "propensity", "coefficients", 0), value=10 ** 400)
@example(path=("tree", "left", "left", "estimate"), value=None)
def test_predict_on_a_tree_json_with_a_key_dropped_or_retyped(path, value):
    text, _, csv_text = keyed_tree()
    doc = json.loads(text)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as d:
        tree, data = Path(d) / "tree.json", Path(d) / "x.csv"
        tree.write_text(json.dumps(doc, sort_keys=True, indent=1))
        data.write_text(csv_text)
        code, err = main_quietly("predict", "--tree", str(tree), "--input", str(data),
                                 "--output", str(Path(d) / "p.csv"))
        if code == EXIT_OK:
            again = export_json(load_json(tree.read_text()))
            assert export_json(load_json(again)) == again
        else:
            assert code == EXIT_DATA
            assert err.count("\n") == 1
            assert issubclass(getattr(ctiv.errors, json.loads(err)["error"]), CtivError)


@pytest.mark.parametrize("depth, code", [(62, EXIT_OK), (63, EXIT_DATA)])
def test_predict_on_a_chained_tree_json_as_deep_as_leaf_ids_reach(tmp_path, depth, code):
    # every right child a leaf: the left spine's last ids are 2**depth and
    # 2**depth + 1, which from depth 63 an int64 leaf id cannot hold
    text, _, csv_text = keyed_tree()
    doc = json.loads(text)
    branch, leaf = doc["tree"], doc["tree"]["left"]["left"]

    def chain(levels, node_id):
        if levels == 0:
            return {**leaf, "node_id": node_id,
                    "estimate": {**leaf["estimate"], "leaf_id": node_id}}
        return {**branch, "node_id": node_id, "left": chain(levels - 1, 2 * node_id),
                "right": chain(0, 2 * node_id + 1)}

    doc["tree"] = chain(depth, 1)
    tree, data = tmp_path / "tree.json", tmp_path / "x.csv"
    tree.write_text(json.dumps(doc))
    data.write_text(csv_text)
    got, err = main_quietly("predict", "--tree", str(tree), "--input", str(data),
                            "--output", str(tmp_path / "p.csv"))
    assert got == code, err
    if code == EXIT_DATA:
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "ValidationError",
                                   "message": f"node {2 ** 63} lies deeper than 62 levels"}


# --- generated CSVs through fit: a clean refusal or a sound tree ---

HEADERS = ["y,w,z,x1,x2", " y , w ,z,x1,x2", "y,w,z,x1,x1", "y,w,z,,x2",
           "y,w,z,x1,", "y,w,z,y,x2"]
ARMS = ["as drawn", "z all one", "w all zero", "one assigned", "one unassigned"]
CELL_EDITS = {"nan": "nan", "inf": "inf", "-inf": "-inf", "1e300": "1e300",
              "-1e300": "-1e300", "empty": "", "quoted": '"{}"', "padded": "  {} "}


def trial_csv(n, seed, header=HEADERS[0], arms=ARMS[0], edits=(), ragged=None,
              line_end="\n", bom=False):
    """The text of an n-row y,w,z,x1,x2 CSV drawn at ``seed``; ``edits``
    are (row, column, CELL_EDITS key), ``ragged`` a row that loses its
    last cell (negative: gains one)."""
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 2, n)
    w = np.where(rng.random(n) < 0.8, z, 1 - z)
    x = rng.normal(size=(n, 2))
    y = x[:, 0] + w + rng.normal(size=n)
    if arms == "z all one":
        z[:] = 1
    elif arms == "w all zero":
        w[:] = 0
    elif arms.startswith("one"):
        z[:] = arms == "one unassigned"
        z[0] = 1 - z[0]
    rows = [[repr(row[0]), str(row[1]), str(row[2]), repr(row[3]), repr(row[4])]
            for row in zip(y.tolist(), w.tolist(), z.tolist(), *x.T.tolist())]
    for row, col, edit in edits:
        rows[row % n][col] = CELL_EDITS[edit].format(rows[row % n][col])
    if ragged is not None:
        rows[ragged % n] = rows[ragged % n][:-1] if ragged >= 0 else rows[ragged % n] + ["0"]
    lines = [header, *map(",".join, rows)]
    return "\ufeff" * bom + line_end.join(lines) + line_end


def mostly(common, others):
    """``common`` half the time, else one of ``others``."""
    return st.one_of(st.just(common), st.sampled_from(others))


trial_csvs = st.builds(
    trial_csv, n=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
    header=mostly(HEADERS[0], HEADERS[1:]), arms=mostly(ARMS[0], ARMS[1:]),
    edits=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 4),
                             st.sampled_from(list(CELL_EDITS))), max_size=2),
    ragged=st.one_of(st.none(), st.integers(-60, 59)),
    line_end=st.sampled_from(["\n", "\r\n"]), bom=st.booleans())


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=trial_csvs, regime=st.sampled_from(["ct", "iv-randomized", "iv-unconfounded"]))
@example(text="y,w,z,x1\n1.0,1,1,0.5\nnan,0,0,0.2\n2.0,1,0,inf\n0.5,0,1,0.1\n",
         regime="iv-randomized")
@example(text=trial_csv(60, 0, edits=[(7, 3, "quoted")]), regime="iv-unconfounded")
# a huge outcome among the validation rows alone once overflowed their
# holdout loss, a RuntimeWarning on stderr before the JSON error
@example(text=trial_csv(9, 1, edits=[(0, 0, "1e300")]), regime="ct")
def test_fit_on_a_generated_csv_refuses_it_cleanly_or_fits_a_sound_tree(text, regime):
    with tempfile.TemporaryDirectory() as d:
        path, out = Path(d) / "in.csv", Path(d) / "o"
        path.write_bytes(text.encode("utf-8"))
        code, err = main_quietly("fit", "--input", str(path), "--regime", regime,
                                 "--min-arm-count", "2", "--out-dir", str(out))
        if code == EXIT_OK:
            assert err == ""
            written = (out / "tree.json").read_text()
            tree = load_json(written)
            assert export_json(tree) == written
            assert all(np.isfinite(node.tau) for node in ctiv.tree._preorder(tree.root))
        else:
            assert code in (EXIT_DATA, EXIT_ESTIMATION)
            assert err.count("\n") == 1 and err.endswith("\n")
            assert issubclass(getattr(ctiv.errors, json.loads(err)["error"]), CtivError)


# --- every numeric flag at its edges: a clean refusal or a sound run ---

HUGE = str(10 ** 20)
FLAG_VALUES = ["0", "-0.0", "nan", "inf", "-inf", "-1", "1e308", HUGE]
NUMERIC_FLAGS = {
    "fit": ["--max-depth", "--min-leaf-fraction", "--min-arm-count", "--alpha",
            "--ridge", "--trim-lo", "--trim-hi", "--train-frac", "--seed"],
    "simulate": ["--design", "--scenario", "--n", "--seed", "--cor-wz", "--cor-weta"],
    "bench": ["--sizes", "--seeds", "--base-seed", "--max-depth",
              "--min-leaf-fraction", "--min-arm-count"],
}
flag_settings = st.sampled_from(list(NUMERIC_FLAGS)).flatmap(lambda command: st.tuples(
    st.just(command),
    st.dictionaries(st.sampled_from(NUMERIC_FLAGS[command]), st.sampled_from(FLAG_VALUES),
                    min_size=1, max_size=3)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(setting=flag_settings, regime=st.sampled_from(["ct", "iv-randomized", "iv-unconfounded"]))
# leaf ids past int64 once failed predict, draws numpy cannot shape once
# ended simulate and bench in a ValueError traceback, and a sweep listing
# 10**20 cells once ended bench in a MemoryError traceback
@example(setting=("fit", {"--max-depth": "63"}), regime="ct")
@example(setting=("simulate", {"--n": HUGE}), regime="ct")
@example(setting=("bench", {"--sizes": HUGE}), regime="ct")
@example(setting=("bench", {"--seeds": HUGE}), regime="ct")
def test_numeric_flags_at_their_edges_exit_cleanly(setting, regime):
    command, flags = setting
    with tempfile.TemporaryDirectory() as d:
        data, out = Path(d) / "in.csv", Path(d) / "o"
        data.write_text(trial_csv(200, 5))
        base = {
            "fit": ["--input", str(data), "--regime", regime, "--out-dir", str(out)],
            "simulate": ["--n", "50", "--out", str(out / "s.csv")]
                        + ["--design", "2"] * ("--scenario" not in flags),
            "bench": ["--designs", "1", "--sizes", "100", "--seeds", "1",
                      "--out-dir", str(out)],
        }[command]
        code, err = main_quietly(command, *base, *(f"{k}={v}" for k, v in flags.items()))
        if code == EXIT_OK:
            assert err == ""
            if command == "fit":
                written = (out / "tree.json").read_text()
                assert export_json(load_json(written)) == written
        else:
            assert code in (EXIT_USAGE, EXIT_DATA, EXIT_ESTIMATION)
            assert err.count("\n") == 1 and err.endswith("\n")
            kind = json.loads(err)["error"]
            assert kind == "UsageError" or issubclass(getattr(ctiv.errors, kind), CtivError)


def fresh_env():
    src = str(Path(ctiv.dataset.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


# bytes of address space a child may map: numpy, OpenBLAS on one thread
# and ctiv.cli start under it, and neither command below fits in it
ADDRESS_SPACE = 1_500_000_000


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("argv, kind", [
    (["simulate", "--design", "2", "--n", "1000000000", "--out", "s.csv"], "MemoryError"),
    (["bench", "--designs", "1", "--sizes", "100", "--seeds", HUGE, "--out-dir", "b"],
     "InputError"),
])
def test_a_command_too_large_for_memory_exits_2_with_one_line(tmp_path, argv, kind):
    import resource

    def limit():                        # in the child only, before it starts Python
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))

    done = subprocess.run(
        [sys.executable, "-c", "import sys; from ctiv.cli import main; sys.exit(main())",
         *argv], cwd=tmp_path, env=dict(fresh_env(), OPENBLAS_NUM_THREADS="1"),
        preexec_fn=limit, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_DATA, done.stderr
    assert done.stderr.count("\n") == 1
    assert json.loads(done.stderr)["error"] == kind
    assert list(tmp_path.iterdir()) == []


def test_importing_the_cli_leaves_scipy_stats_out():
    # ctiv runs on numpy alone, so no scipy module is loaded at start-up,
    # and statistics only once a sample is drawn; a fresh interpreter, since
    # this one holds both through other tests
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, ctiv, ctiv.cli; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] in ('scipy', 'statistics')))"],
        env=fresh_env(), capture_output=True, text=True, check=True).stdout.strip()
    assert loaded == "[]"


NO_SCIPY_RUN = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None        # any scipy import now raises
from ctiv.cli import main

commands = [["simulate", "--design", "2", "--n", "800", "--seed", "6",
             "--out", "sample.csv"]]
for regime in ("ct", "iv-randomized", "iv-unconfounded"):
    commands.append(["fit", "--input", "sample.csv", "--regime", regime,
                     "--min-leaf-fraction", "0.1", "--out-dir", regime])
commands.append(["predict", "--tree", "iv-unconfounded/tree.json",
                 "--input", "sample.csv", "--output", "predictions.csv"])
commands.append(["bench", "--designs", "2", "--sizes", "300", "--seeds", "1",
                 "--out-dir", "bench"])
for argv in commands:
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def test_every_command_runs_with_scipy_unimportable(tmp_path):
    outputs = {}
    for mode in ("blocked", "plain"):
        (tmp_path / mode).mkdir()
        done = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, mode],
                              cwd=tmp_path / mode, env=fresh_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs[mode] = {p.relative_to(tmp_path / mode): p.read_bytes()
                         for p in sorted((tmp_path / mode).rglob("*")) if p.is_file()}
    assert len(outputs["plain"]) >= 16
    assert outputs["blocked"] == outputs["plain"]
