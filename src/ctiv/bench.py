"""Paired evaluation of receipt-split vs assignment-split trees.

Each cell (design, size n, replicate) draws 2n units once, hands the
first n to the fitting pipeline (half train, half validation) and holds
the last n out as a test set. Both tree variants consume the identical
draw. Accuracy is mean squared error of the leaf effect against the
generator's true unit-level effect, and the headline comparison is the
relative gap (mse_ct - mse_ctiv) / mse_ct in percent.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from io import StringIO
from typing import NamedTuple

import numpy as np

from . import parallel
from .dataset import holdout_split
from .errors import CtivError, EstimationError, InputError
from .synth import DESIGN_IDS, SCENARIOS, DesignSpec, generate
from .transform import RegimeKind
from .tree import CausalTree, GrowthConfig, fit_ctiv


class MseEvaluation(NamedTuple):
    mse: float
    n_excluded: int


@dataclass(frozen=True)
class BenchResult:
    """One cell of the sweep."""

    design_label: str
    n: int
    seed: int
    mse_ct: float
    mse_ctiv: float
    relative_gap_pct: float
    n_weak_leaves: int
    n_excluded_ct: int
    n_excluded_ctiv: int


def evaluate_mse(tree: CausalTree, test_covariates: np.ndarray,
                 true_cate: np.ndarray) -> MseEvaluation:
    """Mean squared error of leaf CACEs against the true effect.

    Every tree is scored on its leaves' ``cace_hat``: a receipt-split
    leaf's complier share is exactly 1, so there it is the plain weighted
    contrast ``itt_hat`` bit for bit. Test units landing in a leaf whose
    CACE is undefined are excluded and counted.
    """
    truth = np.asarray(true_cate, dtype=np.float64)
    if truth.shape != (np.asarray(test_covariates).shape[0],):
        raise InputError("true_cate must align with test rows")
    ids = tree.assign_leaves(test_covariates)
    leaf_ids = np.array([est.leaf_id for est in tree.estimates])     # ascending
    leaf_effects = np.array([est.cace_hat for est in tree.estimates], dtype=np.float64)
    effects = leaf_effects[np.searchsorted(leaf_ids, ids)]
    usable = np.isfinite(effects)
    n_excluded = int((~usable).sum())
    if not usable.any():
        raise EstimationError("every test unit fell in a leaf without an effect")
    mse = float(np.mean((truth[usable] - effects[usable]) ** 2))
    return MseEvaluation(mse=mse, n_excluded=n_excluded)


def relative_gap(mse_ct: float, mse_ctiv: float) -> float:
    """(mse_ct - mse_ctiv) / mse_ct, in percent."""
    if not (np.isfinite(mse_ct) and np.isfinite(mse_ctiv)):
        raise InputError("MSEs must be finite")
    if mse_ct <= 0.0:
        raise EstimationError("relative gap undefined: receipt-split MSE is 0")
    return 100.0 * (mse_ct - mse_ctiv) / mse_ct


def _cell_seed(base_seed: int, label: str, n: int, rep: int) -> int:
    # label folded in as bytes so the stream is stable across processes
    label_key = int.from_bytes(label.encode("utf-8"), "little")
    ss = np.random.SeedSequence((base_seed, label_key, n, rep))
    return int(ss.generate_state(1)[0])


# each label's (design, scenario): the designs by id, then "s1" and "s2" on design 2
DESIGN_LABELS = {**{str(d): (d, None) for d in DESIGN_IDS},
                 **{f"s{s}": (2, s) for s in SCENARIOS}}


def _spec_for(label: str, n_total: int, seed: int) -> DesignSpec:
    design, scenario = DESIGN_LABELS[label]
    return DesignSpec(design, n_total, seed, scenario=scenario)


def run_cell(label: str, n: int, rep: int, base_seed: int = 0,
             max_depth: int = GrowthConfig.max_depth,
             min_leaf_fraction: float = GrowthConfig.min_leaf_fraction,
             min_arm_count: int = GrowthConfig.min_arm_count) -> BenchResult:
    """Fit CT, then CT-IV, with these growth options on one draw; score both."""
    ct_cfg, iv_cfg = (GrowthConfig(kind, max_depth, min_leaf_fraction, min_arm_count)
                      for kind in (RegimeKind.CT, RegimeKind.IV_RANDOMIZED))
    seed = _cell_seed(base_seed, label, n, rep)
    sample = generate(_spec_for(label, 2 * n, seed))
    est = sample.dataset.subset(np.arange(n))
    test_x = sample.dataset.covariates[n:]
    test_truth = sample.true_cate[n:]
    split = holdout_split(est, (0.5, 0.5), seed=seed)
    ct_tree = fit_ctiv(est, ct_cfg, split, seed)
    iv_tree = fit_ctiv(est, iv_cfg, split, seed)

    ct_eval = evaluate_mse(ct_tree, test_x, test_truth)
    iv_eval = evaluate_mse(iv_tree, test_x, test_truth)
    return BenchResult(
        design_label=label,
        n=n,
        seed=seed,
        mse_ct=ct_eval.mse,
        mse_ctiv=iv_eval.mse,
        relative_gap_pct=relative_gap(ct_eval.mse, iv_eval.mse),
        n_weak_leaves=sum(est.weak_instrument for est in iv_tree.estimates),
        n_excluded_ct=ct_eval.n_excluded,
        n_excluded_ctiv=iv_eval.n_excluded,
    )


# designs x sizes x seeds a sweep may run
MAX_CELLS = 100_000


def _run_cell_args(args) -> BenchResult | dict:
    try:
        return run_cell(*args)
    except CtivError as exc:
        return {"design": args[0], "n": args[1], "rep": args[2],
                "error": type(exc).__name__, "message": str(exc)}


def run_sweep(designs: list[str], sizes: list[int], n_seeds: int,
              base_seed: int = 0, max_depth: int = GrowthConfig.max_depth,
              min_leaf_fraction: float = GrowthConfig.min_leaf_fraction,
              min_arm_count: int = GrowthConfig.min_arm_count,
              progress=None) -> tuple[list[BenchResult], list[dict]]:
    """All cells of designs x sizes x replicates.

    The three growth options apply to both variants; they, the seed, the
    designs and the sizes are checked before any cell, and a design or
    size may not repeat (its draws would count again as further replicates).
    Failing cells are recorded (label, n, rep, error) and skipped.
    A sweep of more than ``MAX_CELLS`` (100,000) cells is refused before
    any cell is listed: it bounds the cell list, not the few cells handed
    to the workers at a time.
    Cells run in ``parallel.fork_workers(len(cells))`` forked processes
    (see ``parallel.fan_out``), or all in this process where that is 1.
    Per-cell seeds make the results identical at any count.
    ``progress(label, n, rep)`` is called as each cell finishes, in cell
    order, only when the cells run in this process.
    """
    if n_seeds < 1:
        raise InputError("n_seeds must be >= 1")
    n_cells = len(designs) * len(sizes) * n_seeds
    if n_cells > MAX_CELLS:
        raise InputError(f"a sweep of {n_cells} cells exceeds the bound of {MAX_CELLS}")
    if base_seed < 0:
        raise InputError(f"base_seed must be nonnegative, got {base_seed}")
    for what, items in (("designs", designs), ("sizes", sizes)):
        if len(set(items)) < len(items):
            raise InputError(f"{what} must not repeat, got {list(items)}")
    if not set(designs) <= DESIGN_LABELS.keys():
        raise InputError(f"designs must be among {list(DESIGN_LABELS)}, got {list(designs)}")
    if min(sizes, default=5) < 5:
        raise InputError(f"sizes must be >= 5 (a cell draws 2n units, at least "
                         f"10), got {min(sizes)}")
    for label in designs:               # each design's largest draw is one numpy can shape
        _spec_for(label, 2 * max(sizes, default=5), base_seed)
    growth = (max_depth, min_leaf_fraction, min_arm_count)
    GrowthConfig(RegimeKind.CT, *growth)        # checks them before any cell
    cells = [(label, n, rep, base_seed, *growth)
             for label in designs for n in sizes for rep in range(n_seeds)]
    results: list[BenchResult] = []
    failures: list[dict] = []
    # a lone cell runs here: a worker would only add a start-up
    workers = parallel.fork_workers(len(cells))
    with parallel.fan_out(_run_cell_args, cells, workers) as outcomes:
        for args, outcome in zip(cells, outcomes):
            (results if isinstance(outcome, BenchResult) else failures).append(outcome)
            if progress and workers == 1:
                progress(*args[:3])
    return results, failures


def aggregate(results: list[BenchResult]) -> dict[tuple[str, int], dict[str, float]]:
    """Per (design, n): means and standard deviations across replicates."""
    cells: dict[tuple[str, int], list[BenchResult]] = {}
    for res in results:
        cells.setdefault((res.design_label, res.n), []).append(res)
    out: dict[tuple[str, int], dict[str, float]] = {}
    for key, rows in cells.items():
        out[key] = {"n_reps": len(rows)}
        for name, field in (("mse_ct", "mse_ct"), ("mse_ctiv", "mse_ctiv"),
                            ("gap", "relative_gap_pct")):
            values = np.array([getattr(r, field) for r in rows])
            out[key][f"{name}_mean"] = float(values.mean())
            # one replicate has no spread
            out[key][f"{name}_sd"] = float(values.std(ddof=1)) if len(rows) > 1 else 0.0
    return out


def format_summary(results: list[BenchResult]) -> str:
    """Design-by-size table: MSE of both variants plus the relative gap."""
    agg = aggregate(results)
    designs = sorted({k[0] for k in agg}, key=list(DESIGN_LABELS).index)
    sizes = sorted({k[1] for k in agg})
    width = 12
    out = StringIO()
    header = "design  metric        " + "".join(f"N={n}".rjust(width) for n in sizes)
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for label in designs:
        rows = [("MSE CT-IV", "mse_ctiv_mean", "{:.3f}"),
                ("MSE CT", "mse_ct_mean", "{:.3f}"),
                ("Rel. gap %", "gap_mean", "{:.1f}")]
        for i, (name, key, fmt) in enumerate(rows):
            cells = []
            for n in sizes:
                stats = agg.get((label, n))
                cells.append(fmt.format(stats[key]).rjust(width)
                             if stats else "-".rjust(width))
            tag = label if i == 0 else ""
            out.write(f"{tag:<7} {name:<13} " + "".join(cells) + "\n")
        out.write("\n")
    return out.getvalue()


def results_csv(results: list[BenchResult]) -> str:
    """Raw per-cell results as CSV text."""
    out = StringIO()
    writer = csv.writer(out)
    writer.writerow(["design", "n", "seed", "mse_ct", "mse_ctiv",
                     "relative_gap_pct", "n_weak_leaves",
                     "n_excluded_ct", "n_excluded_ctiv"])
    for r in results:
        writer.writerow([r.design_label, r.n, r.seed, repr(r.mse_ct),
                         repr(r.mse_ctiv), repr(r.relative_gap_pct),
                         r.n_weak_leaves, r.n_excluded_ct, r.n_excluded_ctiv])
    return out.getvalue()
