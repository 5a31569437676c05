"""Causal trees with instrumental variables.

Recursive partitioning of heterogeneous treatment effects that stays
valid when receipt of treatment is confounded: trees split on a clean
assignment indicator, leaf effects are scaled to compliers, and a
paired benchmark harness quantifies the advantage over receipt-split
trees on synthetic designs with known ground truth.
"""

from .bench import (
    BenchResult,
    MseEvaluation,
    aggregate,
    evaluate_mse,
    format_summary,
    relative_gap,
    results_csv,
    run_cell,
    run_sweep,
)
from .dataset import (
    Dataset,
    holdout_split,
    load_csv,
    save_csv,
    trim_by_propensity,
)
from .effects import (
    LeafEstimate,
    estimate_leaf,
    overall_cace,
)
from .errors import CtivError
from .propensity import PropensityModel, estimate_constant_p, fit_logistic
from .synth import (
    DesignSpec,
    SyntheticSample,
    design_spec,
    generate,
)
from .transform import RegimeKind, leaf_weighted_itt, transformed_outcome
from .tree import (
    CausalTree,
    GrowthConfig,
    PruningPath,
    TreeNode,
    export_dot,
    export_json,
    fit_ctiv,
    grow,
    load_json,
    prune_at_alpha,
    prune_path,
    select_alpha,
)

__version__ = "0.1.0"

AssignmentRegime = RegimeKind  # the old name, which perfbench/workloads.py still calls

__all__ = [
    "AssignmentRegime",
    "BenchResult",
    "CausalTree",
    "CtivError",
    "Dataset",
    "DesignSpec",
    "GrowthConfig",
    "LeafEstimate",
    "MseEvaluation",
    "PropensityModel",
    "PruningPath",
    "RegimeKind",
    "SyntheticSample",
    "TreeNode",
    "aggregate",
    "design_spec",
    "estimate_constant_p",
    "estimate_leaf",
    "evaluate_mse",
    "export_dot",
    "export_json",
    "fit_ctiv",
    "format_summary",
    "generate",
    "grow",
    "holdout_split",
    "leaf_weighted_itt",
    "load_csv",
    "load_json",
    "overall_cace",
    "prune_at_alpha",
    "prune_path",
    "relative_gap",
    "results_csv",
    "run_cell",
    "run_sweep",
    "save_csv",
    "select_alpha",
    "transformed_outcome",
    "trim_by_propensity",
]
