"""The benchmark harness under ``perfbench/`` still reaches what it uses of ctiv.

That harness is frozen while the package changes, so a rename in ``src/``
would otherwise show only when the benchmark runs. This loads its tracer
by path, patches and restores every site it traces, and makes the calls
of its fit-deep workload on a small sample.
"""

import importlib.util
from pathlib import Path

import ctiv.cli
import ctiv.tree
from ctiv import (
    AssignmentRegime,
    GrowthConfig,
    RegimeKind,
    design_spec,
    export_json,
    generate,
    holdout_split,
    load_json,
    prune_path,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_and_fit_deep_calls_resolve():
    tracing = _load_tracing()
    originals = (ctiv.tree.fit_ctiv, ctiv.cli.main, ctiv.tree.CausalTree.assign_leaves)
    # fit-deep's config, built as the harness builds it
    cfg = GrowthConfig(
        regime=AssignmentRegime(RegimeKind.IV_UNCONFOUNDED), max_depth=10,
        min_leaf_fraction=0.0005, min_arm_count=10)
    assert cfg == GrowthConfig(regime=RegimeKind.IV_UNCONFOUNDED, max_depth=10,
                               min_leaf_fraction=0.0005, min_arm_count=10)
    seed = 3
    ds = generate(design_spec(2, 4000, seed)).dataset
    tracer = tracing.Tracer()
    try:
        tracer.install()                # every traced site must resolve
        split = holdout_split(ds, (0.5, 0.5, 0.0), seed=seed)
        tree = ctiv.tree.fit_ctiv(ds, cfg, split, seed)
        text = export_json(tree)
        assert export_json(load_json(text)) == text
        ids = tree.assign_leaves(ds.covariates)
    finally:
        tracer.uninstall()
    assert (ctiv.tree.fit_ctiv, ctiv.cli.main,
            ctiv.tree.CausalTree.assign_leaves) == originals
    assert set(ids.tolist()) <= set(tree.leaf_map)
    assert len(prune_path(tree.root, tree.n_omega).elements) >= 1
    counts = tracer.counts
    assert counts["tree.fit_ctiv.calls"] == 1 and counts["tree.grow.calls"] == 1
    assert counts["tree.regrow.calls"] == 1
    assert counts["tree.prune_path.elements"] == counts["tree.holdout_loss.calls"] > 0
    assert counts["tree.leaves"] == len(tree.leaf_map)
