"""Spans and counters recorded from outside the ctiv package.

A :class:`Tracer` replaces public ctiv functions, at the module attribute
where each caller looks them up, with wrappers that record a span (name,
start, end, parent) and a few counts per call. ``uninstall`` puts the
original functions back. Nothing inside ``src/`` knows about tracing.

A span's self time is its duration minus the durations of its direct
children. Calls run on one thread, so children never overlap and the self
times of one tree of spans add up to its root's duration.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter, defaultdict
from time import perf_counter

# (metric, unit) for every per-layer metric, in report order. Times and
# counts are per traced round; *_frac values are shares of all calls.
# tree.grow.* cover the first grow call of each fit (the regrow on train +
# validation is tree.regrow); tree.prune_path.elements counts the path that
# alpha selection scores, not the one prune_at_alpha rebuilds.
PER_LAYER_METRICS = (
    ("dataset.load_csv.self_s", "s"),
    ("dataset.save_csv.self_s", "s"),
    ("dataset.trim_by_propensity.self_s", "s"),
    ("dataset.holdout_split.self_s", "s"),
    ("dataset.bytes_read", "bytes"),
    ("dataset.bytes_written", "bytes"),
    ("cli.simulate.self_s", "s"),
    ("cli.fit.self_s", "s"),
    ("cli.predict.self_s", "s"),
    ("cli.bench.self_s", "s"),
    ("tree.grow.self_s", "s"),
    ("tree.regrow.self_s", "s"),
    ("tree.grow.calls", "count"),
    ("tree.grow.nodes", "count"),
    ("tree.prune_path.self_s", "s"),
    ("tree.prune_path.elements", "count"),
    ("tree.select_alpha.self_s", "s"),
    ("tree.holdout_loss.calls", "count"),
    ("tree.prune_at_alpha.self_s", "s"),
    ("tree.fit_ctiv.self_s", "s"),
    ("tree.assign_leaves.self_s", "s"),
    ("tree.export_json.self_s", "s"),
    ("tree.load_json.self_s", "s"),
    ("tree.leaves", "count"),
    ("transform.leaf_weighted_itt.calls", "count"),
    ("transform.leaf_weighted_itt.self_s", "s"),
    ("transform.transformed_outcome.calls", "count"),
    ("transform.transformed_outcome.self_s", "s"),
    ("effects.estimate_leaf.self_s", "s"),
    ("effects.estimate_leaf.calls", "count"),
    ("effects.tsls_ok_frac", "ratio"),
    ("effects.compliers_ok_frac", "ratio"),
    ("effects.weak_leaves", "count"),
    ("propensity.fit_logistic.self_s", "s"),
    ("propensity.fit_logistic.calls", "count"),
    ("propensity.newton_iterations", "count"),
    ("propensity.converged_frac", "ratio"),
    ("synth.generate.self_s", "s"),
    ("synth.generate.calls", "count"),
    ("bench.run_cell.self_s", "s"),
    ("bench.evaluate_mse.self_s", "s"),
    ("bench.failed_cells", "count"),
    ("bench.min_mean_gap_pct", "%"),
)

# ROADMAP aim 1 stages: span names whose inclusive time makes up each
# stage. None of these spans nests inside another of them.
STAGES = (
    ("csv_parse", ("dataset.load_csv",)),
    ("csv_write", ("dataset.save_csv",)),
    ("propensity_fit", ("propensity.fit_logistic",)),
    ("trim", ("dataset.trim_by_propensity",)),
    ("grow", ("tree.grow",)),
    ("pruning_path", ("tree.prune_path",)),
    ("alpha_selection", ("tree.select_alpha",)),
    ("regrow", ("tree.regrow",)),
    ("leaf_estimation", ("effects.estimate_leaf",)),
    ("serialisation", ("tree.export_json", "tree.export_dot", "tree.load_json")),
)

# (module attribute where callers look the function up, span name).
# ctiv.tree, ctiv.effects, ctiv.cli and ctiv.bench import these names into
# their own namespaces, so each of those bindings is replaced separately.
_FUNCTION_SITES = (
    ("ctiv.tree", "fit_logistic", "propensity.fit_logistic"),
    ("ctiv.tree", "trim_by_propensity", "dataset.trim_by_propensity"),
    ("ctiv.tree", "leaf_weighted_itt", "transform.leaf_weighted_itt"),
    ("ctiv.tree", "transformed_outcome", "transform.transformed_outcome"),
    ("ctiv.tree", "estimate_leaf", "effects.estimate_leaf"),
    ("ctiv.tree", "grow", "tree.grow"),
    ("ctiv.tree", "prune_path", "tree.prune_path"),
    ("ctiv.tree", "select_alpha", "tree.select_alpha"),
    ("ctiv.tree", "holdout_loss", "tree.holdout_loss"),
    ("ctiv.tree", "prune_at_alpha", "tree.prune_at_alpha"),
    ("ctiv.tree", "fit_ctiv", "tree.fit_ctiv"),
    ("ctiv.tree", "export_json", "tree.export_json"),
    ("ctiv.tree", "load_json", "tree.load_json"),
    ("ctiv.effects", "leaf_weighted_itt", "transform.leaf_weighted_itt"),
    ("ctiv.cli", "load_csv", "dataset.load_csv"),
    ("ctiv.cli", "save_csv", "dataset.save_csv"),
    ("ctiv.cli", "holdout_split", "dataset.holdout_split"),
    ("ctiv.cli", "generate", "synth.generate"),
    ("ctiv.cli", "fit_ctiv", "tree.fit_ctiv"),
    ("ctiv.cli", "export_json", "tree.export_json"),
    ("ctiv.cli", "export_dot", "tree.export_dot"),
    ("ctiv.cli", "load_json", "tree.load_json"),
    ("ctiv.cli", "run_sweep", "bench.run_sweep"),
    ("ctiv.bench", "generate", "synth.generate"),
    ("ctiv.bench", "fit_ctiv", "tree.fit_ctiv"),
    ("ctiv.bench", "holdout_split", "dataset.holdout_split"),
    ("ctiv.bench", "run_cell", "bench.run_cell"),
    ("ctiv.bench", "evaluate_mse", "bench.evaluate_mse"),
)


def _n_nodes(node) -> int:
    if node.is_leaf:
        return 1
    return 1 + _n_nodes(node.left) + _n_nodes(node.right)


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


class Tracer:
    """In-memory span recorder that patches ctiv while installed."""

    def __init__(self):
        # (name, start, end, parent index or None); end is None while open
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._grows_in_fit: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        self.counts[name + ".calls"] += 1
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order")

    def _enclosing(self, name: str) -> int | None:
        for sid in reversed(self._stack):
            if self.spans[sid][0] == name:
                return sid
        return None

    # --- patching ---

    def _wrap(self, fn, name, label=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = label(args) if label else name
            sid = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                after(result, args, span_name)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Replace every traced ctiv function with its recording wrapper."""
        import ctiv.bench
        import ctiv.cli
        import ctiv.effects
        import ctiv.tree

        modules = {"ctiv.tree": ctiv.tree, "ctiv.effects": ctiv.effects,
                   "ctiv.cli": ctiv.cli, "ctiv.bench": ctiv.bench}
        special = {
            "tree.grow": dict(label=self._grow_label, after=self._after_grow),
            "tree.prune_path": dict(after=self._after_prune_path),
            "tree.fit_ctiv": dict(after=self._after_fit),
            "effects.estimate_leaf": dict(after=self._after_estimate),
            "propensity.fit_logistic": dict(after=self._after_logistic),
            "dataset.load_csv": dict(after=self._after_load_csv),
            "dataset.save_csv": dict(after=self._after_save_csv),
            "bench.run_sweep": dict(after=self._after_sweep),
        }
        for module, attr, name in _FUNCTION_SITES:
            owner = modules[module]
            self._patch(owner, attr,
                        self._wrap(getattr(owner, attr), name,
                                   **special.get(name, {})))
        cls = ctiv.tree.CausalTree
        self._patch(cls, "assign_leaves",
                    self._wrap(cls.assign_leaves, "tree.assign_leaves"))
        self._patch(ctiv.cli, "main",
                    self._wrap(ctiv.cli.main, "cli.main",
                               label=lambda args: f"cli.{args[0][0]}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- labels and counters taken from arguments and results ---

    def _grow_label(self, args) -> str:
        # the second grow call inside one fit_ctiv is the regrow on
        # train + validation
        fit = self._enclosing("tree.fit_ctiv")
        if fit is None:
            return "tree.grow"
        self._grows_in_fit[fit] += 1
        return "tree.grow" if self._grows_in_fit[fit] == 1 else "tree.regrow"

    def _after_grow(self, root, args, span_name) -> None:
        if span_name == "tree.grow":
            self.counts["tree.grow.nodes"] += _n_nodes(root)

    def _after_prune_path(self, path, args, span_name) -> None:
        # count only the path fit_ctiv builds for alpha selection, not the
        # one prune_at_alpha rebuilds on the regrown tree
        if self._enclosing("tree.prune_at_alpha") is None:
            self.counts["tree.prune_path.elements"] += len(path.elements)

    def _after_fit(self, tree, args, span_name) -> None:
        self.counts["tree.leaves"] += tree.root.n_leaves()

    def _after_estimate(self, est, args, span_name) -> None:
        self.counts["effects.tsls_ok"] += math.isfinite(est.cace_se)
        self.counts["effects.compliers_ok"] += est.compliers_ok
        self.counts["effects.weak_leaves"] += est.weak_instrument

    def _after_logistic(self, model, args, span_name) -> None:
        self.counts["propensity.newton_iterations"] += model.iterations
        self.counts["propensity.converged"] += model.converged

    def _after_load_csv(self, ds, args, span_name) -> None:
        self.counts["dataset.bytes_read"] += os.path.getsize(args[0])

    def _after_save_csv(self, result, args, span_name) -> None:
        self.counts["dataset.bytes_written"] += os.path.getsize(args[1])

    def _after_sweep(self, outcome, args, span_name) -> None:
        self.counts["bench.failed_cells"] += len(outcome[1])

    # --- reports ---

    def per_layer(self, n_rounds: int) -> dict[str, float]:
        """Every per-layer metric, times and counts divided by ``n_rounds``.

        ``bench.min_mean_gap_pct`` is not seen at a call boundary; the
        sweep's output check supplies it, and it reads 0 here.
        """
        selfs: defaultdict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            selfs[name] += own
        c = self.counts

        def share(num: str, den: str) -> float:
            return c[num] / c[den] if c[den] else 0.0

        ratios = {
            "effects.tsls_ok_frac": share("effects.tsls_ok",
                                          "effects.estimate_leaf.calls"),
            "effects.compliers_ok_frac": share("effects.compliers_ok",
                                               "effects.estimate_leaf.calls"),
            "propensity.converged_frac": share("propensity.converged",
                                               "propensity.fit_logistic.calls"),
        }
        out = {}
        for name, _ in PER_LAYER_METRICS:
            if name in ratios:
                out[name] = ratios[name]
            elif name.endswith(".self_s"):
                out[name] = selfs[name[:-len(".self_s")]] / n_rounds
            else:
                out[name] = c[name] / n_rounds
        return out

    def stage_split(self, n_rounds: int) -> dict[str, float]:
        """Inclusive seconds per ROADMAP stage, per traced round."""
        total: defaultdict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            total[name] += end - start
        return {stage: sum(total[n] for n in names) / n_rounds
                for stage, names in STAGES}

    def write(self, path) -> None:
        """Spans as JSON lines: id, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
