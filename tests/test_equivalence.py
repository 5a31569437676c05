"""The fast paths against the reference implementations they replace.

- Growth: the presorted split search against the per-node stable argsort
  it replaced, which is kept below verbatim as the reference; also with
  the split scan's feature blocks patched to 1, 3 and 10 features.
- ``_stable_order`` against ``np.argsort(kind="stable")``.
- The one-pass pruning sweep against the two walks it replaced, one that
  prices a subtree and one that collapses top-down, kept below verbatim;
  and ``prune_at_alpha``, which builds the path only up to alpha, against
  the pick from the whole path.
- The numpy CSV reader, which parses byte pieces of the text, against the
  per-cell parser: the same values bit for bit, or the same error. With
  the piece size patched small, tiny files are cut into many pieces,
  which this process or forked workers parse, and must read exactly as
  in one piece.
- The chunked CSV writer against the per-row ``csv.writer`` loop, and
  its output with several shares against its output with one.
- The one leaf router, behind ``assign_leaves`` and ``holdout_loss``,
  against a walk down the tree one row at a time; and ``evaluate_mse``'s
  gather of leaf effects against a per-row lookup.
- ``holdout_split``'s training mask against the (train, validation) index
  pair it replaced, and the mask's positions among the kept rows against
  the ``isin`` positions ``fit_ctiv`` once took from that pair.
"""

import collections
import contextlib
import csv
import itertools
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ctiv.dataset
import ctiv.parallel
import ctiv.tree
from ctiv import (
    CausalTree,
    Dataset,
    GrowthConfig,
    LeafEstimate,
    RegimeKind,
    design_spec,
    evaluate_mse,
    export_json,
    fit_ctiv,
    generate,
    grow,
    holdout_split,
    load_csv,
    prune_at_alpha,
    prune_path,
    save_csv,
)
from ctiv.dataset import read_csv_columns
from ctiv.errors import CtivError, EstimationError, InputError, ValidationError
from ctiv.transform import leaf_weighted_itt, transformed_outcome
from ctiv.tree import TreeNode, _stable_order, holdout_loss
from datasets import same_dataset, units

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
# each example forks workers, so fewer of them
SHARE_SETTINGS = settings(SETTINGS, max_examples=40)


# --- reference growth: a stable argsort of every feature at every node ---

def ref_best_split_for_feature(x_col, y, d, e, min_leaf, min_arm):
    order = np.argsort(x_col, kind="stable")
    xs = x_col[order]
    cuts = np.flatnonzero(xs[:-1] < xs[1:])
    if cuts.size == 0:
        return None
    yo = y[order]
    do = d[order].astype(np.float64)
    eo = e[order]
    wt = do / eo
    wc = (1.0 - do) / (1.0 - eo)
    c_wty = np.cumsum(wt * yo)
    c_wt = np.cumsum(wt)
    c_wcy = np.cumsum(wc * yo)
    c_wc = np.cumsum(wc)
    c_n1 = np.cumsum(do)
    n = xs.size
    n_left = cuts + 1
    n_right = n - n_left
    n1_left = c_n1[cuts]
    n1_right = c_n1[-1] - n1_left
    n0_left = n_left - n1_left
    n0_right = n_right - n1_right
    valid = (
        (n_left >= min_leaf) & (n_right >= min_leaf)
        & (n1_left >= min_arm) & (n0_left >= min_arm)
        & (n1_right >= min_arm) & (n0_right >= min_arm)
    )
    if not valid.any():
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        tau_left = c_wty[cuts] / c_wt[cuts] - c_wcy[cuts] / c_wc[cuts]
        tau_right = ((c_wty[-1] - c_wty[cuts]) / (c_wt[-1] - c_wt[cuts])
                     - (c_wcy[-1] - c_wcy[cuts]) / (c_wc[-1] - c_wc[cuts]))
        gain = n_left * tau_left ** 2 + n_right * tau_right ** 2
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))
    threshold = float((xs[cuts[best]] + xs[cuts[best] + 1]) / 2.0)
    return float(gain[best]), threshold


def ref_grow_node(x, y, d, e, node_id, depth, cfg, min_leaf, noise):
    # the children of node k are 2k and 2k+1
    n = y.size
    n1 = int(d.sum())
    tau = leaf_weighted_itt(y, d, e)
    node = TreeNode(n=n, n1=n1, n0=n - n1, tau=float(tau), node_id=node_id)
    if depth >= cfg.max_depth:
        return node
    best = None
    for f in range(x.shape[1]):
        cand = ref_best_split_for_feature(x[:, f], y, d, e, min_leaf,
                                          cfg.min_arm_count)
        if cand is not None and (best is None or cand[0] > best[1]):
            best = (f, cand[0], cand[1])
    if best is None:
        return node
    feature, gain, threshold = best[0], best[1], best[2]
    if gain - n * tau * tau <= n * noise:
        return node
    mask = x[:, feature] <= threshold
    left = ref_grow_node(x[mask], y[mask], d[mask], e[mask], 2 * node_id, depth + 1,
                         cfg, min_leaf, noise)
    right = ref_grow_node(x[~mask], y[~mask], d[~mask], e[~mask], 2 * node_id + 1,
                          depth + 1, cfg, min_leaf, noise)
    return replace(node, feature=int(feature), threshold=float(threshold),
                   left=left, right=right)


def ref_grow(train, e, cfg):
    n = train.n_units
    d = (train.w if cfg.regime is RegimeKind.CT else train.z).astype(np.int64)
    min_leaf = max(1, math.ceil(cfg.min_leaf_fraction * n))
    n1 = int(d.sum())
    if min(n1, n - n1) < cfg.min_arm_count:
        raise EstimationError(
            f"root has arm counts ({n1}, {n - n1}); need >= {cfg.min_arm_count} each")
    # outcomes whose squares underflow are refused: gains would fall into
    # subnormals and to 0
    y_max = float(np.max(np.abs(train.y)))
    if 0.0 < y_max and y_max * y_max < sys.float_info.min:
        raise ValidationError(f"outcomes up to {y_max:g} in absolute value have squares "
                              f"under {sys.float_info.min:g}, the least normal float")
    # a split must gain more than rounding: 2^-42 (1024 ulps of 1) per
    # unit, times the largest squared outcome at the root
    noise = float(np.max(train.y * train.y)) * 2.0 ** -42
    return ref_grow_node(train.covariates, train.y, d, e, 1, 0, cfg, min_leaf, noise)


def placeholder_estimates(root):
    """An estimate per leaf of the tree at ``root``, sorted by leaf id,
    from the leaf's own counts and effect; NaN where the leaf holds
    nothing."""
    return tuple(sorted((LeafEstimate(leaf.node_id, leaf.n, leaf.n1, leaf.n0, leaf.tau,
                                      *[math.nan] * 7, False)
                         for leaf in ctiv.tree._preorder(root) if leaf.is_leaf),
                        key=lambda est: est.leaf_id))


def tree_json(grower, ds, e, cfg):
    """export_json of the grown tree, or the error growth raised."""
    try:
        root = grower(ds, e, cfg)
    except CtivError as exc:
        return type(exc).__name__, str(exc)
    tree = CausalTree(
        root=root, estimates=placeholder_estimates(root), feature_names=ds.feature_names, regime_kind=cfg.regime,
        alpha=0.0, p_hat=None, propensity=None, adjust_covariates=False,
        n_input=ds.n_units, n_trimmed=0, n_train=ds.n_units, n_validation=0,
        n_omega=ds.n_units, seed=0, max_depth=cfg.max_depth,
        min_leaf_fraction=cfg.min_leaf_fraction, min_arm_count=cfg.min_arm_count)
    return export_json(tree)


def probabilities(kind, ds, e, p):
    """The constant share ``p`` under the randomized regime, else the
    per-unit ``e``, for every unit of ``ds``."""
    if kind is RegimeKind.IV_RANDOMIZED:
        return np.full(ds.n_units, p)
    return e[:ds.n_units]


# small integers, both zeros and a half: many ties, and -0.0 == 0.0. The
# two floats just above 1.0 are adjacent, and their midpoint rounds to the
# upper one, so a cut between them sends the upper value left.
ONE_UP = float(np.nextafter(1.0, 2.0))
TIE_VALUES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, ONE_UP,
                              float(np.nextafter(ONE_UP, 2.0)), 2.0, 3.0])


@st.composite
def tie_heavy_fits(draw, features=st.integers(1, 4)):
    n = draw(st.integers(8, 70))
    k = draw(features)
    x = draw(hnp.arrays(np.float64, (n, k), elements=TIE_VALUES))
    if draw(st.booleans()):
        x[:, draw(st.integers(0, k - 1))] = draw(TIE_VALUES)    # a constant column
    y = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        TIE_VALUES, st.floats(-5.0, 5.0, allow_subnormal=False))))
    z = draw(hnp.arrays(np.int8, n, elements=st.integers(0, 1)))
    w = draw(hnp.arrays(np.int8, n, elements=st.integers(0, 1)))
    e = draw(hnp.arrays(np.float64, n, elements=st.floats(0.05, 0.95)))
    p = draw(st.floats(0.05, 0.95))
    kind = draw(st.sampled_from(list(RegimeKind)))
    ds = Dataset(covariates=x, z=z, w=w, y=y,
                 feature_names=tuple(f"x{j}" for j in range(k)))
    cfg = GrowthConfig(regime=kind, max_depth=draw(st.integers(1, 4)),
                       min_leaf_fraction=draw(st.sampled_from([0.02, 0.1, 0.25])),
                       min_arm_count=draw(st.integers(1, 3)))
    return ds, probabilities(kind, ds, e, p), cfg


def constant_outcome_fit():
    """Eight rows of one outcome: the split scan gains only rounding, so
    the tree is one leaf (the reference split it before it had the rule)."""
    x = np.array([[-1.0], [-2.0], [-1.0], [-2.0], [-2.0], [-2.0], [-2.0], [-2.0]])
    ds = Dataset(covariates=x, z=np.zeros(8), w=[0, 0, 1, 1, 1, 1, 1, 1],
                 y=np.full(8, -2.302132862361297), feature_names=("x0",))
    cfg = GrowthConfig(regime=RegimeKind.CT, max_depth=1,
                       min_leaf_fraction=0.02, min_arm_count=1)
    return ds, np.full(8, 0.5), cfg


@SETTINGS
@given(tie_heavy_fits())
@example(constant_outcome_fit())
def test_grow_matches_reference_on_tie_heavy_data(case):
    ds, e, cfg = case
    assert tree_json(grow, ds, e, cfg) == tree_json(ref_grow, ds, e, cfg)


def scan_blocks(features, n):
    """Patch the split scan so that a node of ``n`` rows scans ``features``
    features per block; a smaller node takes at least as many."""
    return mock.patch.object(ctiv.tree, "_SCAN_CELLS", 5 * n * features)


BLOCKS = [1, 3, 10]     # 10 features: 10 blocks, 3+3+3+1, one block


@pytest.mark.parametrize("design", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", list(RegimeKind))
def test_grow_matches_reference_on_designs(design, kind):
    sample = generate(design_spec(design, 1500, seed=40 + design))
    ds = sample.dataset
    e = np.random.default_rng(design).uniform(0.1, 0.9, ds.n_units)
    e = probabilities(kind, ds, e, 0.5)
    for rounded in (False, True):
        data = ds
        if rounded:     # ties on every feature
            data = Dataset(np.round(ds.covariates, 1), ds.z, ds.w, ds.y,
                           ds.feature_names)
        cfg = GrowthConfig(regime=kind, max_depth=5,
                           min_leaf_fraction=0.02, min_arm_count=5)
        expected = tree_json(ref_grow, data, e, cfg)
        assert tree_json(grow, data, e, cfg) == expected
        for block in BLOCKS:
            with scan_blocks(block, data.n_units):
                assert tree_json(grow, data, e, cfg) == expected


@SETTINGS
@given(tie_heavy_fits(features=st.just(10)), st.sampled_from(BLOCKS))
def test_grow_matches_reference_in_feature_blocks(case, block):
    ds, e, cfg = case
    with scan_blocks(block, ds.n_units):
        assert tree_json(grow, ds, e, cfg) == tree_json(ref_grow, ds, e, cfg)


@pytest.mark.parametrize("block", BLOCKS)
def test_identical_columns_in_different_blocks_go_to_the_lower_feature(block):
    # columns 2 and 7 are the same and hold the only cut: in blocks of
    # three they fall in the first and third block, and the tie goes to 2
    rng = np.random.default_rng(5)
    n = 80
    x = np.zeros((n, 10))
    x[:, 2] = x[:, 7] = rng.permutation(np.repeat([0.0, 1.0], n // 2))
    d = np.tile([0, 1], n // 2)
    y = d * x[:, 2] * 3.0 + rng.normal(size=n)
    ds = Dataset(covariates=x, z=d, w=d, y=y,
                 feature_names=tuple(f"x{j}" for j in range(10)))
    e = np.full(n, 0.5)
    cfg = GrowthConfig(regime=RegimeKind.IV_RANDOMIZED, max_depth=1,
                       min_leaf_fraction=0.1, min_arm_count=2)
    with scan_blocks(block, n):
        root = grow(ds, e, cfg)
        assert tree_json(grow, ds, e, cfg) == tree_json(ref_grow, ds, e, cfg)
    assert (root.feature, root.threshold) == (2, 0.5)


@pytest.mark.parametrize("upper_arms", [[1, 0] * 4, [1, 1]])
def test_cut_whose_midpoint_rounds_to_the_upper_value(upper_arms):
    # the best cut lies between the adjacent floats ONE_UP and two_up, and
    # their midpoint rounds to two_up: its rows go left with the ONE_UP rows.
    # When the rows above are all treated, the right child has no controls.
    two_up = float(np.nextafter(ONE_UP, 2.0))
    x = [ONE_UP] * 8 + [two_up] * 8 + [3.0] * len(upper_arms)
    d = np.array([1, 0] * 8 + upper_arms)
    y = d * np.where(np.asarray(x) > ONE_UP, 4.0, 0.0)
    ds = Dataset(covariates=np.array(x)[:, None], z=d, w=d, y=y, feature_names=("x1",))
    e = np.full(ds.n_units, 0.5)
    cfg = GrowthConfig(regime=RegimeKind.IV_RANDOMIZED, max_depth=1,
                       min_leaf_fraction=0.05, min_arm_count=1)
    got = tree_json(grow, ds, e, cfg)
    assert got == tree_json(ref_grow, ds, e, cfg)
    if len(upper_arms) == 2:
        assert got == ("EstimationError", "leaf needs at least one unit in each arm")
    else:
        root = grow(ds, e, cfg)
        assert root.threshold == two_up and root.left.n == 16


@SETTINGS
@given(hnp.arrays(np.float64, st.integers(0, 300), elements=st.one_of(
    TIE_VALUES, st.floats(allow_nan=False))))
def test_stable_order_is_stable_argsort(col):
    assert np.array_equal(_stable_order(col), np.argsort(col, kind="stable"))


# --- pruning: one pass per sweep against the two walks it replaced ---

def ref_subtree_price(node, n_train):
    """(score sum, leaf count, own price, weakest price) of the subtree at
    ``node``."""
    if node.is_leaf:
        return node.n * node.tau * node.tau, 1, math.inf, math.inf
    left_sum, left_leaves, _, left_weakest = ref_subtree_price(node.left, n_train)
    right_sum, right_leaves, _, right_weakest = ref_subtree_price(node.right, n_train)
    score, leaves = left_sum + right_sum, left_leaves + right_leaves
    gain = (score - node.n * node.tau * node.tau) / n_train
    price = gain / (leaves - 1)
    return score, leaves, price, min(price, left_weakest, right_weakest)


def ref_collapse_at_or_below(node, price, n_train):
    """Collapse, top-down, every internal node whose price is <= price."""
    if node.is_leaf:
        return node
    if ref_subtree_price(node, n_train)[2] <= price:
        return replace(node, feature=None, threshold=None, left=None, right=None)
    return replace(node,
                   left=ref_collapse_at_or_below(node.left, price, n_train),
                   right=ref_collapse_at_or_below(node.right, price, n_train))


def ref_prune_path(root, n_train):
    """The old sweep, from the subtree it leaves at price 0: the path's
    element zero now collapses every node that gives up no score."""
    while ref_subtree_price(root, n_train)[3] <= 0.0:
        root = ref_collapse_at_or_below(root, 0.0, n_train)
    elements = [(0.0, root)]
    current = root
    weakest = ref_subtree_price(root, n_train)[3]
    while weakest < math.inf:
        price = weakest
        while weakest <= price:
            current = ref_collapse_at_or_below(current, price, n_train)
            weakest = ref_subtree_price(current, n_train)[3]
        elements.append((float(price), current))
    return elements


@st.composite
def priced_trees(draw):
    """A tree of up to depth 6 and its n_train. A node's effect is one of
    a few values, the n-weighted mean of its children's, or the one that
    prices it at the weakest price below it: prices tie often, exactly or
    to the last bit."""
    n_train = draw(st.sampled_from([1, 7, 50]))
    taus = st.sampled_from([-1.0, -0.5, 0.0, 0.1, 0.3, 0.5, 1.0])

    def node(node_id, depth):
        """(node, score sum, leaf count, weakest price) of a new subtree."""
        if depth == 6 or not draw(st.booleans()):
            n, tau = draw(st.sampled_from([1, 2, 3, 4, 8])), draw(taus)
            return (TreeNode(n=n, n1=n, n0=0, tau=tau, node_id=node_id),
                    n * tau * tau, 1, math.inf)
        left, l_score, l_leaves, l_weakest = node(2 * node_id, depth + 1)
        right, r_score, r_leaves, r_weakest = node(2 * node_id + 1, depth + 1)
        n, score, leaves = left.n + right.n, l_score + r_score, l_leaves + r_leaves
        weakest = min(l_weakest, r_weakest)
        tied = score - weakest * n_train * (leaves - 1)
        how = draw(st.sampled_from(["value", "mean", "tie"]))
        if how == "tie" and 0.0 <= tied < math.inf:
            tau = math.sqrt(tied / n)
        elif how == "mean":
            tau = (left.n * left.tau + right.n * right.tau) / n
        else:
            tau = draw(taus)
        price = (score - n * tau * tau) / n_train / (leaves - 1)
        tree = TreeNode(n=n, n1=n, n0=0, tau=tau, node_id=node_id,
                        feature=draw(st.integers(0, 2)), threshold=draw(TIE_VALUES),
                        left=left, right=right)
        return tree, score, leaves, min(price, weakest)

    return node(1, 0)[0], n_train


@settings(SETTINGS, max_examples=500)
@given(priced_trees())
def test_prune_path_matches_the_two_walk_sweep(case):
    root, n_train = case
    path = prune_path(root, n_train)
    assert [(el.alpha_threshold, el.root) for el in path.elements] \
        == ref_prune_path(root, n_train)


@settings(SETTINGS, max_examples=300)
@given(priced_trees(), st.data())
def test_prune_at_alpha_is_the_pick_from_the_whole_path(case, data):
    # prune_at_alpha builds the path only up to alpha
    root, n_train = case
    path = prune_path(root, n_train)
    at = data.draw(st.sampled_from([el.alpha_threshold for el in path.elements]))
    alpha = data.draw(st.one_of(
        st.just(at), st.just(math.inf), st.floats(min_value=0.0),
        st.sampled_from([float(np.nextafter(at, -1.0)), float(np.nextafter(at, math.inf))])
        .filter(lambda a: a >= 0.0)))
    expected = [el.root for el in path.elements if el.alpha_threshold <= alpha][-1]
    assert repr(prune_at_alpha(root, alpha, n_train)) == repr(expected)


# --- the CSV reader ---

# cell texts that numpy or the per-cell parser may read differently, or
# reject: each must come out as the per-cell parser has it
ODD_CELLS = ["", " ", "  1.5 ", "\t2", "1_000", "nan", "-inf", "Infinity",
             "#", "1#2", '"3"', '"1,5"', "abc", "0x10", "1e400", "-0.0", " 1",
             "١", "2.0", "0.5"]


@st.composite
def csv_texts(draw):
    """A CSV with columns y, w, z, x1, x2, label, irregular at random places."""
    n = draw(st.integers(0, 12))
    rows = []
    for _ in range(n):
        cells = [repr(draw(st.floats(-1e3, 1e3))),
                 draw(st.sampled_from(["0", "1", "1.0", "-0"])),
                 draw(st.sampled_from(["0", "1"])),
                 repr(draw(st.floats(allow_nan=False, allow_infinity=False))),
                 repr(draw(TIE_VALUES)),
                 draw(st.sampled_from(["a", "b#c", "", "1"]))]
        rows.append(cells)
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        if len(rows[i]) < 5:
            continue                    # a blank or shortened row already
        mutation = draw(st.sampled_from(["cell", "extra", "missing", "blank", "arm"]))
        if mutation == "cell":
            rows[i][draw(st.integers(0, 4))] = draw(st.sampled_from(ODD_CELLS))
        elif mutation == "extra":
            rows[i].append("1")
        elif mutation == "missing":
            rows[i].pop()
        elif mutation == "blank":
            rows.insert(i, [])
        else:
            rows[i][draw(st.integers(1, 2))] = draw(st.sampled_from(["2", "0.5", "nan"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = ["y,w,z,x1,x2,label"] + [",".join(r) for r in rows]
    text = end.join(lines)
    if draw(st.booleans()):
        text += end
    return text


def outcome(read):
    """What ``read()`` returns, or the error it raises, comparable exactly."""
    try:
        result = read()
    except CtivError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, Dataset):
        return (result.feature_names, result.covariates.tobytes(), result.y.tobytes(),
                result.w.tobytes(), result.z.tobytes())
    return result[0], result[1].shape, result[1].tobytes()


def reference(read):
    """``read()`` with the numpy path switched off: per-cell parsing only."""
    with mock.patch.object(ctiv.dataset, "_numpy_rows", return_value=None):
        return outcome(read)


@contextlib.contextmanager
def pieces_of(share_bytes, cpus=1):
    """CSV text read in pieces of about ``share_bytes``, shared among up to
    ``cpus`` processes where it is at least twice that."""
    with mock.patch.object(ctiv.dataset, "_SHARE_BYTES", share_bytes), \
            mock.patch.object(ctiv.parallel, "usable_cpus", return_value=cpus):
        yield


def many_shares(cpus=3):
    """CSV text of at least 128 bytes shared among up to ``cpus``
    processes: every byte piece of a read, of about 64 bytes, and every
    piece of a write go to forked workers."""
    return pieces_of(64, cpus)


SHARE_BYTES = [1, 7, 64, 1 << 20]


def no_column(path):
    """A read of ``path`` that names no column: it counts the rows and
    their cells, and gives one empty row per data row."""
    return lambda: read_csv_columns(path, lambda header: [])


def reads(path):
    return [
        lambda: load_csv(path, feature_cols=("x1", "x2")),
        lambda: load_csv(path),     # label is a feature: non-numeric
        lambda: read_csv_columns(path, lambda header: ["x2", "x1"]),
        no_column(path),
    ]


@SETTINGS
@given(csv_texts(), st.sampled_from(SHARE_BYTES))
def test_fast_reader_matches_per_cell_parser(text, share_bytes):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        with pieces_of(share_bytes):
            for read in reads(path):
                assert outcome(read) == reference(read)


HEADER = "y,w,z,x1,x2,label"
CSV_CASES = {
    "lf": f"{HEADER}\n1.5,1,0,0.25,-3,a\n2,0,1,1e-5,4,b\n",
    "crlf": f"{HEADER}\r\n1.5,1,0,0.25,-3,a\r\n2,0,1,1e-5,4,b\r\n",
    "cr": f"{HEADER}\r1.5,1,0,0.25,-3,a\r2,0,1,1e-5,4,b\r",
    "no final newline": f"{HEADER}\n1.5,1,0,0.25,-3,a\n2,0,1,1e-5,4,b",
    "blank line": f"{HEADER}\n1.5,1,0,0.25,-3,a\n\n2,0,1,1e-5,4,b\n",
    "quoted cell": f'{HEADER}\n1.5,1,0,"0.25",-3,a\n',
    "quoted label": f'{HEADER}\n1.5,1,0,0.25,-3,"a"\n',
    # csv.reader joins the two lines into one row of 11 cells
    "quoted newline": f'{HEADER}\n1,1,0,5,6,"a\nb",1,0,7,8,9\n',
    "extra cell": f"{HEADER}\n1.5,1,0,0.25,-3,a,7\n",
    "missing cell": f"{HEADER}\n1.5,1,0,0.25,-3\n",
    "surrounding spaces": f"{HEADER}\n 1.5 ,1, 0 ,\t0.25,-3 ,a\n",
    "underscore": f"{HEADER}\n1_000,1,0,0.25,-3,a\n",
    "nan": f"{HEADER}\nnan,1,0,0.25,-3,a\n",
    "nan arm": f"{HEADER}\n1.5,nan,0,0.25,-3,a\n",
    "hash in last used column": f"{HEADER}\n1.5,1,0,0.25,1#2,a\n",
    "hash in label": f"{HEADER}\n1.5,1,0,0.25,-3,#a\n",
    "text label": f"{HEADER}\n1.5,1,0,0.25,-3,abc\n2,0,1,1e-5,4,d e\n",
    "non-binary arm": f"{HEADER}\n1.5,1,0,0.25,-3,a\n1.5,2,0,x,-3,a\n",
}


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_fast_reader_cases(tmp_path, case):
    path = tmp_path / "data.csv"
    path.write_bytes(CSV_CASES[case].encode("utf-8"))
    for read in reads(path):
        assert outcome(read) == reference(read)


@pytest.mark.parametrize("text", ["x1\n1\n\n2\n", "x1\r\n1\r\n\r\n", "x1\n\n", "x1\n 3\n"])
def test_fast_reader_single_column(tmp_path, text):
    path = tmp_path / "one.csv"
    path.write_bytes(text.encode("utf-8"))

    def read():
        return read_csv_columns(path, lambda header: ["x1"])

    assert outcome(read) == reference(read)


def test_regular_csv_takes_the_numpy_path(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("y,w,z,x1,label\r\n1.5,1,0,-0.0,a#b\r\n2,0,1,3e-5,c\n-1,1,1,7,d",
                    encoding="utf-8")
    features = ("x1",)
    expected = reference(lambda: load_csv(path, feature_cols=features))
    with mock.patch.object(ctiv.dataset, "_reference_rows",
                           side_effect=AssertionError("per-cell parser used")):
        assert outcome(lambda: load_csv(path, feature_cols=features)) == expected
    assert np.signbit(load_csv(path, feature_cols=features).covariates[0, 0])


@SHARE_SETTINGS
@given(csv_texts(), st.sampled_from(SHARE_BYTES[:3]))
def test_reader_reads_the_same_with_several_shares(text, share_bytes):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        for read in reads(path):
            expected = outcome(read)
            with pieces_of(share_bytes, cpus=3):
                assert outcome(read) == expected


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_reader_cases_with_several_shares(tmp_path, case):
    path = tmp_path / "data.csv"
    path.write_bytes(CSV_CASES[case].encode("utf-8"))
    for read in reads(path):
        expected = reference(read)
        with many_shares():
            assert outcome(read) == expected


def late_fault_csv(row: bytes, header: bytes = HEADER.encode()) -> tuple[bytes, int]:
    """60 regular rows with ``row`` in place of the 58th, and where it starts."""
    rows = [f"{i / 4!r},{i % 2},{i // 2 % 2},{i / 7!r},{-i},a\n".encode()
            for i in range(60)]
    rows[57] = row
    head = header + b"\n" + b"".join(rows[:57])
    return head + b"".join(rows[57:]), len(head)


LATE_FAULTS = {
    "irregular row": late_fault_csv(b"1,1,0,2,3,a,7\n"),
    "non-UTF-8 byte": late_fault_csv(b"1,1,0,2,3,\xff\n"),
    "non-0/1 arm": late_fault_csv(b"1,2,0,2,3,a\n"),
    "CR-only line end": late_fault_csv(b"1,1,0,2,3,a\r"),
    "blank line": late_fault_csv(b"\n"),
    "quoted multi-line cell": late_fault_csv(b'1,1,0,2,3,"a\nb"\n'),
    "quoted multi-line header": late_fault_csv(b"1,1,0,2,3,a\n",
                                               b'y,w,z,x1,x2,"lab\nel"'),
}


def data_pieces(path):
    """The ``(start, stop)`` of each piece of ``path``'s data rows, as
    ``read_csv_columns`` cuts them."""
    with path.open("rb") as fb:
        _, pieces = ctiv.dataset._read_header(path, ctiv.dataset._pieces(fb))
        return [(start, stop) for start, stop, _ in pieces]


@pytest.mark.parametrize("case", sorted(LATE_FAULTS))
def test_fault_in_a_later_share_reads_as_the_per_cell_parser(tmp_path, case):
    text, fault_at = LATE_FAULTS[case]
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    with many_shares():
        pieces = data_pieces(path)
        assert len(pieces) > 3 and fault_at >= pieces[1][0]
        for read in reads(path):
            assert outcome(read) == reference(read)


@pytest.mark.parametrize("header", [HEADER.encode(), b'y,w,z,x1,x2,"lab\nel"'])
@pytest.mark.parametrize("cpus", [1, 3])
def test_regular_csv_takes_the_numpy_path_in_every_share(tmp_path, header, cpus):
    # in one process or shared, every piece of the data rows is regular
    text, _ = late_fault_csv(b"1,1,0,2,3,a\r\n", header)
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    features = ("x1", "x2")
    expected = reference(lambda: load_csv(path, feature_cols=features))
    with many_shares(cpus):
        pieces = data_pieces(path)
        assert len(pieces) > 3
        assert pieces[0][0] == len(header) + 1
        assert all(text[start - 1:start] == b"\n" for start, _ in pieces)
        with mock.patch.object(ctiv.dataset, "_reference_rows",
                               side_effect=AssertionError("per-cell parser used")):
            assert outcome(lambda: load_csv(path, feature_cols=features)) == expected
            assert outcome(no_column(path)) == ([], (60, 0), b"")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "mixed"])
@pytest.mark.parametrize("share_bytes", SHARE_BYTES)
def test_pieces_start_at_line_starts(tmp_path, end, share_bytes):
    # the pieces tile the data rows, the first from the header's end and
    # every other just after a line end, and none parts a CRLF; read under
    # 8 bytes at a time, the text is cut at every line end
    ends = ["\n", "\r\n", "\r"] if end == "mixed" else [end]
    lines = [HEADER] + [f"{i / 3!r},{i % 2},1,{-i},{i * i},{'ab'[i % 2] * i}"
                        for i in range(40)]
    text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines)).encode()
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    with pieces_of(share_bytes):
        pieces = data_pieces(path)
    starts = [start for start, _ in pieces]
    assert starts[0] == len(HEADER + ends[0])
    assert [stop for _, stop in pieces] == starts[1:] + [len(text)]
    assert all(text[start - 1:start] in (b"\n", b"\r") for start in starts)
    assert not any(text[start - 1:start + 1] == b"\r\n" for start in starts)
    if share_bytes < 8:
        assert len(pieces) == 40        # one piece a line
    assert b"".join(text[start:stop] for start, stop in pieces) == text[starts[0]:]
    for read in reads(path):
        expected = reference(read)
        for cpus in (1, 3):
            with pieces_of(share_bytes, cpus):
                assert outcome(read) == expected


@pytest.mark.skipif(not ctiv.parallel.fork_is_safe(), reason="cannot fork here")
def test_shared_text_is_parsed_in_workers_only(tmp_path):
    text, _ = late_fault_csv(b"1,1,0,2,3,a\n")
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    features = ("x1", "x2")
    expected = outcome(lambda: load_csv(path, feature_cols=features))
    this, ran_here, real = os.getpid(), [], ctiv.dataset._parse_piece

    def parse_piece(*args):
        if os.getpid() == this:
            ran_here.append(args[-1])
        return real(*args)

    with many_shares(), mock.patch.multiple(
            ctiv.dataset, _parse_piece=parse_piece,
            _reference_rows=mock.Mock(side_effect=AssertionError("per-cell parser used"))):
        assert len(data_pieces(path)) > 3
        assert outcome(lambda: load_csv(path, feature_cols=features)) == expected
    assert ran_here == []


def test_cr_only_text_is_cut_at_cr_and_shared(tmp_path, monkeypatch):
    # CR-only text has no \n to cut at: it is cut after a CR, which no \n
    # follows, and its pieces go to the workers as LF text's do
    pools = []
    real = ctiv.parallel.ProcessPoolExecutor
    monkeypatch.setattr(ctiv.parallel, "ProcessPoolExecutor",
                        lambda n, **kw: pools.append(n) or real(n, **kw))
    text, _ = late_fault_csv(b"1,1,0,2,3,a\n")
    text = text.replace(b"\n", b"\r")
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    with many_shares():
        pieces = data_pieces(path)
        assert len(pieces) > 3
        assert all(text[stop - 1:stop] == b"\r" for _, stop in pieces)
        for read in reads(path):
            assert outcome(read) == reference(read)
    # a pool of 3 for each read and one for its reference
    assert pools == ([3] * 2 * len(reads(path)) if ctiv.parallel.fork_is_safe() else [])


def test_text_of_one_piece_is_read_in_this_process(tmp_path, monkeypatch):
    # a file of at least twice _SHARE_BYTES whose one data row has no line
    # end is one piece: no pool is started for it, whatever the CPU count
    monkeypatch.setattr(ctiv.parallel, "ProcessPoolExecutor",
                        mock.Mock(side_effect=AssertionError("pool started")))
    header = ",".join(["y", "w", "z", *(f"x{i}" for i in range(1, 59))])
    path = tmp_path / "data.csv"
    path.write_text(f"{header}\n" + ",".join(["1"] * 61), encoding="utf-8")
    with many_shares():
        assert path.stat().st_size >= 2 * 64 and len(data_pieces(path)) == 1
        ds = load_csv(path)
    assert ds.covariates.shape == (1, 58)


@pytest.mark.parametrize("cpus", [1, 3])
def test_rows_before_an_irregular_last_piece_are_parsed_once(tmp_path, cpus):
    # the per-cell parser reads on from the irregular piece's first byte,
    # in one process or after the workers' pieces: numpy and the per-cell
    # parser between them see each earlier row once
    rows = [f"{i / 4!r},{i % 2},{i // 2 % 2},{i / 7!r},{-i},a\n" for i in range(60)]
    rows[-1] = '1,1,0,"2",3,a\n'
    path = tmp_path / "data.csv"
    path.write_bytes((HEADER + "\n" + "".join(rows)).encode())
    features = ("x1", "x2")
    expected = reference(lambda: load_csv(path, feature_cols=features))
    seen = tmp_path / "seen"            # appended to by forked workers too
    real_numpy, real_reference = ctiv.dataset._numpy_rows, ctiv.dataset._reference_rows

    def note(first_cells):
        with seen.open("a") as fh:
            fh.write("".join(cell + "\n" for cell in first_cells))

    def numpy_rows(lines, *args, **kwargs):
        note(line.split(",")[0] for line in lines)
        return real_numpy(lines, *args, **kwargs)

    def reference_rows(rows, *args):
        return real_reference((note([row[0]]) or row for row in rows), *args)

    with many_shares(cpus), mock.patch.multiple(
            ctiv.dataset, _numpy_rows=numpy_rows, _reference_rows=reference_rows):
        pieces = data_pieces(path)
        assert outcome(lambda: load_csv(path, feature_cols=features)) == expected
    last = pieces[-1][0] - len(HEADER) - 1
    ends = itertools.accumulate(map(len, rows))
    earlier = [row.split(",")[0] for row, end in zip(rows, ends) if end <= last]
    assert len(pieces) > 3 and len(earlier) > 50
    counts = collections.Counter(seen.read_text().split())
    assert all(counts[cell] == 1 for cell in earlier)


@pytest.mark.parametrize("text", [
    f"{HEADER}\n" + "".join(f"{i},1,0,{i},2,a\n" for i in range(20)) + "7,0,1,8,9,b",
    f"{HEADER}\n",
    HEADER,
])
def test_unterminated_and_header_only_files_with_several_shares(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    for read in reads(path):
        expected = reference(read)
        with many_shares():
            assert outcome(read) == expected


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
def test_piped_csv_reads_as_the_file(tmp_path):
    # a fault sends the rest of a pipe, which cannot be read twice, to the
    # per-cell parser; in pieces of about 64 bytes, after numpy has read the
    # first rows, while the file's pieces go to workers
    cases = {**LATE_FAULTS, "regular": late_fault_csv(b"1,1,0,2,3,a\n"),
             "quoted number": late_fault_csv(b'1,1,0,"7",3,a\n')}
    path, fifo = tmp_path / "data.csv", tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    features = ("x1", "x2")
    for (case, (text, _)), share_bytes, read in itertools.product(
            sorted(cases.items()), [64, 1 << 20],
            [lambda p: lambda: load_csv(p, feature_cols=features), no_column]):
        path.write_bytes(text)
        with pieces_of(share_bytes, cpus=3):
            expected = outcome(read(path))
            writer = subprocess.Popen(["sh", "-c", f'cat "{path}" > "{fifo}"'])
            try:
                got = str(outcome(read(fifo)))
                assert got.replace(str(fifo), str(path)) == str(expected), (case, share_bytes)
            finally:
                writer.wait(30)
        if case == "quoted number":
            assert load_csv(path, feature_cols=features).covariates[57, 0] == 7.0


def test_shares_leave_no_temporary_file(tmp_path, monkeypatch):
    # the workers' rows come back through the pool, so a write or read
    # makes no file but its output, when it fails too
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    pools = []
    real = ctiv.parallel.ProcessPoolExecutor
    monkeypatch.setattr(ctiv.parallel, "ProcessPoolExecutor",
                        lambda n, **kw: pools.append(n) or real(n, **kw))
    ds = generate(design_spec(2, 100, 0)).dataset
    bad = tmp_path / "bad.csv"
    bad.write_bytes(LATE_FAULTS["non-0/1 arm"][0])
    real_rows, this = ctiv.dataset._format_rows, os.getpid()

    def rows_failing_in_workers(columns, piece):
        if os.getpid() != this:
            raise OSError("disk full")
        return real_rows(columns, piece)

    # a write's two pieces of 50 rows go to two workers, and a read's
    # pieces of about 64 bytes to three
    with many_shares(), mock.patch.object(ctiv.dataset, "_WRITE_ROWS", 50):
        save_csv(ds, tmp_path / "good.csv")
        assert same_dataset(load_csv(tmp_path / "good.csv"), ds)
        with pytest.raises(ValidationError, match="data row 58"):
            load_csv(bad, feature_cols=("x1", "x2"))
        with mock.patch.object(ctiv.dataset, "_format_rows", rows_failing_in_workers), \
                pytest.raises(OSError, match="disk full"):
            save_csv(ds, tmp_path / "failed.csv")
    assert pools == [2, 3, 3, 2]
    assert list(scratch.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bad.csv", "failed.csv", "good.csv", "tmp"]


@pytest.mark.skipif(not ctiv.parallel.fork_is_safe(), reason="cannot fork here")
def test_two_cpus_fork_one_write_worker_and_two_read_workers(tmp_path, monkeypatch):
    pools = []
    real = ctiv.parallel.ProcessPoolExecutor
    monkeypatch.setattr(ctiv.parallel, "ProcessPoolExecutor",
                        lambda n, **kw: pools.append(n) or real(n, **kw))
    ds = generate(design_spec(2, 100, 0)).dataset
    save_csv(ds, tmp_path / "one.csv")
    with many_shares(cpus=2):
        save_csv(ds, tmp_path / "two.csv")
        assert same_dataset(load_csv(tmp_path / "two.csv"), ds)
    assert (tmp_path / "two.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert pools == [1, 2]


@pytest.mark.skipif(not ctiv.parallel.fork_is_safe(), reason="cannot fork here")
def test_a_dead_worker_leaves_its_share_to_this_process(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    sample = generate(design_spec(2, 100, 0))
    extras = {"true_cate": sample.true_cate}
    save_csv(sample.dataset, tmp_path / "one.csv", extra_columns=extras)
    expected = outcome(lambda: load_csv(tmp_path / "one.csv"))
    this, ran_here = os.getpid(), []
    with many_shares():
        pieces = data_pieces(tmp_path / "one.csv")

    def dies_in_a_worker(real):
        def share(*args):
            if os.getpid() != this:
                os._exit(1)             # as if killed from outside
            ran_here.append(real.__name__)
            return real(*args)
        return share

    with many_shares(), mock.patch.multiple(
            ctiv.dataset, _WRITE_ROWS=50,
            _format_rows=dies_in_a_worker(ctiv.dataset._format_rows),
            _parse_piece=dies_in_a_worker(ctiv.dataset._parse_piece)):
        save_csv(sample.dataset, tmp_path / "several.csv", extra_columns=extras)
        assert outcome(lambda: load_csv(tmp_path / "several.csv")) == expected
    # both pieces of the write, and every piece of the read, came back to
    # this process
    assert len(pieces) > 3
    assert ran_here == ["_format_rows"] * 2 + ["_parse_piece"] * len(pieces)
    assert (tmp_path / "several.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.csv", "several.csv"]


# --- the CSV writer ---

def ref_save_csv(ds, path, extra_columns):
    """The per-row csv.writer loop save_csv replaced."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "w", "z", *ds.feature_names, *extra_columns.keys()])
        for i in range(ds.n_units):
            row = [repr(float(ds.y[i])), int(ds.w[i]), int(ds.z[i])]
            row += [repr(float(v)) for v in ds.covariates[i]]
            row += [repr(float(extra_columns[name][i])) for name in extra_columns]
            writer.writerow(row)


FLOATS = st.one_of(TIE_VALUES, st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([1e16, 1e-5, 1e-4, 5e-324, 0.1, 123456789.0]))


@st.composite
def datasets_with_extras(draw):
    n, k = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    ds = Dataset(
        covariates=draw(hnp.arrays(np.float64, (n, k), elements=FLOATS)),
        z=draw(hnp.arrays(np.int8, n, elements=st.integers(0, 1))),
        w=draw(hnp.arrays(np.int8, n, elements=st.integers(0, 1))),
        y=draw(hnp.arrays(np.float64, n, elements=FLOATS)),
        feature_names=tuple(f"x,{j}" if j == 1 else f"x{j}" for j in range(k)))
    extras = {"true_cate": draw(hnp.arrays(np.float64, n, elements=FLOATS)),
              "count": np.arange(n)}
    return ds, extras


@SETTINGS
@given(datasets_with_extras(), st.sampled_from([1, 7, 1024]))
def test_save_csv_matches_csv_writer(case, write_rows):
    ds, extras = case
    with mock.patch.object(ctiv.dataset, "_WRITE_ROWS", write_rows), \
            tempfile.TemporaryDirectory() as d:
        save_csv(ds, Path(d) / "fast.csv", extra_columns=extras)
        ref_save_csv(ds, Path(d) / "ref.csv", extras)
        assert (Path(d) / "fast.csv").read_bytes() == (Path(d) / "ref.csv").read_bytes()


@SHARE_SETTINGS
@given(datasets_with_extras(), st.sampled_from([1, 7, 1024]))
def test_save_csv_bytes_do_not_depend_on_shares(case, write_rows):
    ds, extras = case
    with mock.patch.object(ctiv.dataset, "_WRITE_ROWS", write_rows), \
            tempfile.TemporaryDirectory() as d:
        save_csv(ds, Path(d) / "one.csv", extra_columns=extras)
        with many_shares():
            save_csv(ds, Path(d) / "several.csv", extra_columns=extras)
        assert (Path(d) / "several.csv").read_bytes() == (Path(d) / "one.csv").read_bytes()


# --- leaf routing: every router against a walk down the tree per row ---

# thresholds and point coordinates share this grid, so points land exactly
# on thresholds
GRID = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)


def walk(node, row):
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node


@st.composite
def routed_trees(draw):
    """A tree of up to depth 4 on two features whose leaf k has effect and
    CACE k/8, and covariates, outcomes and arms for its units."""
    estimates = []

    def node(node_id, depth):
        if depth == 4 or not draw(st.booleans()):
            tau = node_id / 8.0
            estimates.append(LeafEstimate(node_id, 2, 1, 1, tau, 0.0, 0.0, 1.0, tau,
                                          1.0, 1.0, 20.0, True))
            return TreeNode(n=2, n1=1, n0=1, tau=tau, node_id=node_id)
        return TreeNode(n=4, n1=2, n0=2, tau=0.0,
                        feature=draw(st.integers(0, 1)),
                        threshold=draw(st.sampled_from(GRID)),
                        left=node(2 * node_id, depth + 1),
                        right=node(2 * node_id + 1, depth + 1),
                        node_id=node_id)

    root = node(1, 0)
    n = draw(st.integers(1, 40))
    tree = CausalTree(
        root=root, estimates=tuple(sorted(estimates, key=lambda est: est.leaf_id)),
        feature_names=("x1", "x2"),
        regime_kind=RegimeKind.IV_RANDOMIZED, alpha=0.0, p_hat=0.5,
        propensity=None, adjust_covariates=False, n_input=n, n_trimmed=0,
        n_train=n, n_validation=0, n_omega=n, seed=0, max_depth=4,
        min_leaf_fraction=0.1, min_arm_count=1)
    x = draw(hnp.arrays(np.float64, (n, 2), elements=st.one_of(
        st.sampled_from(GRID), st.floats(-2.0, 2.0))))
    y = draw(hnp.arrays(np.float64, n, elements=st.floats(-5.0, 5.0)))
    d = draw(hnp.arrays(np.int8, n, elements=st.integers(0, 1)))
    return tree, x, y, d


@SETTINGS
@given(routed_trees())
def test_leaf_routing_matches_per_row_walk(case):
    tree, x, y, d = case
    root = tree.root
    leaves = [walk(root, row) for row in x]
    assert tree.assign_leaves(x).tolist() == [leaf.node_id for leaf in leaves]
    # a leaf's effect is its estimate's CACE
    assert [tree.leaf_map[i].cace_hat for i in tree.assign_leaves(x)] \
        == [leaf.tau for leaf in leaves]
    e = np.full(len(y), 0.5)
    validation = Dataset(covariates=x, z=d, w=d, y=y, feature_names=("x1", "x2"))
    y_star = transformed_outcome(y, d, e)
    tau = np.array([leaf.tau for leaf in leaves])
    regime = RegimeKind.IV_RANDOMIZED
    assert holdout_loss(root, validation, e, regime) == float(-np.mean((y_star - tau) ** 2))


@SETTINGS
@given(routed_trees())
def test_evaluate_mse_matches_per_row_lookup(case):
    tree, x, y, _ = case
    # a leaf's effect is its estimate's CACE
    effects = np.array([walk(tree.root, row).tau for row in x])
    got = evaluate_mse(tree, x, y)
    assert got.mse == float(np.mean((y - effects) ** 2))
    assert got.n_excluded == 0


# --- split positions: boolean masks against the set operations they replaced ---

def reference_split(n, f_tr, seed):
    """The sorted (train, validation) index pair a split was before it became
    a training mask, with validation sized as ``holdout_split`` sizes it."""
    n_tr = n - int(np.floor((1.0 - f_tr) * n))
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[:n_tr]), np.sort(perm[n_tr:])


@SETTINGS
@given(st.integers(2, 60), st.floats(0.05, 0.95), st.integers(0, 2 ** 32), st.data())
def test_split_masks_match_set_operations(n, f_tr, seed, data):
    # the mask holds the train part of the index pair, and its positions
    # among any kept rows are the ``isin`` positions fit_ctiv once computed
    try:
        in_train = holdout_split(units(n), (f_tr, 1.0 - f_tr), seed)
    except InputError:
        reject()
    tr, va = reference_split(n, f_tr, seed)
    assert np.flatnonzero(in_train).tolist() == tr.tolist()
    assert np.flatnonzero(~in_train).tolist() == va.tolist()
    kept = np.flatnonzero(data.draw(hnp.arrays(bool, n)))
    assert np.flatnonzero(in_train[kept]).tolist() == \
        np.flatnonzero(np.isin(kept, tr)).tolist()
    assert np.flatnonzero(~in_train[kept]).tolist() == \
        np.flatnonzero(np.isin(kept, va)).tolist()
