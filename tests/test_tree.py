"""Growing, pruning, holdout selection and the fitted-tree artifact."""

import dataclasses
import functools
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ctiv.parallel
import ctiv.tree
from ctiv import (
    CausalTree,
    Dataset,
    GrowthConfig,
    RegimeKind,
    design_spec,
    export_dot,
    export_json,
    fit_ctiv,
    generate,
    grow,
    holdout_split,
    load_json,
    prune_at_alpha,
    prune_path,
)
from ctiv.effects import LeafEstimate
from ctiv.errors import CtivError, EstimationError, InputError, ValidationError
from ctiv.transform import leaf_weighted_itt
from ctiv.tree import PathElement, PruningPath, TreeNode, holdout_loss, select_alpha

RANDOMIZED = RegimeKind.IV_RANDOMIZED
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


def make_ds(x, d, y):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    names = tuple(f"x{j + 1}" for j in range(x.shape[1]))
    d = np.asarray(d)
    return Dataset(covariates=x, z=d, w=d, y=np.asarray(y, dtype=np.float64),
                   feature_names=names)


def half(ds):
    """Assignment probability 0.5 for every unit of ``ds``."""
    return np.full(ds.n_units, 0.5)


def bump_ds(copies=1):
    # effect 1 at the two edge values of x, 0 in the middle; one treated
    # and one control unit per x value
    x = np.repeat(np.arange(1.0, 9.0), 2)
    d = np.tile([1, 0], 8)
    g = np.where((x <= 2) | (x >= 7), 1.0, 0.0)
    y = g * d
    cols = np.column_stack([x] * copies)
    return make_ds(cols, d, y)


def staircase_ds():
    # effect grows with x in four steps; supports a full depth-2 tree
    x = np.repeat(np.arange(1.0, 5.0), 4)
    d = np.tile([1, 1, 0, 0], 4)
    y = (x - 1.0) * d
    return make_ds(x, d, y)


def oracle_best_split(ds, min_leaf, min_arm):
    """Brute force over every feature and candidate threshold."""
    best = (-math.inf, None, None)
    d = ds.z.astype(float)
    for j in range(ds.covariates.shape[1]):
        col = ds.covariates[:, j]
        uniq = np.unique(col)
        for lo, hi in zip(uniq[:-1], uniq[1:]):
            thr = (lo + hi) / 2.0
            left = col <= thr
            sides = []
            ok = True
            for mask in (left, ~left):
                n_side = int(mask.sum())
                n1 = int(d[mask].sum())
                if n_side < min_leaf or min(n1, n_side - n1) < min_arm:
                    ok = False
                    break
                tau = leaf_weighted_itt(ds.y[mask], d[mask], np.full(n_side, 0.5))
                sides.append(n_side * tau * tau)
            if ok:
                gain = sides[0] + sides[1]
                if gain > best[0]:
                    best = (gain, j, thr)
    return best


def predict_tau(node, x):
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.tau


def test_grow_matches_exhaustive_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(40, 90))
        x = rng.normal(size=(n, 3))
        d = rng.integers(0, 2, n)
        while min(d.sum(), n - d.sum()) < 4:
            d = rng.integers(0, 2, n)
        y = rng.normal(size=n) + d * (1.0 + x[:, 1])
        ds = make_ds(x, d, y)
        cfg = GrowthConfig(regime=RANDOMIZED, max_depth=1, min_leaf_fraction=0.1,
                           min_arm_count=2)
        root = grow(ds, half(ds), cfg)
        min_leaf = max(1, math.ceil(0.1 * n))
        gain, j, thr = oracle_best_split(ds, min_leaf, 2)
        parent = n * leaf_weighted_itt(y, d.astype(float), np.full(n, 0.5)) ** 2
        if gain <= parent:
            assert root.is_leaf
            continue
        assert not root.is_leaf
        tree_gain = (root.left.n * root.left.tau ** 2
                     + root.right.n * root.right.tau ** 2)
        assert tree_gain >= gain - 1e-9
        if tree_gain - gain <= 1e-9:
            assert root.feature == j
            assert root.threshold == pytest.approx(thr, abs=1e-12)


def test_grow_hand_case_exact_threshold():
    ds = bump_ds()
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=1, min_leaf_fraction=0.1,
                       min_arm_count=1)
    root = grow(ds, half(ds), cfg)
    # mirrored candidates at 2.5 and 6.5 tie; the lower threshold wins
    assert root.feature == 0
    assert root.threshold == 2.5
    assert root.left.tau == pytest.approx(1.0, abs=1e-15)
    assert root.right.tau == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_grow_feature_tie_prefers_lower_index():
    ds = bump_ds(copies=2)  # second column duplicates the first
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=1, min_leaf_fraction=0.1,
                       min_arm_count=1)
    root = grow(ds, half(ds), cfg)
    assert root.feature == 0


def test_grow_requires_strict_improvement():
    # a homogeneous effect gives every split the same reward as the root
    x = np.arange(20.0)
    d = np.tile([1, 0], 10)
    ds = make_ds(x, d, d.astype(float))
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=3, min_leaf_fraction=0.1,
                       min_arm_count=1)
    assert grow(ds, half(ds), cfg).is_leaf


def test_grow_constant_outcome_root_only():
    x = np.arange(30.0)
    d = np.tile([1, 0], 15)
    ds = make_ds(x, d, np.full(30, 7.0))
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=2, min_leaf_fraction=0.1,
                       min_arm_count=1)
    root = grow(ds, half(ds), cfg)
    assert root.is_leaf and root.tau == 0.0


def test_grow_honors_constraints():
    sample = generate(design_spec(2, 1200, seed=22))
    e = np.full(1200, sample.dataset.z.mean())
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=3, min_leaf_fraction=0.1,
                       min_arm_count=15)
    root = grow(sample.dataset, e, cfg)
    min_leaf = math.ceil(0.1 * 1200)

    def walk(node, depth):
        assert depth <= 3
        if node.is_leaf:
            assert node.n >= min_leaf
            assert node.n1 >= 15 and node.n0 >= 15
        else:
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

    walk(root, 0)


def test_grow_root_arm_too_small():
    x = np.arange(30.0)
    d = np.zeros(30, dtype=int)
    d[:3] = 1
    ds = make_ds(x, d, np.random.default_rng(0).normal(size=30))
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=1, min_arm_count=5)
    with pytest.raises(EstimationError, match="root has arm counts"):
        grow(ds, half(ds), cfg)


def test_probabilities_must_be_one_per_unit():
    ds = bump_ds()
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=1, min_leaf_fraction=0.1,
                       min_arm_count=1)
    short = np.full(ds.n_units - 1, 0.5)
    with pytest.raises(InputError, match="y, d and e must be aligned"):
        grow(ds, short, cfg)
    root = grow(ds, half(ds), cfg)
    with pytest.raises(InputError, match="y, d and e must be aligned"):
        holdout_loss(root, ds, short, RANDOMIZED)
    with pytest.raises(InputError, match="y, d and e must be aligned"):
        select_alpha(prune_path(root, ds.n_units), ds, short, RANDOMIZED)


def test_growth_config_validation():
    with pytest.raises(InputError):
        GrowthConfig(regime=RANDOMIZED, max_depth=0)
    with pytest.raises(InputError):
        GrowthConfig(regime=RANDOMIZED, min_leaf_fraction=0.6)
    with pytest.raises(InputError):
        GrowthConfig(regime=RANDOMIZED, min_leaf_fraction=0.0)
    with pytest.raises(InputError):
        GrowthConfig(regime=RANDOMIZED, min_arm_count=0)
    with pytest.raises(InputError):
        GrowthConfig(regime=RANDOMIZED, alpha_override=-0.5)
    # the fit's options are checked here too, in every regime
    for ridge, word in ((-1.0, "nonnegative"), (math.nan, "nonnegative"),
                        (math.inf, "finite")):
        with pytest.raises(InputError, match=f"ridge_lambda must be {word}"):
            GrowthConfig(regime=RANDOMIZED, ridge_lambda=ridge)
    for lo, hi in ((0.9, 0.1), (0.5, 0.5), (-0.1, 0.9), (0.1, 1.5), (math.nan, 0.9)):
        with pytest.raises(InputError, match="invalid trim bounds"):
            GrowthConfig(regime=RANDOMIZED, trim_lo=lo, trim_hi=hi)


def test_prune_path_shape():
    rng = np.random.default_rng(23)
    n = 400
    x = rng.normal(size=(n, 4))
    d = rng.integers(0, 2, n)
    y = rng.normal(size=n) + d * (1.0 + 2.0 * (x[:, 0] > 0) + (x[:, 1] > 0))
    ds = make_ds(x, d, y)
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=3, min_leaf_fraction=0.05,
                       min_arm_count=5)
    root = grow(ds, half(ds), cfg)
    assert not root.is_leaf
    path = prune_path(root, n)
    alphas = [el.alpha_threshold for el in path.elements]
    leaves = [el.root.n_leaves() for el in path.elements]
    assert alphas[0] == 0.0
    assert all(b > a for a, b in zip(alphas, alphas[1:]))
    assert all(b < a for a, b in zip(leaves, leaves[1:]))
    assert leaves[0] == root.n_leaves()
    assert leaves[-1] == 1
    assert path.elements[-1].root.is_leaf


@st.composite
def grown_trees(draw):
    """A tree grown on a small sample whose values repeat, and its n."""
    n = draw(st.integers(20, 80))
    values = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
    x = draw(hnp.arrays(np.float64, (n, 2), elements=values))
    d = draw(hnp.arrays(np.int8, n, elements=st.integers(0, 1)))
    y = draw(hnp.arrays(np.float64, n, elements=st.one_of(values, st.floats(-3.0, 3.0))))
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=draw(st.integers(1, 4)),
                       min_leaf_fraction=0.05, min_arm_count=1)
    try:
        return grow(make_ds(x, d, y), np.full(n, 0.5), cfg), n
    except CtivError:
        reject()


@SETTINGS
@given(grown_trees())
def test_prune_path_thresholds_rise_and_leaf_counts_fall(case):
    root, n = case
    path = prune_path(root, n)
    alphas = [el.alpha_threshold for el in path.elements]
    leaves = [el.root.n_leaves() for el in path.elements]
    assert alphas[0] == 0.0 and leaves[0] <= root.n_leaves() and leaves[-1] == 1
    assert all(b > a for a, b in zip(alphas, alphas[1:]))
    assert all(b < a for a, b in zip(leaves, leaves[1:]))


@pytest.mark.parametrize("seed", [0, 9])
def test_splits_on_rounding_noise_leave_no_threshold_at_or_below_zero(seed):
    # with a constant outcome every contrast is zero up to rounding, and a
    # split can gain on that noise alone, at a price <= 0. Element zero of
    # the path drops such splits; a negative threshold made fit_ctiv fail,
    # in select_alpha's square root (seed 9) or as a negative alpha (seed 0)
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 0.0, 1.0], size=(200, 2))
    d = rng.integers(0, 2, 200)
    ds = make_ds(x, d, np.full(200, 1.8483852144648822))
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=3, min_leaf_fraction=0.05,
                       min_arm_count=1)
    root = grow(ds, half(ds), cfg)
    alphas = [el.alpha_threshold for el in prune_path(root, 200).elements]
    assert alphas[0] == 0.0 and all(b > a for a, b in zip(alphas, alphas[1:]))
    iv = GrowthConfig(regime=RegimeKind.IV_RANDOMIZED, max_depth=3,
                      min_leaf_fraction=0.05, min_arm_count=1)
    tree = fit_ctiv(ds, iv, holdout_split(ds, (0.5, 0.5), seed=seed), seed=seed)
    assert tree.alpha == 0.0
    # and growth refuses a split that gains only rounding
    assert root.n_leaves() == 1 and tree.root.n_leaves() == 1


def test_prune_path_depth1_alpha_closed_form():
    ds = bump_ds()
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=1, min_leaf_fraction=0.1,
                       min_arm_count=1)
    root = grow(ds, half(ds), cfg)
    path = prune_path(root, ds.n_units)
    assert len(path.elements) == 2
    # price of the single split: (children reward - root reward) / n
    children = root.left.n * root.left.tau ** 2 + root.right.n * root.right.tau ** 2
    parent = root.n * root.tau ** 2
    expected = (children - parent) / ds.n_units
    assert path.elements[1].alpha_threshold == pytest.approx(expected, abs=1e-12)


def test_prune_collapses_noise_split_first():
    rng = np.random.default_rng(24)
    n = 600
    x = np.column_stack([rng.normal(size=n), rng.normal(size=n)])
    d = rng.integers(0, 2, n)
    # strong signal on x1 only; x2 splits pick up noise
    y = rng.normal(size=n) * 0.3 + d * 3.0 * (x[:, 0] > 0)
    ds = make_ds(x, d, y)
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=3, min_leaf_fraction=0.05,
                       min_arm_count=5)
    root = grow(ds, half(ds), cfg)
    path = prune_path(root, n)
    two_leaf = [el for el in path.elements if el.root.n_leaves() == 2]
    assert len(two_leaf) == 1
    assert two_leaf[0].root.feature == 0


def test_prune_path_resweeps_an_ancestor_exposed_at_the_same_price():
    # once node 4 goes at 0.465, node 2 and the root tie at 0.785 in exact
    # arithmetic, but the root's price rounds one ulp above node 2's; only
    # a second sweep at 0.785 collapses it, so no threshold repeats
    def leaf(node_id, n, tau):
        return TreeNode(n=n, n1=1, n0=n - 1, tau=tau, node_id=node_id)

    def split(node_id, n, tau, left, right):
        return TreeNode(n=n, n1=1, n0=n - 1, tau=tau, node_id=node_id, feature=0,
                        threshold=0.0, left=left, right=right)

    node4 = split(4, 8, 0.7, leaf(8, 2, 2.0), leaf(9, 6, -0.5))
    root = split(1, 12, 0.3, split(2, 10, -0.5, node4, leaf(5, 2, 2.0)), leaf(3, 2, 2.0))
    path = prune_path(root, 12)
    assert [el.root.n_leaves() for el in path.elements] == [4, 3, 1]
    assert [el.alpha_threshold for el in path.elements] == [0.0, 0.465, 0.785]


def test_pruning_refuses_a_bad_training_count_or_price():
    ds = staircase_ds()
    root = grow(ds, half(ds), GrowthConfig(regime=RANDOMIZED, min_arm_count=1))
    with pytest.raises(InputError, match="n_train must be positive"):
        prune_path(root, 0)
    for alpha in (-1.0, math.nan):
        with pytest.raises(InputError, match="alpha must be nonnegative"):
            prune_at_alpha(root, alpha, ds.n_units)


def test_holdout_loss_refuses_a_leaf_without_an_effect():
    ds = staircase_ds()
    leaf = TreeNode(n=ds.n_units, n1=8, n0=8, tau=math.nan, node_id=1)
    with pytest.raises(EstimationError, match="reached a leaf without an effect"):
        holdout_loss(leaf, ds, half(ds), RANDOMIZED)


def test_fit_without_a_training_unit_fails():
    ds = generate(design_spec(1, 200, seed=3)).dataset
    with pytest.raises(ValidationError, match="no training units survive trimming"):
        fit_ctiv(ds, GrowthConfig(regime=RANDOMIZED), np.zeros(ds.n_units, dtype=bool), 3)


def test_prune_at_alpha_reproduces_path():
    ds = staircase_ds()
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=2, min_leaf_fraction=0.1,
                       min_arm_count=1)
    root = grow(ds, half(ds), cfg)
    path = prune_path(root, ds.n_units)
    assert len(path.elements) >= 2
    for el in path.elements:
        chosen = prune_at_alpha(root, el.alpha_threshold, ds.n_units)
        assert chosen.n_leaves() == el.root.n_leaves()
    # between two thresholds the earlier subtree still applies
    if len(path.elements) >= 2:
        t0, t1 = (path.elements[0].alpha_threshold,
                  path.elements[1].alpha_threshold)
        mid = (t0 + t1) / 2.0
        assert prune_at_alpha(root, mid, ds.n_units).n_leaves() \
            == path.elements[0].root.n_leaves()


def test_holdout_loss_matches_direct_computation():
    ds = bump_ds()
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=1, min_leaf_fraction=0.1,
                       min_arm_count=1)
    root = grow(ds, half(ds), cfg)
    rng = np.random.default_rng(25)
    m = 50
    xv = rng.uniform(1.0, 8.0, size=m)
    dv = rng.integers(0, 2, m)
    yv = rng.normal(size=m) + dv * (xv <= 2.5)
    va = make_ds(xv, dv, yv)
    got = holdout_loss(root, va, half(va), RANDOMIZED)
    y_star = yv * (dv - 0.5) / 0.25
    tau = np.array([predict_tau(root, np.array([v])) for v in xv])
    assert got == pytest.approx(-np.mean((y_star - tau) ** 2), abs=1e-12)


def test_select_alpha_matches_oracle_scan():
    rng = np.random.default_rng(26)
    n = 500
    x = rng.normal(size=(n, 3))
    d = rng.integers(0, 2, n)
    y = rng.normal(size=n) + d * (1.0 + 1.5 * (x[:, 0] > 0))
    ds = make_ds(x, d, y)
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=3, min_leaf_fraction=0.05,
                       min_arm_count=5)
    root = grow(ds, half(ds), cfg)
    path = prune_path(root, n)

    m = 300
    xv = rng.normal(size=(m, 3))
    dv = rng.integers(0, 2, m)
    yv = rng.normal(size=m) + dv * (1.0 + 1.5 * (xv[:, 0] > 0))
    va = make_ds(xv, dv, yv)

    alpha, subtree = select_alpha(path, va, half(va), RANDOMIZED)

    y_star = yv * (dv - 0.5) / 0.25
    best_k, best_q = 0, -math.inf
    for k, el in enumerate(path.elements):
        tau = np.array([predict_tau(el.root, row) for row in xv])
        q = -np.mean((y_star - tau) ** 2)
        if q >= best_q:
            best_k, best_q = k, q
    assert subtree.n_leaves() == path.elements[best_k].root.n_leaves()
    t_k = path.elements[best_k].alpha_threshold
    if best_k == len(path.elements) - 1 or t_k == 0.0:
        assert alpha == t_k
    else:
        nxt = path.elements[best_k + 1].alpha_threshold
        assert alpha == pytest.approx(math.sqrt(t_k * nxt), abs=1e-12)


def test_select_alpha_tie_prefers_fewer_leaves():
    ds = bump_ds()
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=1, min_leaf_fraction=0.1,
                       min_arm_count=1)
    root = grow(ds, half(ds), cfg)
    # duplicate subtree: both elements score identically, so the later
    # (conventionally smaller) one must win
    fake = PruningPath(elements=(PathElement(0.0, root), PathElement(0.5, root)))
    alpha, _ = select_alpha(fake, ds, half(ds), RANDOMIZED)
    assert alpha == 0.5


@functools.lru_cache(maxsize=None)
def scaled_fit(scale):
    """The 9,000-row design-2 fit at seed 1, outcomes times ``scale``."""
    ds = generate(design_spec(2, 9000, 1)).dataset
    ds = Dataset(ds.covariates, ds.z, ds.w, ds.y * scale, ds.feature_names)
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=3, min_leaf_fraction=0.05)
    return fit_ctiv(ds, cfg, holdout_split(ds, (0.5, 0.5), 0), 0)


@pytest.mark.parametrize("scale", [1e78, 1e-78, 1e-120, 1e150])
def test_a_rescaled_outcome_gives_the_rescaled_tree(scale):
    # thresholds scale with y^2, so alpha's midpoint must neither overflow
    # to inf (one leaf) nor underflow to 0 (seven leaves)
    def splits(node):
        return [] if node.is_leaf else [(node.feature, node.threshold),
                                        *splits(node.left), *splits(node.right)]

    base, tree = scaled_fit(1.0), scaled_fit(scale)
    assert base.root.n_leaves() == 2
    assert splits(tree.root) == splits(base.root)
    assert tree.alpha / scale / scale == pytest.approx(base.alpha, rel=1e-12)
    assert [leaf.cace_hat / scale for leaf in tree.estimates] == \
        pytest.approx([leaf.cace_hat for leaf in base.estimates], rel=1e-12)


def test_outcomes_whose_squares_overflow_are_refused():
    ds = generate(design_spec(2, 200, 1)).dataset
    cfg = GrowthConfig(regime=RANDOMIZED, min_leaf_fraction=0.05, min_arm_count=1)
    for scale, fits in ((1e150, True), (1e155, False)):
        big = Dataset(ds.covariates, ds.z, ds.w, ds.y * scale, ds.feature_names)
        if fits:
            grow(big, half(big), cfg)
        else:
            with pytest.raises(ValidationError, match="overflow"):
                grow(big, half(big), cfg)


def test_outcomes_whose_squares_underflow_are_refused():
    ds = generate(design_spec(2, 200, 1)).dataset
    cfg = GrowthConfig(regime=RANDOMIZED, min_leaf_fraction=0.05, min_arm_count=1)
    for y, fits in ((ds.y * 1e-150, True), (ds.y * 1e-155, False),
                    (np.full(ds.n_units, 1e-160), False), (np.zeros(ds.n_units), True)):
        tiny = Dataset(ds.covariates, ds.z, ds.w, y, ds.feature_names)
        if fits:
            grow(tiny, half(tiny), cfg)
        else:
            with pytest.raises(ValidationError, match="the least normal float"):
                grow(tiny, half(tiny), cfg)


def test_full_tree_node_numbering():
    ds = staircase_ds()
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=2, min_leaf_fraction=0.1,
                       min_arm_count=1, alpha_override=0.0, trim_lo=0.01, trim_hi=0.99)
    tree = fit_ctiv(ds, cfg, np.ones(ds.n_units, dtype=bool), seed=0)
    ids = []

    def walk(node):
        ids.append(node.node_id)
        if not node.is_leaf:
            walk(node.left)
            walk(node.right)

    walk(tree.root)
    assert sorted(ids) == [1, 2, 3, 4, 5, 6, 7]
    assert sorted(est.leaf_id for est in tree.estimates) == [4, 5, 6, 7]
    for node_id, est in tree.leaf_map.items():
        assert est.leaf_id == node_id


def _heap_numbered(node, node_id=1):
    return node.node_id == node_id and (node.is_leaf or (
        _heap_numbered(node.left, 2 * node_id)
        and _heap_numbered(node.right, 2 * node_id + 1)))


def test_nodes_are_born_with_heap_ids_that_pruning_keeps():
    ds = staircase_ds()
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=3, min_arm_count=1)
    root = grow(ds, half(ds), cfg)
    path = prune_path(root, ds.n_units)
    assert root.n_leaves() > 2 and len(path.elements) > 2
    assert all(_heap_numbered(el.root) for el in path.elements)


def test_fit_design1_recovers_informative_split():
    sample = generate(design_spec(1, 1500, seed=27))
    split = holdout_split(sample.dataset, (0.5, 0.5), seed=27)
    cfg = GrowthConfig(regime=RegimeKind.IV_RANDOMIZED,
                       max_depth=2, min_leaf_fraction=0.1, min_arm_count=10)
    tree = fit_ctiv(sample.dataset, cfg, split, seed=27)
    assert not tree.root.is_leaf
    assert tree.root.feature == 0
    low, high = (tree.leaf_map[i].cace_hat
                 for i in tree.assign_leaves(np.array([[-0.6], [0.6]])))
    assert low < high


def test_fit_full_compliance_regimes_agree_exactly(unadjusted_tree_payload):
    rng = np.random.default_rng(28)
    n = 900
    x = rng.normal(size=(n, 2))
    z = rng.integers(0, 2, n)
    y = rng.normal(size=n) + 0.5 * x[:, 0] + z * (1.0 + 2.0 * (x[:, 1] > 0))
    ds = Dataset(covariates=x, z=z, w=z, y=y, feature_names=("x1", "x2"))
    split = holdout_split(ds, (0.5, 0.5), seed=28)
    trees = {}
    for kind in (RegimeKind.CT, RegimeKind.IV_UNCONFOUNDED):
        cfg = GrowthConfig(regime=kind, max_depth=2, min_leaf_fraction=0.1,
                           min_arm_count=10)
        trees[kind] = fit_ctiv(ds, cfg, split, seed=28)
    ct_payload = json.loads(export_json(trees[RegimeKind.CT]))["tree"]
    # iv-unconfounded adjusts its TSLS; unadjusted, its leaves are ct's
    iv_tree = trees[RegimeKind.IV_UNCONFOUNDED]
    assert json.loads(export_json(iv_tree))["tree"] != ct_payload
    assert unadjusted_tree_payload(iv_tree, ds) == ct_payload
    for est in trees[RegimeKind.IV_UNCONFOUNDED].estimates:
        assert est.pi_c_hat == 1.0
        assert abs(est.cace_hat - est.itt_hat) == 0.0


def test_regime_kind_given_as_a_string_is_the_enum():
    sample = generate(design_spec(2, 2000, seed=38))
    split = holdout_split(sample.dataset, (0.5, 0.5), seed=38)
    texts = []
    for kind in ("ct", RegimeKind.CT):
        cfg = GrowthConfig(regime=kind, max_depth=2, min_leaf_fraction=0.1,
                           min_arm_count=10)
        assert cfg.regime is RegimeKind.CT
        texts.append(export_json(fit_ctiv(sample.dataset, cfg, split, seed=38)))
    assert texts[0] == texts[1]
    with pytest.raises(InputError, match="unknown regime kind 'nope'"):
        GrowthConfig(regime="nope")


def test_fit_alpha_override_extremes():
    sample = generate(design_spec(2, 800, seed=29))
    split = holdout_split(sample.dataset, (0.5, 0.5), seed=29)
    base = GrowthConfig(regime=RegimeKind.IV_RANDOMIZED,
                        max_depth=2, min_leaf_fraction=0.1, min_arm_count=10)
    huge = fit_ctiv(sample.dataset,
                    dataclasses.replace(base, alpha_override=1e9),
                    split, seed=29)
    assert huge.root.is_leaf
    assert huge.alpha == 1e9
    free = fit_ctiv(sample.dataset,
                    dataclasses.replace(base, alpha_override=0.0),
                    split, seed=29)
    picked = fit_ctiv(sample.dataset, base, split, seed=29)
    assert free.root.n_leaves() >= picked.root.n_leaves()


def test_fit_rejects_a_split_that_is_not_a_training_mask():
    # a split is one boolean per unit: index arrays and masks of another
    # shape or type are refused, not read as some other partition
    sample = generate(design_spec(1, 200, seed=30))
    cfg = GrowthConfig(regime=RegimeKind.IV_RANDOMIZED)
    mask = holdout_split(sample.dataset, (0.5, 0.5), seed=30)
    for bad in (np.flatnonzero(mask), mask.astype(np.int8), mask.astype(float),
                mask[None, :], (np.flatnonzero(mask), np.flatnonzero(~mask))):
        with pytest.raises(InputError, match=r"boolean training mask of shape \(200,\)"):
            fit_ctiv(sample.dataset, cfg, bad, seed=30)


def test_fit_rejects_a_split_that_leaves_a_unit_out():
    # a mask one unit short would drop that unit from the fit
    sample = generate(design_spec(1, 200, seed=30))
    cfg = GrowthConfig(regime=RegimeKind.IV_RANDOMIZED)
    with pytest.raises(InputError, match=r"got bool \(199,\)"):
        fit_ctiv(sample.dataset, cfg, np.arange(199) < 100, seed=30)


def test_fit_rejects_out_of_range_split():
    # a mask that reaches past the last unit
    sample = generate(design_spec(1, 100, seed=31))
    cfg = GrowthConfig(regime=RegimeKind.IV_RANDOMIZED)
    with pytest.raises(InputError, match=r"got bool \(101,\)"):
        fit_ctiv(sample.dataset, cfg, np.arange(101) < 50, seed=31)


def test_fit_checks_trim_bounds_before_any_propensity_fit(monkeypatch):
    sample = generate(design_spec(1, 200, seed=32))
    split = holdout_split(sample.dataset, (0.5, 0.5), seed=32)

    def no_fit(*args, **kwargs):
        raise AssertionError("fit_logistic ran before the trim bounds were checked")

    monkeypatch.setattr(ctiv.tree, "fit_logistic", no_fit)
    with pytest.raises(InputError, match="trim bounds"):
        fit_ctiv(sample.dataset, GrowthConfig(regime="ct", trim_lo=0.9, trim_hi=0.1),
                 split, seed=32)


def test_fit_holds_its_sample_once():
    # no trim and no test part: the pooled tree grows on the input itself,
    # and only the holdout halves are copies
    ds = generate(design_spec(2, 20_000, seed=0)).dataset
    assert ds.n_units <= ctiv.tree._OVERLAP_ROWS        # one process
    split = holdout_split(ds, (0.5, 0.5), seed=0)
    cfg = GrowthConfig(regime=RANDOMIZED, max_depth=4, min_leaf_fraction=0.02)
    tracemalloc.start()
    try:
        tree = fit_ctiv(ds, cfg, split, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tree.n_trimmed == 0 and tree.n_omega == ds.n_units
    assert peak < 4 * ds.covariates.nbytes


# --- the holdout side in a worker ---

needs_fork = pytest.mark.skipif(not ctiv.parallel.fork_is_safe(), reason="cannot fork here")


@pytest.fixture
def overlapped(monkeypatch):
    """Every fit grows its holdout side in a forked worker, as on two CPUs
    above the cutoff; the list holds the size of each pool started."""
    pools = []
    real = ctiv.parallel.ProcessPoolExecutor
    monkeypatch.setattr(ctiv.parallel, "ProcessPoolExecutor",
                        lambda n, **kw: pools.append(n) or real(n, **kw))
    monkeypatch.setattr(ctiv.tree, "_OVERLAP_ROWS", 0)
    monkeypatch.setattr(ctiv.parallel, "usable_cpus", lambda: 2)
    return pools


def one_and_two_processes(fit, overlapped, monkeypatch):
    """``fit()``'s outcome in one process, then with the overlap: its
    export or its error's class and message."""
    def outcome():
        try:
            return export_json(fit())
        except CtivError as exc:
            return type(exc), str(exc)

    with monkeypatch.context() as serial:
        serial.setattr(ctiv.parallel, "usable_cpus", lambda: 1)
        one = outcome()
    assert overlapped == []
    return one, outcome()


@needs_fork
@pytest.mark.parametrize("kind", list(RegimeKind))
def test_overlapped_fit_matches_the_one_process_fit(kind, overlapped, monkeypatch):
    sample = generate(design_spec(2, 3000, seed=38))
    split = holdout_split(sample.dataset, (0.5, 0.5), seed=38)
    cfg = GrowthConfig(regime=kind, max_depth=4,
                       min_leaf_fraction=0.02, min_arm_count=10)
    one, two = one_and_two_processes(
        lambda: fit_ctiv(sample.dataset, cfg, split, seed=38), overlapped, monkeypatch)
    assert two == one and isinstance(one, str)
    assert overlapped == [1]


def arms_mostly_in_validation():
    """400 units with 100 assigned, only 5 of them in the training half."""
    rng = np.random.default_rng(39)
    z = np.zeros(400, dtype=np.int64)
    z[:5] = 1
    z[200:295] = 1
    ds = make_ds(rng.normal(size=(400, 2)), z, rng.normal(size=400) + z)
    return ds, np.arange(400) < 200


@needs_fork
@pytest.mark.parametrize("min_arm", [10, 101])     # the pooled grow fails too at 101
def test_overlapped_fit_raises_the_holdout_sides_error(min_arm, overlapped, monkeypatch):
    ds, split = arms_mostly_in_validation()
    cfg = GrowthConfig(regime=RegimeKind.IV_RANDOMIZED,
                       min_arm_count=min_arm)
    one, two = one_and_two_processes(
        lambda: fit_ctiv(ds, cfg, split, seed=39), overlapped, monkeypatch)
    assert one == (EstimationError, f"root has arm counts (5, 195); need >= {min_arm} each")
    assert two == one
    assert overlapped == [1]


@needs_fork
def test_overlapped_fit_survives_a_dead_worker(overlapped, monkeypatch):
    sample = generate(design_spec(2, 1500, seed=40))
    split = holdout_split(sample.dataset, (0.5, 0.5), seed=40)
    cfg = GrowthConfig(regime=RegimeKind.IV_UNCONFOUNDED,
                       max_depth=3, min_leaf_fraction=0.05)
    this, ran_here, real = os.getpid(), [], ctiv.tree.select_alpha

    def select_alpha(*args):
        if os.getpid() != this:
            os._exit(1)                 # as if killed from outside
        ran_here.append(True)
        return real(*args)

    def fit():
        return fit_ctiv(sample.dataset, cfg, split, seed=40)

    one, _ = one_and_two_processes(fit, overlapped, monkeypatch)
    overlapped.clear()
    monkeypatch.setattr(ctiv.tree, "select_alpha", select_alpha)
    assert export_json(fit()) == one
    assert overlapped == [1] and ran_here == [True]


@needs_fork
def test_alpha_override_starts_no_pool(overlapped):
    sample = generate(design_spec(2, 800, seed=41))
    split = holdout_split(sample.dataset, (0.5, 0.5), seed=41)
    cfg = GrowthConfig(regime=RegimeKind.IV_RANDOMIZED,
                       alpha_override=0.01)
    assert fit_ctiv(sample.dataset, cfg, split, seed=41).alpha == 0.01
    assert overlapped == []


def simple_tree():
    left = TreeNode(n=5, n1=2, n0=3, tau=-1.0, node_id=2)
    right = TreeNode(n=5, n1=3, n0=2, tau=2.0, node_id=3)
    root = TreeNode(n=10, n1=5, n0=5, tau=0.5, feature=0, threshold=1.5,
                    left=left, right=right, node_id=1)
    estimates = tuple(
        LeafEstimate(leaf.node_id, leaf.n, leaf.n1, leaf.n0, leaf.tau, 0.0, 0.0, 1.0,
                     leaf.tau, 1.0, 1.0, 20.0, True) for leaf in (left, right))
    return CausalTree(
        root=root, estimates=estimates, feature_names=("x1",),
        regime_kind=RegimeKind.IV_RANDOMIZED, alpha=0.0, p_hat=0.5,
        propensity=None, adjust_covariates=False, n_input=10, n_trimmed=0,
        n_train=5, n_validation=5, n_omega=10, seed=0, max_depth=1,
        min_leaf_fraction=0.1, min_arm_count=1)


def test_assign_leaves_boundary():
    tree = simple_tree()
    got = tree.assign_leaves(np.array([[1.5], [1.5000001], [-3.0], [9.0]]))
    assert got.tolist() == [2, 3, 2, 3]


def test_assign_leaves_shape_check():
    with pytest.raises(InputError):
        simple_tree().assign_leaves(np.zeros((4, 2)))


def test_leaf_partition_covers_everything():
    sample = generate(design_spec(2, 2000, seed=32))
    split = holdout_split(sample.dataset, (0.5, 0.5), seed=32)
    cfg = GrowthConfig(regime=RegimeKind.IV_RANDOMIZED,
                       max_depth=2, min_leaf_fraction=0.1, min_arm_count=10)
    tree = fit_ctiv(sample.dataset, cfg, split, seed=32)
    pts = np.random.default_rng(33).normal(size=(10_000, 10), scale=5.0)
    ids = tree.assign_leaves(pts)
    leaf_ids = set(tree.leaf_map)
    assert set(np.unique(ids)) <= leaf_ids
    counts = {i: int((ids == i).sum()) for i in leaf_ids}
    assert sum(counts.values()) == 10_000
    # omega units land in the leaf whose estimate counted them
    omega_ids = tree.assign_leaves(sample.dataset.covariates)
    for leaf_id, est in tree.leaf_map.items():
        assert int((omega_ids == leaf_id).sum()) == est.n


@settings(SETTINGS, max_examples=40)
@given(st.integers(1, 5), st.sampled_from(list(RegimeKind)), st.integers(1, 4),
       st.integers(0, 2 ** 16), st.booleans())
def test_json_round_trip_of_random_fits(design, kind, depth, seed, pruned_at_zero):
    sample = generate(design_spec(design, 400, seed))
    split = holdout_split(sample.dataset, (0.5, 0.5), seed=seed)
    cfg = GrowthConfig(regime=kind, max_depth=depth,
                       min_leaf_fraction=0.05, min_arm_count=5,
                       alpha_override=0.0 if pruned_at_zero else None)
    try:
        tree = fit_ctiv(sample.dataset, cfg, split, seed)
    except CtivError:
        reject()
    text = export_json(tree)
    assert export_json(load_json(text)) == text


def test_json_round_trip_bit_identical():
    sample = generate(design_spec(1, 600, seed=34))
    split = holdout_split(sample.dataset, (0.5, 0.5), seed=34)
    cfg = GrowthConfig(regime=RegimeKind.IV_RANDOMIZED,
                       max_depth=2, min_leaf_fraction=0.1, min_arm_count=10)
    tree = fit_ctiv(sample.dataset, cfg, split, seed=34)
    text = export_json(tree)
    again = load_json(text)
    assert export_json(again) == text
    assert again.leaf_map.keys() == tree.leaf_map.keys()
    for leaf_id, est in tree.leaf_map.items():
        other = again.leaf_map[leaf_id]
        assert other.cace_hat == est.cace_hat or (
            math.isnan(other.cace_hat) and math.isnan(est.cace_hat))
        assert other.n == est.n


def test_fit_is_deterministic():
    sample = generate(design_spec(3, 700, seed=35))
    split = holdout_split(sample.dataset, (0.5, 0.5), seed=35)
    cfg = GrowthConfig(regime=RegimeKind.IV_RANDOMIZED,
                       max_depth=2, min_leaf_fraction=0.1, min_arm_count=10)
    one = export_json(fit_ctiv(sample.dataset, cfg, split, seed=35))
    two = export_json(fit_ctiv(sample.dataset, cfg, split, seed=35))
    assert one == two


def test_export_dot_labels():
    tree = simple_tree()
    dot = export_dot(tree)
    assert dot.startswith("digraph")
    assert "x1 <= 1.5" in dot
    assert "50.0%" in dot

    sample = generate(design_spec(1, 300, seed=36))
    split = holdout_split(sample.dataset, (0.5, 0.5), seed=36)
    cfg = GrowthConfig(regime=RegimeKind.IV_RANDOMIZED,
                       max_depth=1, min_leaf_fraction=0.1, min_arm_count=10,
                       alpha_override=1e9)
    rooty = fit_ctiv(sample.dataset, cfg, split, seed=36)
    assert "100.0%" in export_dot(rooty)


def test_export_dot_escapes_quotes_and_backslashes_in_feature_names():
    # the CSV header cell "x""1\" is the feature name x"1\
    tree = dataclasses.replace(simple_tree(), feature_names=('x"1\\',))
    line = export_dot(tree).splitlines()[2]
    assert line == '  1 [label="ITT = 0.500\\n100.0%\\nx\\"1\\\\ <= 1.5"];'


def test_load_json_rejects_garbage():
    from ctiv.errors import ValidationError
    with pytest.raises(ValidationError):
        load_json("not json at all {")
    with pytest.raises(ValidationError):
        load_json('{"format": "something-else", "version": 1}')


def _tree_payload():
    sample = generate(design_spec(2, 800, seed=37))
    split = holdout_split(sample.dataset, (0.5, 0.5), seed=37)
    cfg = GrowthConfig(regime=RegimeKind.IV_RANDOMIZED,
                       max_depth=2, min_leaf_fraction=0.1, min_arm_count=10,
                       alpha_override=0.0)
    payload = json.loads(export_json(fit_ctiv(sample.dataset, cfg, split, seed=37)))
    assert "left" in payload["tree"]
    return payload


# a well-typed propensity record for the 10 features of _tree_payload
_PROPENSITY = {"intercept": 0.1, "coefficients": [0.0] * 10, "ridge_lambda": 1e-6,
               "converged": True, "iterations": 4}


def test_load_json_accepts_a_propensity_record():
    payload = _tree_payload()
    payload["meta"]["propensity"] = _PROPENSITY
    tree = load_json(json.dumps(payload))
    assert tree.propensity.iterations == 4
    assert list(tree.propensity.coefficients) == [0.0] * 10


def _first_leaf(payload):
    node = payload["tree"]
    while "left" in node:
        node = node["left"]
    return node


def _broken(edit):
    payload = _tree_payload()
    edit(payload)
    return json.dumps(payload)


@pytest.mark.parametrize("edit, match", [
    (lambda p: p.pop("meta"), "lacks key 'meta'"),
    (lambda p: p["meta"].pop("regime"), "lacks key 'regime'"),
    (lambda p: p["tree"].pop("n"), "lacks key 'n'"),
    (lambda p: p.update(version=2), "version 2"),
    (lambda p: p.pop("version"), "version None"),
    (lambda p: p["tree"].update(feature=10), "feature index 10"),
    (lambda p: p["tree"].update(feature=-1), "feature index -1"),
    (lambda p: p["tree"].update(feature=True), "feature index True"),
    (lambda p: p["tree"].update(threshold="0.5"), "threshold '0.5'"),
    (lambda p: p["tree"].pop("right"), "neither a leaf"),
    (lambda p: p["tree"].update(estimate=None), "neither a leaf"),
    (lambda p: _first_leaf(p).pop("estimate"), "neither a leaf"),
    (lambda p: _first_leaf(p).update(feature=0), "neither a leaf"),
    (lambda p: p["tree"].update(left=[]), "not an object"),
    (lambda p: p["meta"].update(regime="other"), "malformed"),
    (lambda p: p["meta"].update(feature_names=["x1", "x1"]), "distinct"),
    (lambda p: _first_leaf(p).update(node_id=999), "node 999 should have id 4"),
    (lambda p: _first_leaf(p)["estimate"].update(leaf_id=999),
     "leaf 4 holds the estimate of leaf 999"),
    (lambda p: _first_leaf(p).update(n="many"), "node 4: n 'many' is not an integer"),
    (lambda p: p["tree"].update(n1=3.0), r"node 1: n1 3\.0 is not an integer"),
    (lambda p: p["tree"].update(n0=True), "node 1: n0 True is not an integer"),
    (lambda p: p["tree"].update(tau="0.5"), "node 1: tau '0.5' is not a number"),
    (lambda p: p["tree"].update(tau=False), "node 1: tau False is not a number"),
    (lambda p: _first_leaf(p)["estimate"].update(itt_hat="abc"),
     "leaf 4: itt_hat 'abc' is not a number"),
    (lambda p: _first_leaf(p)["estimate"].update(cace_se=None),
     "leaf 4: cace_se None is not a number"),
    (lambda p: _first_leaf(p)["estimate"].update(n=12.5),
     r"leaf 4: n 12\.5 is not an integer"),
    (lambda p: _first_leaf(p)["estimate"].update(first_stage_f=True),
     "leaf 4: first_stage_f True is not a number"),
    (lambda p: _first_leaf(p)["estimate"].update(compliers_ok=1),
     "leaf 4: compliers_ok 1 is not true or false"),
    (lambda p: p["meta"].update(feature_names="x1"), "must be a list"),
    (lambda p: p["meta"].update(alpha="abc"), "meta: alpha 'abc' is not a number"),
    (lambda p: p["meta"].update(n_omega="x"), "meta: n_omega 'x' is not an integer"),
    (lambda p: p["meta"].update(p_hat=[1]), r"meta: p_hat \[1\] is not a number or null"),
    (lambda p: p["meta"].update(seed=1.5), r"meta: seed 1\.5 is not an integer"),
    (lambda p: p["meta"].update(adjust_covariates=0),
     "meta: adjust_covariates 0 is not true or false"),
    (lambda p: p["meta"].update(overall_cace=None),
     "meta: overall_cace None is not a number"),
    (lambda p: p["meta"].update(propensity=_PROPENSITY | {"iterations": "3"}),
     "propensity: iterations '3' is not an integer"),
    (lambda p: p["meta"].update(propensity=_PROPENSITY | {"converged": 1}),
     "propensity: converged 1 is not true or false"),
    (lambda p: p["meta"].update(propensity=_PROPENSITY | {"coefficients": ["1"] * 10}),
     "propensity coefficients: x1 '1' is not a number"),
    (lambda p: p["meta"].update(propensity=_PROPENSITY | {"coefficients": [True] * 10}),
     "propensity coefficients: x1 True is not a number"),
    (lambda p: p["meta"].update(propensity=_PROPENSITY | {"coefficients": [1.0]}),
     "coefficients must be a list of 10 numbers"),
    (lambda p: p["meta"].update(propensity=[1]), "malformed serialised tree: list"),
    (lambda p: _first_leaf(p).update(estimate=None), "leaf 4: estimate None is not an object"),
    (lambda p: _first_leaf(p).update(estimate=[1]), r"leaf 4: estimate \[1\] is not an object"),
    (lambda p: p["meta"].update(propensity=_PROPENSITY | {"coefficients": [10 ** 400] + [0.0] * 9}),
     "propensity coefficients: x1 is an integer beyond the float range"),
    (lambda p: p["tree"].update(threshold=-10 ** 400),
     "node 1: threshold is an integer beyond the float range"),
    # a bool or a whole float is not an integer, also where it equals one
    (lambda p: p.update(version=True), "tree: version True is not an integer"),
    (lambda p: p.update(version=1.0), r"tree: version 1\.0 is not an integer"),
    (lambda p: p["tree"].update(node_id=1.0), r"node 1: node_id 1\.0 is not an integer"),
])
def test_load_json_validates_structure(edit, match):
    from ctiv.errors import ValidationError
    with pytest.raises(ValidationError, match=match):
        load_json(_broken(edit))


def test_load_json_format_marker_only():
    from ctiv.errors import ValidationError
    with pytest.raises(ValidationError, match="version"):
        load_json('{"format": "ctiv-tree"}')
    with pytest.raises(ValidationError, match="format marker"):
        load_json("[1, 2]")
