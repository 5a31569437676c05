"""Recursive-partitioning engine for heterogeneous effects.

Growth greedily maximises the unit-weighted sum of squared leaf
effects, where each leaf effect is the inverse-probability-weighted
arm contrast on the indicator the regime splits on (receipt for a plain
causal tree, assignment for the instrumented variants). A weakest-link
cost-complexity sweep produces the nested pruning path; the complexity
price alpha is picked on a holdout sample by transformed-outcome loss;
the final tree is re-grown on the pooled fitting sample and pruned at
the selected alpha, and its leaves' effect estimates are kept in one
table beside it.

Trees are immutable: pruning builds new nodes, so every snapshot along
the pruning path can be kept safely. A node is born with its id, so the
ids along the path are the grown tree's.
"""

from __future__ import annotations

import json
import math
import sys
from collections import deque
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .dataset import Dataset, check_trim_bounds, trim_by_propensity
from .effects import LeafEstimate, estimate_leaf, overall_cace
from .errors import EstimationError, InputError, ValidationError, require_probabilities
from .parallel import fan_out
from .propensity import (
    PropensityModel,
    check_ridge,
    estimate_constant_p,
    fit_logistic,
)
from .transform import RegimeKind, leaf_weighted_itt, transformed_outcome

# leaf ids are full-binary numbers, held as int64 where rows map to
# leaves: depth d reaches id 2**(d+1) - 1, so 62 is the deepest that fits
MAX_DEPTH = 62


@dataclass(frozen=True)
class GrowthConfig:
    """Knobs for growing and fitting one tree.

    ``regime`` is the one regime a fit reads, a ``RegimeKind`` or its
    value (``"ct"`` is stored as ``RegimeKind.CT``); the units'
    probabilities of its indicator travel beside the data as a vector ``e``.
    ``min_leaf_fraction`` is relative to whichever sample a tree is
    grown on. ``alpha_override`` skips holdout selection and prunes the
    final tree at the given complexity price directly. The rest are
    ``fit_ctiv``'s: the propensity model's ``ridge_lambda`` and the closed
    trim window [``trim_lo``, ``trim_hi``]. No option decides the per-leaf
    TSLS: the regime does, covariate-adjusted exactly under iv-unconfounded.
    """

    regime: RegimeKind
    max_depth: int = 2
    min_leaf_fraction: float = 0.1
    min_arm_count: int = 10
    alpha_override: float | None = None
    ridge_lambda: float = 1e-6
    trim_lo: float = 0.1
    trim_hi: float = 0.9

    def __post_init__(self):
        # stored as the enum: the regime is tested by identity, and a plain
        # "ct" would otherwise grow a receipt tree on assignment
        try:
            object.__setattr__(self, "regime", RegimeKind(self.regime))
        except ValueError:
            raise InputError(f"unknown regime kind {self.regime!r}") from None
        if not 1 <= self.max_depth <= MAX_DEPTH:
            raise InputError(f"max_depth must lie in [1, {MAX_DEPTH}], got {self.max_depth}")
        if not (0.0 < self.min_leaf_fraction <= 0.5):
            raise InputError("min_leaf_fraction must lie in (0, 0.5]")
        if self.min_arm_count < 1:
            raise InputError("min_arm_count must be >= 1")
        if self.alpha_override is not None and not self.alpha_override >= 0:  # or NaN
            raise InputError("alpha_override must be nonnegative")
        check_ridge(self.ridge_lambda)
        check_trim_bounds(self.trim_lo, self.trim_hi)


@dataclass(frozen=True)
class TreeNode:
    """One node; leaves have no feature/threshold/children.

    ``node_id`` follows full-binary-tree numbering (root 1, children of
    k are 2k and 2k+1). ``tau`` is the weighted arm contrast on the
    sample the node was grown on.
    """

    n: int
    n1: int
    n0: int
    tau: float
    node_id: int
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def n_leaves(self) -> int:
        return sum(node.is_leaf for node in _preorder(self))


def _preorder(root: TreeNode):
    """Yield every node of the subtree: a node, then its left subtree,
    then its right subtree."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)


@dataclass(frozen=True)
class PathElement:
    alpha_threshold: float
    root: TreeNode


@dataclass(frozen=True)
class PruningPath:
    """Nested subtrees from the full tree down to the bare root."""

    elements: tuple[PathElement, ...]


# --- growth ---

def _stable_order(col: np.ndarray) -> np.ndarray:
    """``np.argsort(col, kind="stable")``, from a faster unstable sort.

    Ties come back in index order by sorting the unique key
    ``run * n + index``, where ``run`` numbers the runs of equal values.
    ``col`` must hold no NaN, as no Dataset does.
    """
    order = np.argsort(col)
    xs = col[order]
    new_run = xs[1:] != xs[:-1]
    if new_run.all():
        return order
    run = np.concatenate(([0], np.cumsum(new_run)))
    key = run * col.size + order
    key.sort()
    return key % col.size


# A node's features are scanned in blocks of up to this many gathered
# float64 sums (5 per row and feature, 512 KiB): all 10 features of a node
# up to 1,310 rows, one at a time above 6,553. Per node on 10 features (2
# vCPUs, best of 15+ interleaved rounds) a per-feature loop took 557, 943
# and 2,117 us at 250, 1,000 and 2,500 rows, these blocks 170, 471 and
# 1,309; blocks twice as large took 2,278 us at 2,500 rows, and all 10
# features at once 6,201 us at 5,000 against 2,200.
_SCAN_CELLS = 1 << 16


def _best_split(x, sums, orders, n1, min_leaf, min_arm):
    """Best (feature, gain, threshold) cutting a node, or None.

    Row f of ``orders`` holds the node's rows in stable order of feature
    f, ``n1`` of them treated; ``x`` and ``sums`` (wt*y, wt, wc*y, wc and
    d) cover every row. gain is the unnormalised sum
    n_left*tau_left^2 + n_right*tau_right^2 over cuts at midpoints between
    consecutive distinct values that meet the leaf-size and arm-count
    floors. Features are scanned in blocks of ``_SCAN_CELLS // (5 * m)``.
    A feature's candidate is its first maximum, the lowest threshold, and
    replaces the best only with a larger gain, so ties go to the lower
    feature.
    """
    p, m = orders.shape
    # cut c sends sorted rows 0..c left; outside this window a side has
    # fewer than min_leaf rows or min_arm units of an arm
    edge = max(min_leaf, 2 * min_arm)
    n_left = np.arange(edge, m - edge + 1, dtype=np.float64)
    # the arm floors bound the treated count left of each cut
    few = np.maximum(min_arm, n_left - (m - n1) + min_arm)
    many = np.minimum(n_left - min_arm, n1 - min_arm)
    window = (edge - 1, m - edge, n_left, m - n_left, few, many)
    step = max(1, _SCAN_CELLS // (5 * m))
    best = None
    for f0 in range(0, p, step):
        cands = _scan_block(x, sums, orders[f0:f0 + step], f0, window)
        for f, (gain, threshold) in enumerate(cands, f0):
            if gain != -math.inf and (best is None or gain > best[1]):
                best = (f, gain, threshold)     # a valid gain is never -inf
    return best


def _scan_block(x, sums, block, f0, window):
    """Each feature's best (gain, threshold) in a block of a node's orders,
    features f0 on; gain is -inf where no cut is valid. One gather and one
    cumulative sum serve the block: a cumulative sum along an axis adds in
    sequence, so every gain has the bits of a one-feature scan.

    The arithmetic makes no temporaries: the gains go into two (features,
    cuts) buffers, the right side's sums over the left side's, and the
    masks into two bool buffers. It does the operations of ``tau = s0/s1 -
    s2/s3`` and ``gain = n_left*tau_left**2 + n_right*tau_right**2`` in
    their order (``t**2`` is ``t*t``), so it gives their bits."""
    lo, hi, n_left, n_right, few, many = window
    k = block.shape[0]
    block = block.astype(np.intp)
    part = sums.take(block, axis=1)
    block *= x.shape[1]                 # now the flat positions in x
    block += np.arange(f0, f0 + k)[:, None]
    xs = x.take(block)
    np.cumsum(part, axis=2, out=part)
    side = part[:, :, lo:hi]            # the left side's sums; the totals,
                                        # in column m - 1 >= hi, stay
    gain, tau = np.empty((2, k, hi - lo))
    cut, flag = np.empty((2, k, hi - lo), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(side[0], side[1], out=gain)
        np.divide(side[2], side[3], out=tau)
        np.subtract(gain, tau, out=gain)
        np.multiply(gain, gain, out=gain)
        np.multiply(n_left, gain, out=gain)
        np.subtract(part[:4, :, -1:], side[:4], out=side[:4])   # now the right's
        np.divide(side[0], side[1], out=tau)
        np.divide(side[2], side[3], out=side[2])
        np.subtract(tau, side[2], out=tau)
        np.multiply(tau, tau, out=tau)
        np.multiply(n_right, tau, out=tau)
        np.add(gain, tau, out=gain)
    np.equal(xs[:, lo:hi], xs[:, lo + 1:hi + 1], out=cut)
    np.less(side[4], few, out=flag)
    cut |= flag
    np.greater(side[4], many, out=flag)
    cut |= flag
    gain[cut] = -np.inf
    at, pos = np.arange(k), gain.argmax(axis=1)     # first max, even NaN
    thresholds = (xs[at, lo + pos] + xs[at, lo + pos + 1]) / 2.0
    return zip(gain[at, pos].tolist(), thresholds.tolist())


def _grow_node(frame, rows, box, node_id):
    """Grow the subtree with id ``node_id`` on ``rows`` (ascending); at
    depth d, 2^d <= node_id < 2^(d+1). ``box`` is a list holding the node's
    orders (see ``_best_split``), empty at the depth limit; the node takes
    them out and frees them before its children grow."""
    x, sums, mark, cfg, min_leaf, noise = frame
    orders = box.pop() if box else None
    m = rows.size
    # one gather; each row sums pairwise in row order, as a 1-D array does
    t = sums.take(rows, axis=1).sum(axis=1)
    n1 = int(t[4])
    if n1 in (0, m):
        # a cut at a midpoint that rounds to the upper value sends that
        # value left, so a child can miss the arm counts the scan checked
        raise EstimationError("leaf needs at least one unit in each arm")
    tau = float(t[0] / t[1]) - float(t[2] / t[3])
    node = TreeNode(n=m, n1=n1, n0=m - n1, tau=tau, node_id=node_id)
    if (node_id >= 1 << cfg.max_depth or m < 2 * min_leaf
            or min(n1, m - n1) < 2 * cfg.min_arm_count):
        return node                     # no cut can satisfy the floors
    best = _best_split(x, sums, orders, n1, min_leaf, cfg.min_arm_count)
    if best is None:
        return node
    feature, gain, threshold = best
    if gain - m * tau * tau <= m * noise:
        return node                     # no improvement beyond rounding
    goes_left = x[rows, feature] <= threshold
    left_box, right_box = [], []
    if 2 * node_id < 1 << cfg.max_depth:     # the children may split
        mark[rows] = goes_left
        side = mark[orders].ravel()
        left_box.append(orders.compress(side).reshape(len(orders), -1))
        right_box.append(orders.compress(~side).reshape(len(orders), -1))
    del orders                          # the parent's orders are not needed again
    left = _grow_node(frame, rows[goes_left], left_box, 2 * node_id)
    right = _grow_node(frame, rows[~goes_left], right_box, 2 * node_id + 1)
    return replace(node, feature=int(feature), threshold=float(threshold),
                   left=left, right=right)


def _grow_sums(train: Dataset, e: np.ndarray, cfg: GrowthConfig) -> np.ndarray:
    """The (5, n) rows every node of a grow sums: wt*y, wt, wc*y, wc and
    d, for the indicator d of ``cfg.regime``, wt = d/e and wc = (1-d)/(1-e).
    Built here so that d and the weights are freed before any split scan."""
    n = train.n_units
    d = cfg.regime.indicator(train.w, train.z).astype(np.int64)
    n1 = int(d.sum())
    if min(n1, n - n1) < cfg.min_arm_count:
        raise EstimationError(
            f"root has arm counts ({n1}, {n - n1}); need >= {cfg.min_arm_count} each")
    # validates d and e for every node at once: a node's rows are a subset
    leaf_weighted_itt(train.y, d, e)
    df = d.astype(np.float64)
    wt = df / e
    wc = (1.0 - df) / (1.0 - e)
    return np.stack([wt * train.y, wt, wc * train.y, wc, df])


def _outcome_scale(y: np.ndarray, e: np.ndarray) -> float:
    """max|y|, once no fit's sums of squares over these units or a subset
    of them can overflow or fall below the normal floats."""
    e = require_probabilities(e, "e")
    # a holdout loss sums n squares of a transformed outcome, up to max|y| /
    # min(e, 1 - e), less a leaf effect, up to 2 max|y|; gains (4 n max|y|^2) are less
    y_max = float(np.abs(y).max())
    if 0.0 < y_max and y_max * y_max < sys.float_info.min:
        raise ValidationError(f"outcomes up to {y_max:g} in absolute value have squares "
                              f"under {sys.float_info.min:g}, the least normal float")
    gap = y_max / float(np.minimum(e, 1.0 - e).min()) + 2.0 * y_max
    if gap * gap * y.size == math.inf:
        raise ValidationError(f"outcomes up to {y_max:g} in absolute value overflow "
                              f"the fit's sums of squares at {y.size} units")
    return y_max


def grow(train: Dataset, e: np.ndarray, cfg: GrowthConfig) -> TreeNode:
    """Grow the maximal tree on a fitting sample.

    ``e`` holds each unit's probability of the indicator ``cfg.regime``
    splits on, aligned with the rows of ``train`` (checked, with the
    indicator, by ``leaf_weighted_itt`` before any use).

    Each feature is sorted once (the CART presort) into row f of the
    root's (p, n) orders matrix. A child's orders are its parent's, each
    row filtered stably by the side mask, so they equal a stable sort of
    its own rows, and the split scan, a block of features at a time, sums
    in the same order as a per-node sort would. A node's tau sums its rows
    in row order.
    """
    n = train.n_units
    min_leaf = max(1, math.ceil(cfg.min_leaf_fraction * n))
    sums = _grow_sums(train, e, cfg)
    y_max = _outcome_scale(train.y, e)
    # x.take reads x flat, and would copy all of it each time were it not
    # C-contiguous (a Fortran-ordered array from pandas, say)
    x = np.ascontiguousarray(train.covariates)
    # int32 halves their memory; only the box holds the root's orders, so
    # the root can free them
    box = [np.stack([_stable_order(col).astype(np.int32) for col in x.T])]
    # the split scan's gain and a node's m * tau^2 are summed in different
    # orders, so with no effect anywhere they still differ by rounding at
    # the outcome's scale, up to about this much per unit
    noise = 1024 * np.finfo(np.float64).eps * y_max ** 2
    frame = (x, sums, np.empty(n, dtype=bool), cfg, min_leaf, noise)
    return _grow_node(frame, np.arange(n), box, 1)


# --- pruning ---

def _pruned(node: TreeNode, price: float, n_train: int):
    """One bottom-up pass over the subtree at ``node``.

    Returns the score sum and leaf count of the subtree as given, then
    the subtree with every node collapsed whose own price on the subtree
    as given is <= ``price``, with that result's score sum, leaf count
    and weakest price. The score sum adds n * tau^2 over the leaves; a
    node's own price is the score per training unit that collapsing it
    into a leaf gives up, per leaf removed; the weakest price is the
    smallest own price in the subtree, infinite at a leaf. A node is
    priced on its children as given, not as collapsed: at tied prices
    the two can differ in the last bit.
    """
    own = node.n * node.tau * node.tau
    if node.is_leaf:
        return own, 1, node, own, 1, math.inf
    l_score, l_leaves, left, l_kept, l_kept_leaves, l_weakest = \
        _pruned(node.left, price, n_train)
    r_score, r_leaves, right, r_kept, r_kept_leaves, r_weakest = \
        _pruned(node.right, price, n_train)
    score, leaves = l_score + r_score, l_leaves + r_leaves
    if (score - own) / n_train / (leaves - 1) <= price:
        leaf = replace(node, feature=None, threshold=None, left=None, right=None)
        return score, leaves, leaf, own, 1, math.inf
    kept, kept_leaves = l_kept + r_kept, l_kept_leaves + r_kept_leaves
    kept_price = (kept - own) / n_train / (kept_leaves - 1)
    if left is not node.left or right is not node.right:
        node = replace(node, left=left, right=right)
    return score, leaves, node, kept, kept_leaves, min(kept_price, l_weakest, r_weakest)


def _path_elements(root: TreeNode, n_train: int) -> Iterator[PathElement]:
    """Yield the elements of ``prune_path``, each as soon as it is known."""
    if n_train < 1:
        raise InputError("n_train must be positive")
    current, weakest, price = root, -math.inf, 0.0
    while price < math.inf:
        # collapsing can expose ancestors at the same price; sweep until clear
        while weakest <= price:
            _, _, current, _, _, weakest = _pruned(current, price, n_train)
        yield PathElement(float(price), current)
        price = weakest


def prune_path(root: TreeNode, n_train: int) -> PruningPath:
    """Weakest-link cost-complexity path.

    Element zero, at threshold 0, is the tree with every node collapsed
    that gives up no score: the full tree, unless a split was grown on
    rounding noise. Each later element records the smallest alpha at
    which its subtree becomes optimal. Thresholds increase strictly and
    leaf counts decrease strictly down to the bare root.
    """
    return PruningPath(tuple(_path_elements(root, n_train)))


# --- alpha selection on a holdout sample ---

def _leaf_rows(root: TreeNode, x: np.ndarray):
    """Yield (leaf, row indices) for every leaf of the tree in id order:
    breadth first, each level left to right. A row of ``x`` goes left
    when its value of the split feature is <= the threshold."""
    queue = deque([(root, np.arange(x.shape[0]))])
    while queue:
        node, rows = queue.popleft()
        if node.is_leaf:
            yield node, rows
            continue
        goes_left = x[rows, node.feature] <= node.threshold
        queue.append((node.left, rows[goes_left]))
        queue.append((node.right, rows[~goes_left]))


def holdout_loss(root: TreeNode, validation: Dataset, e: np.ndarray,
                 regime: RegimeKind) -> float:
    """Negative mean squared gap between leaf effects and the transformed
    outcomes of ``regime``'s indicator, weighted by ``e`` (one per unit;
    ``transformed_outcome`` checks its length and range)."""
    n = validation.n_units
    d = regime.indicator(validation.w, validation.z)
    y_star = transformed_outcome(validation.y, d, e)
    tau = np.empty(n)
    for leaf, rows in _leaf_rows(root, validation.covariates):
        tau[rows] = leaf.tau
    if not np.isfinite(tau).all():
        raise EstimationError("a validation unit reached a leaf without an effect")
    return float(-np.mean((y_star - tau) ** 2))


def select_alpha(path: PruningPath, validation: Dataset, e: np.ndarray,
                 regime: RegimeKind) -> tuple[float, TreeNode]:
    """Pick the subtree with the best holdout loss; return (alpha, subtree).

    ``e`` and ``regime`` are as for ``holdout_loss``. Ties go to the
    smaller subtree. The returned alpha is the geometric midpoint of the
    threshold interval over which the chosen subtree is optimal (its own
    threshold when the interval is unbounded or starts at zero).
    """
    best_k = 0
    best_q = -math.inf
    for k, element in enumerate(path.elements):
        q = holdout_loss(element.root, validation, e, regime)
        if q >= best_q:                 # later elements have fewer leaves
            best_q = q
            best_k = k
    alpha = t_k = path.elements[best_k].alpha_threshold
    if best_k < len(path.elements) - 1 and t_k > 0.0:
        # thresholds scale with y^2: their product may leave the normal range
        t_next = path.elements[best_k + 1].alpha_threshold
        product = t_k * t_next
        alpha = (math.sqrt(product) if sys.float_info.min <= product < math.inf
                 else math.sqrt(t_k) * math.sqrt(t_next))
    return float(alpha), path.elements[best_k].root


def prune_at_alpha(root: TreeNode, alpha: float, n_train: int) -> TreeNode:
    """Subtree the cost-complexity path selects at a fixed alpha: the last
    path element whose threshold is <= alpha (NaN is rejected). The path
    is built only that far."""
    if not alpha >= 0:
        raise InputError("alpha must be nonnegative")
    for element in _path_elements(root, n_train):
        if element.alpha_threshold > alpha:
            break
        chosen = element.root           # element zero's threshold is 0
    return chosen


# --- the fitted artifact ---

@dataclass(frozen=True)
class CausalTree:
    """A finished tree plus everything needed to reuse or audit it."""

    root: TreeNode
    estimates: tuple[LeafEstimate, ...]     # one per leaf, sorted by leaf_id
    feature_names: tuple[str, ...]
    regime_kind: RegimeKind
    alpha: float
    p_hat: float | None
    propensity: PropensityModel | None
    adjust_covariates: bool
    n_input: int
    n_trimmed: int
    n_train: int
    n_validation: int
    n_omega: int
    seed: int
    max_depth: int
    min_leaf_fraction: float
    min_arm_count: int
    overall_cace: float = float("nan")

    def assign_leaves(self, covariates: np.ndarray) -> np.ndarray:
        """Leaf node_id for every row of a covariate matrix."""
        x = np.asarray(covariates, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != len(self.feature_names):
            raise InputError(
                f"expected (N, {len(self.feature_names)}) covariates, got {x.shape}")
        out = np.empty(x.shape[0], dtype=np.int64)
        for leaf, rows in _leaf_rows(self.root, x):
            out[rows] = leaf.node_id
        return out

    def split_features(self) -> list[int]:
        """The positions in ``feature_names`` that some split tests, in
        ascending order: the only columns ``assign_leaves`` reads."""
        return sorted({node.feature for node in _preorder(self.root) if not node.is_leaf})

    @property
    def leaf_map(self) -> dict[int, LeafEstimate]:
        return {est.leaf_id: est for est in self.estimates}


# pooled rows above which fit_ctiv grows the holdout tree in a forked
# worker beside the pooled one. Timed on design-2 fits, one process
# against two on a 2-CPU host (medians of 11, alternating): two win from
# about 10,000 rows at depth 4 and 15,000 at depth 2 (20,000: 213 ms
# against 184, and 121 against 109); below that the worker's 30-40 ms
# start costs more than it saves
_OVERLAP_ROWS = 20_000


def fit_ctiv(ds: Dataset, cfg: GrowthConfig, split: np.ndarray,
             seed: int) -> CausalTree:
    """Full fitting pipeline.

    1. estimate assignment probabilities on every input unit;
    2. trim to probabilities inside [cfg.trim_lo, cfg.trim_hi];
    3. grow the maximal tree on the training rows;
    4. build its cost-complexity path;
    5. price complexity on the validation rows (unless overridden);
    6. re-grow on train+validation and prune at the chosen alpha;
    7. estimate each leaf's effects on train+validation.

    Step 6's growth does not need alpha. Above ``_OVERLAP_ROWS`` pooled
    rows, steps 3-5 run in a forked worker where ``parallel.fan_out``
    starts one, while this process grows step 6's tree. Only alpha comes
    back, and a float pickles exactly, so the tree is the same at any CPU
    count; an error in steps 3-5 wins over one from step 6's growth, as
    when they run first.

    ``split`` is the training mask ``holdout_split`` returns: a boolean
    array over the units of ``ds``, True for train; every other unit
    validates. The pooled sample is the trimmed rows. Rows are copied only
    where a step drops some: trimming copies the kept rows, and the
    holdout's training and validation rows are copied from the pooled
    sample. A fit that trims nothing grows its pooled tree on ``ds``
    itself (see ``Dataset.subset``).
    """
    in_train = np.asarray(split)
    if in_train.dtype != bool or in_train.shape != (ds.n_units,):
        raise InputError(f"split must be a boolean training mask of shape "
                         f"({ds.n_units},), got {in_train.dtype} {in_train.shape}")

    model: PropensityModel | None = None
    p_hat: float | None = None
    if cfg.regime is not RegimeKind.IV_RANDOMIZED:
        model = fit_logistic(ds.covariates, cfg.regime.indicator(ds.w, ds.z),
                             ridge_lambda=cfg.ridge_lambda)
        e_all = model.predict_many(ds.covariates)
    else:
        p_hat = estimate_constant_p(ds.z)
        if not 0.0 < p_hat < 1.0:       # one arm only: no weight is defined
            raise ValidationError(f"p_hat must lie in (0, 1), got {p_hat}")
        e_all = np.full(ds.n_units, p_hat)

    omega_ds, kept = trim_by_propensity(ds, e_all, cfg.trim_lo, cfg.trim_hi)
    n_trimmed = ds.n_units - kept.size
    # the holdout parts' positions among the pooled rows
    is_train = in_train[kept]
    train_pos, val_pos = np.flatnonzero(is_train), np.flatnonzero(~is_train)
    if train_pos.size == 0:
        raise ValidationError("no training units survive trimming")
    if cfg.alpha_override is None and val_pos.size == 0:
        raise ValidationError("no validation units survive trimming")
    e_omega = e_all[kept]
    # the grows read none of these: free the n-length indices and probabilities
    del in_train, is_train, kept, e_all
    # checked here for the validation rows too, whose holdout losses no grow bounds
    _outcome_scale(omega_ds.y, e_omega)

    def holdout_alpha(_) -> float:
        train_ds = omega_ds.subset(train_pos)
        path = prune_path(grow(train_ds, e_omega[train_pos], cfg), train_ds.n_units)
        return select_alpha(path, omega_ds.subset(val_pos), e_omega[val_pos],
                            cfg.regime)[0]

    # steps 3-5 run when their result is read, here or in a worker; read in
    # finally, their error wins over the pooled grow's, as if they ran first
    workers = 2 if omega_ds.n_units > _OVERLAP_ROWS else 1
    tasks = [None] if cfg.alpha_override is None else []
    with fan_out(holdout_alpha, tasks, workers) as alphas:
        try:
            full = grow(omega_ds, e_omega, cfg)
        finally:
            alpha = next(alphas, cfg.alpha_override)
    final = prune_at_alpha(full, alpha, omega_ds.n_units)

    x = omega_ds.covariates
    adjust = cfg.regime is RegimeKind.IV_UNCONFOUNDED
    estimates = tuple(                  # in leaf id order, as _leaf_rows yields
        estimate_leaf(leaf.node_id, omega_ds.y[rows], omega_ds.z[rows],
                      omega_ds.w[rows], cfg.regime, e_omega[rows],
                      x[rows] if adjust else None)
        for leaf, rows in _leaf_rows(final, x))
    try:
        overall = overall_cace(estimates)
    except EstimationError:             # nothing to aggregate
        overall = float("nan")
    return CausalTree(
        root=final,
        estimates=estimates,
        feature_names=ds.feature_names,
        regime_kind=cfg.regime,
        alpha=float(alpha),
        p_hat=p_hat,
        propensity=model,
        adjust_covariates=adjust,
        n_input=ds.n_units,
        n_trimmed=n_trimmed,
        n_train=int(train_pos.size),
        n_validation=int(val_pos.size),
        n_omega=omega_ds.n_units,
        seed=int(seed),
        max_depth=cfg.max_depth,
        min_leaf_fraction=cfg.min_leaf_fraction,
        min_arm_count=cfg.min_arm_count,
        overall_cace=overall,
    )


# --- serialisation ---

def _node_to_dict(node: TreeNode, estimates: dict[int, LeafEstimate]) -> dict:
    out: dict = {
        "node_id": node.node_id,
        "n": node.n,
        "n1": node.n1,
        "n0": node.n0,
        "tau": node.tau,
    }
    if node.is_leaf:
        out["estimate"] = asdict(estimates[node.node_id])
    else:
        out["feature"] = node.feature
        out["threshold"] = node.threshold
        out["left"] = _node_to_dict(node.left, estimates)
        out["right"] = _node_to_dict(node.right, estimates)
    return out


_BRANCH_KEYS = ("feature", "threshold", "left", "right")

# JSON value types by field annotation: (Python types, name in errors);
# NaN is a float, so a failed estimate's NaN fields load
_JSON_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
               "float | None": ((int, float, type(None)), "a number or null"),
               "bool": (bool, "true or false")}
_NODE_TYPES = {"node_id": "int", "n": "int", "n1": "int", "n0": "int", "tau": "float"}
_ESTIMATE_TYPES = {f.name: f.type for f in fields(LeafEstimate)}
# the propensity record's coefficients are checked one number per feature
_PROPENSITY_TYPES = {f.name: f.type for f in fields(PropensityModel)
                     if f.name != "coefficients"}


def _typed(record: dict, types: dict[str, str], where: str) -> dict:
    """The ``types`` keys of ``record``, once each value has the JSON type
    its annotation names; a bool is never an integer or a number, and an
    integer read as a number must lie in the float range."""
    for key, annotation in types.items():
        kind, name = _JSON_TYPES[annotation]
        value = record[key]
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise ValidationError(f"{where}: {key} {value!r} is not {name}")
        if kind is not int and isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ValidationError(f"{where}: {key} is an integer beyond the float range")
    return {key: record[key] for key in types}


def _node_from_dict(data: dict, n_features: int, estimates: list[LeafEstimate],
                    node_id: int = 1) -> TreeNode:
    """Rebuild the subtree whose root must carry full-binary id ``node_id``,
    appending its leaves' estimates to ``estimates``."""
    if not isinstance(data, dict):
        raise ValidationError(f"tree node is a {type(data).__name__}, not an object")
    if node_id >= 2 ** (MAX_DEPTH + 1):
        raise ValidationError(f"node {node_id} lies deeper than {MAX_DEPTH} levels")
    counts = _typed(data, _NODE_TYPES, f"node {node_id}")
    if counts["node_id"] != node_id:
        raise ValidationError(
            f"node {counts['node_id']!r} should have id {node_id}: the root is 1 "
            f"and the children of k are 2k and 2k+1")
    branch = [key in data for key in _BRANCH_KEYS]
    if all(branch) and "estimate" not in data:
        feature = data["feature"]
        if (not isinstance(feature, int) or isinstance(feature, bool)
                or not 0 <= feature < n_features):
            raise ValidationError(
                f"node {node_id}: feature index {feature!r} is not one "
                f"of the {n_features} features")
        return TreeNode(
            **counts, **_typed(data, {"threshold": "float"}, f"node {node_id}"),
            feature=feature,
            left=_node_from_dict(data["left"], n_features, estimates, 2 * node_id),
            right=_node_from_dict(data["right"], n_features, estimates, 2 * node_id + 1))
    if any(branch) or "estimate" not in data:
        raise ValidationError(
            f"node {node_id} is neither a leaf (an estimate only) "
            f"nor an internal node ({', '.join(_BRANCH_KEYS)}, no estimate)")
    if not isinstance(data["estimate"], dict):
        raise ValidationError(f"leaf {node_id}: estimate {data['estimate']!r} "
                              f"is not an object")
    est = LeafEstimate(**data["estimate"])
    _typed(vars(est), _ESTIMATE_TYPES, f"leaf {node_id}")
    if est.leaf_id != node_id:
        raise ValidationError(
            f"leaf {node_id} holds the estimate of leaf {est.leaf_id!r}")
    estimates.append(est)
    return TreeNode(**counts)


# CausalTree fields that tree.json's "meta" holds under the same name, as is
_META_FIELDS = ("alpha", "p_hat", "adjust_covariates", "n_input", "n_trimmed",
                "n_train", "n_validation", "n_omega", "seed", "max_depth",
                "min_leaf_fraction", "min_arm_count", "overall_cace")
_META_TYPES = {f.name: f.type for f in fields(CausalTree) if f.name in _META_FIELDS}


def export_json(tree: CausalTree) -> str:
    """Canonical JSON for a fitted tree; stable byte for byte."""
    prop = None
    if tree.propensity is not None:
        prop = asdict(tree.propensity)
        prop["coefficients"] = [float(c) for c in tree.propensity.coefficients]
    payload = {
        "format": "ctiv-tree",
        "version": 1,
        "meta": {
            "feature_names": list(tree.feature_names),
            "regime": tree.regime_kind.value,
            "propensity": prop,
            **{name: getattr(tree, name) for name in _META_FIELDS},
        },
        "tree": _node_to_dict(tree.root, tree.leaf_map),
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def load_json(text: str) -> CausalTree:
    """Rebuild a fitted tree from its JSON export."""
    try:
        payload = json.loads(text)
        if not isinstance(payload, dict) or payload.get("format") != "ctiv-tree":
            raise ValidationError("not a serialised tree (missing format marker)")
        version = payload.get("version")
        _typed({"version": version}, {"version": "int"}, "tree")
        if version != 1:
            raise ValidationError(f"unsupported tree version {version!r}; expected 1")
        return _tree_from_payload(payload)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from None
    except KeyError as exc:
        raise ValidationError(f"serialised tree lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed serialised tree: {exc}") from None
    except RecursionError:
        raise ValidationError("JSON nested too deeply to load") from None


def _tree_from_payload(payload: dict) -> CausalTree:
    meta = payload["meta"]
    names = meta["feature_names"]
    if (not isinstance(names, list) or not all(isinstance(name, str) for name in names)
            or len(set(names)) != len(names)):
        raise ValidationError("feature_names must be a list of distinct strings")
    names = tuple(names)
    prop = None
    if meta["propensity"] is not None:
        p = meta["propensity"]
        _typed(p, _PROPENSITY_TYPES, "propensity")
        coefs = p["coefficients"]
        if not isinstance(coefs, list) or len(coefs) != len(names):
            raise ValidationError(
                f"propensity: coefficients must be a list of {len(names)} numbers")
        _typed(dict(zip(names, coefs)), dict.fromkeys(names, "float"),
               "propensity coefficients")
        coefs = np.asarray(coefs, dtype=np.float64)
        coefs.setflags(write=False)
        prop = PropensityModel(**{**p, "coefficients": coefs})
    estimates: list[LeafEstimate] = []
    root = _node_from_dict(payload["tree"], len(names), estimates)
    return CausalTree(
        root=root,
        estimates=tuple(sorted(estimates, key=lambda est: est.leaf_id)),
        feature_names=names,
        regime_kind=RegimeKind(meta["regime"]),
        propensity=prop,
        **_typed(meta, _META_TYPES, "meta"),
    )


def export_dot(tree: CausalTree) -> str:
    """Graphviz rendering: effect and unit share per node, split var below."""
    lines = [
        "digraph causal_tree {",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for node in _preorder(tree.root):
        share = 100.0 * node.n / tree.n_omega
        label = f"ITT = {node.tau:.3f}\\n{share:.1f}%"
        if not node.is_leaf:
            # a quoted DOT label ends at a bare '"' and escapes with '\\'
            name = tree.feature_names[node.feature]
            name = name.replace("\\", "\\\\").replace('"', '\\"')
            label += f"\\n{name} <= {node.threshold:.4g}"
        lines.append(f'  {node.node_id} [label="{label}"];')
        if not node.is_leaf:
            lines.append(f"  {node.node_id} -> {node.left.node_id};")
            lines.append(f"  {node.node_id} -> {node.right.node_id};")
    lines.append("}")
    return "\n".join(lines) + "\n"
