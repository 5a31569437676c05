"""Outcome transformation and inverse-probability leaf effects.

The transformed outcome y * (d - e) / ((1 - e) * e) has expectation
equal to the effect of the binary indicator d on y once d is
unconfounded given the probability e = P(d=1 | x). The same weights
give the within-leaf effect estimate used by the trees: a ratio of
weighted arm means. Which indicator plays d is what distinguishes a
plain causal tree (receipt w) from its instrumented variant
(assignment z); a ``RegimeKind`` names it, and ``e`` travels beside the
data as one probability per unit (a constant share repeated under the
randomized regime).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import EstimationError, InputError, require_binary, require_probabilities


class RegimeKind(str, Enum):
    """How units were pushed into treatment, and what the tree splits on.

    The probabilities ``e`` of the regime's indicator are not part of it;
    fitting estimates them once and hands them on as a vector aligned
    with the units (see ``tree.grow``).
    """

    CT = "ct"                            # split on receipt w, weight by P(w=1|x)
    IV_RANDOMIZED = "iv-randomized"      # split on assignment z, constant P(z=1)
    IV_UNCONFOUNDED = "iv-unconfounded"  # split on assignment z, weight by P(z=1|x)

    def indicator(self, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The indicator this regime splits and weights on: receipt ``w``
        for a plain causal tree, assignment ``z`` otherwise."""
        return w if self is RegimeKind.CT else z


def transformed_outcome(y: np.ndarray, d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """y * (d - e) / ((1 - e) * e), unit by unit: y/e where d=1, -y/(1-e)
    where d=0.

    ``y``, ``d`` and ``e`` are aligned 1-D arrays, one entry per unit, and
    e must lie strictly inside (0, 1).
    """
    y = np.asarray(y, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    e = require_probabilities(e, "e")
    if y.ndim != 1 or d.shape != y.shape or e.shape != y.shape:
        raise InputError("y, d and e must be aligned")
    require_binary(d, "d")
    return y * (d - e) / ((1.0 - e) * e)


def leaf_weighted_itt(y: np.ndarray, d: np.ndarray, e: np.ndarray) -> float:
    """Inverse-probability weighted arm contrast within one leaf.

    (sum y*d/e / sum d/e) - (sum y*(1-d)/(1-e) / sum (1-d)/(1-e)).
    ``y``, ``d`` and ``e`` are aligned 1-D arrays, one entry per unit;
    where e is one share repeated, this reduces exactly to the difference
    of raw arm means. Both arms must be nonempty.
    """
    y = np.asarray(y, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if y.ndim != 1 or d.shape != y.shape or e.shape != y.shape:
        raise InputError("y, d and e must be aligned")
    require_binary(d, "d")
    require_probabilities(e, "e")
    assigned = d == 1.0
    if not assigned.any() or assigned.all():
        raise EstimationError("leaf needs at least one unit in each arm")
    wt = d / e
    wc = (1.0 - d) / (1.0 - e)
    treated_mean = float((wt * y).sum() / wt.sum())
    control_mean = float((wc * y).sum() / wc.sum())
    return treated_mean - control_mean
