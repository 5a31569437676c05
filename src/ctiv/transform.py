"""Outcome transformation and inverse-probability leaf effects.

The transformed outcome y * (d - e) / ((1 - e) * e) has expectation
equal to the effect of the binary indicator d on y once d is
unconfounded given the probability e = P(d=1 | x). The same weights
give the within-leaf effect estimate used by the trees: a ratio of
weighted arm means. Which indicator plays d is what distinguishes a
plain causal tree (receipt w) from its instrumented variant
(assignment z).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DomainError,
    EmptyArmError,
    InputError,
    require_binary,
    require_probabilities,
)


class RegimeKind(str, Enum):
    """How units were pushed into treatment, and what the tree splits on."""

    CT = "ct"                            # split on receipt w, weight by P(w=1|x)
    IV_RANDOMIZED = "iv-randomized"      # split on assignment z, constant P(z=1)
    IV_UNCONFOUNDED = "iv-unconfounded"  # split on assignment z, weight by P(z=1|x)


@dataclass(frozen=True)
class AssignmentRegime:
    """A regime kind plus, once resolved against data, its probabilities.

    ``p_hat`` holds the constant share for the randomized regime;
    ``e_hat`` holds per-unit probabilities (aligned with some dataset)
    for the other two. Freshly constructed regimes may leave both unset;
    fitting resolves them.
    """

    kind: RegimeKind
    p_hat: float | None = None
    e_hat: np.ndarray | None = None

    def __post_init__(self):
        if self.p_hat is not None and not (0.0 < self.p_hat < 1.0):
            raise DomainError(f"p_hat must lie in (0, 1), got {self.p_hat}")
        if self.e_hat is not None:
            e = require_probabilities(self.e_hat, "e_hat")
            if e.ndim != 1:
                raise DomainError("e_hat must be a vector")
            e.setflags(write=False)
            object.__setattr__(self, "e_hat", e)

    def indicator(self, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The indicator this regime splits and weights on: receipt ``w``
        for a plain causal tree, assignment ``z`` otherwise."""
        return w if self.kind is RegimeKind.CT else z

    def unit_probabilities(self, n: int) -> np.ndarray:
        """Length-n probability vector for the units this regime was fit on."""
        if self.kind is RegimeKind.IV_RANDOMIZED:
            if self.p_hat is None:
                raise InputError("regime not resolved: p_hat unset")
            return np.full(n, self.p_hat)
        if self.e_hat is None:
            raise InputError("regime not resolved: e_hat unset")
        if self.e_hat.shape[0] != n:
            raise InputError(
                f"regime resolved for {self.e_hat.shape[0]} units, asked for {n}")
        return self.e_hat


def transformed_outcome(y, d, e):
    """y * (d - e) / ((1 - e) * e): y/e when d=1, -y/(1-e) when d=0.

    Accepts scalars or aligned arrays. e must lie strictly inside (0, 1).
    """
    y = np.asarray(y, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    e = require_probabilities(e, "e")
    require_binary(d, "d")
    out = y * (d - e) / ((1.0 - e) * e)
    return float(out) if out.ndim == 0 else out


def leaf_weighted_itt(y: np.ndarray, d: np.ndarray, e) -> float:
    """Inverse-probability weighted arm contrast within one leaf.

    (sum y*d/e / sum d/e) - (sum y*(1-d)/(1-e) / sum (1-d)/(1-e)).
    Under a constant e this reduces exactly to the difference of raw
    arm means. Both arms must be nonempty.
    """
    y = np.asarray(y, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    e = np.broadcast_to(np.asarray(e, dtype=np.float64), y.shape)
    if y.shape != d.shape:
        raise InputError("y and d must be aligned")
    require_binary(d, "d")
    require_probabilities(e, "e")
    assigned = d == 1.0
    if not assigned.any() or assigned.all():
        raise EmptyArmError("leaf needs at least one unit in each arm")
    wt = d / e
    wc = (1.0 - d) / (1.0 - e)
    treated_mean = float((wt * y).sum() / wt.sum())
    control_mean = float((wc * y).sum() / wc.sum())
    return treated_mean - control_mean
