"""Synthetic benchmark designs with a confounded receipt and a clean instrument.

Every design draws independent covariates X_k ~ Normal(0, variance 0.1),
a randomised assignment Z ~ Bernoulli(1/2), a latent confounder
eta ~ Normal(0, 1) and idiosyncratic noise. Outcomes follow

    Y = 1 + f(X) + W + W * g(X) + eta + noise

so the unit-level effect of receipt is exactly 1 + g(X). Receipt W is a
thresholded latent index of Z, eta and fresh noise,

    W = 1{ a*Z + b*eta + c*U > t },    U ~ Normal(0, 1),

with (a, b, c, t) solved in closed form so that Cor(W, Z) and
Cor(W, eta) land on their targets (0.65 and 0.50 unless overridden).
Because eta also enters Y, receipt is confounded and a receipt-split
tree is biased, while assignment stays clean.

Design menu (g is the effect modifier, K the covariate count):

    1  K=1   g = X1              normal noise
    2  K=10  g = X9 + X10        normal noise
    3  K=10  g = X9 + X10        centred exponential(rate 10) noise
    4  K=10  g = X9 + X10        centred uniform(0,1) noise
    5  K=10  g = X9 * X10        normal noise

Robustness scenarios reuse design 2: scenario 1 weakens the instrument
(Cor(W, Z) target 0.5); scenario 2 adds a direct assignment effect
1{X10 >= 0} * Z to the outcome, violating exclusion while leaving the
true receipt effect untouched.

The threshold's calibration takes the standard-normal quantile and
density from the standard library's ``statistics.NormalDist``, so
``ctiv`` needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import InputError

COVARIATE_VARIANCE = 0.1
DEFAULT_COR_WZ = 0.65
DEFAULT_COR_WETA = 0.50
CORRELATION_TOLERANCE = 0.05
# sample correlations only concentrate enough for the tolerance check here
CALIBRATION_CHECK_MIN_N = 5000
DIRECT_EFFECT_COEF = 1.0


_ERROR_BY_DESIGN = {1: "normal", 2: "normal", 3: "exponential",
                    4: "uniform", 5: "normal"}
DESIGN_IDS = tuple(_ERROR_BY_DESIGN)
SCENARIOS = (1, 2)                   # each a twist on design 2


@dataclass(frozen=True)
class DesignSpec:
    """One fully specified generation task; ``design_id`` fixes the
    covariate count ``k`` and the noise family ``error_dist``.

    A correlation target left at None takes its default: Cor(W,Z) 0.5
    under scenario 1 (the weak instrument) and 0.65 otherwise, Cor(W,eta)
    0.5. ``n`` is at least 10, and small enough for numpy to shape the
    (n, k) float64 covariate draw.
    """

    design_id: int
    n: int
    seed: int
    target_cor_wz: float | None = None
    target_cor_weta: float | None = None
    scenario: int | None = None        # 1 = weak instrument, 2 = exclusion break

    def __post_init__(self):
        if self.target_cor_wz is None:
            object.__setattr__(self, "target_cor_wz",
                               0.5 if self.scenario == 1 else DEFAULT_COR_WZ)
        if self.target_cor_weta is None:
            object.__setattr__(self, "target_cor_weta", DEFAULT_COR_WETA)
        if self.design_id not in DESIGN_IDS:
            raise InputError(f"design_id must be one of {DESIGN_IDS}, got {self.design_id}")
        if self.scenario not in (None, *SCENARIOS):
            raise InputError(f"scenario must be one of {SCENARIOS}, got {self.scenario}")
        if self.n < 10:
            raise InputError("n must be at least 10")
        if self.n * self.k * 8 > np.iinfo(np.intp).max:
            raise InputError(f"n={self.n} is too large: numpy cannot shape "
                             f"an ({self.n}, {self.k}) float64 array")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed}")
        for name, value in (("target_cor_wz", self.target_cor_wz),
                            ("target_cor_weta", self.target_cor_weta)):
            if not (0.0 < value < 1.0):
                raise InputError(f"{name} must lie in (0, 1)")

    @property
    def k(self) -> int:
        return 1 if self.design_id == 1 else 10

    @property
    def error_dist(self) -> str:
        return _ERROR_BY_DESIGN[self.design_id]


@dataclass(frozen=True)
class SyntheticSample:
    """Generated data plus the generator's own ground truth."""

    dataset: Dataset
    true_cate: np.ndarray
    realized_cor_wz: float
    realized_cor_weta: float
    y_if_treated: np.ndarray
    y_if_untreated: np.ndarray


design_spec = DesignSpec            # its lower-case name, same arguments


def latent_receipt_coefficients(cor_wz: float, cor_weta: float) -> tuple[float, float, float, float]:
    """Closed-form (a, b, c, t) for the receipt threshold model.

    Chooses P(W=1)=1/2 and unit latent-noise variance. With q the
    standard normal quantile of 1/2 + cor_wz/2: t = q, a = 2q, and the
    confounder loading b = cor_weta / (2 * phi(q)) with c mopping up the
    rest of the variance. Infeasible targets (b >= 1) raise, as does a
    target so near 1 that 1/2 + cor_wz/2 rounds to 1.

    The quantile and density are the standard library's
    ``statistics.NormalDist``, whose quantile is Wichura's AS241. The
    coefficients reach the data only through ``generate``'s ``> t``
    comparison, so they need not keep any other library's last bits.
    """
    from statistics import NormalDist  # here: ~5 ms to import, and ctiv.cli starts on numpy alone

    p = 0.5 + cor_wz / 2.0
    if not 0.0 < p < 1.0:                      # also a nan target
        raise InputError(
            f"target Cor(W,Z)={cor_wz} is too close to 1 to calibrate")
    normal = NormalDist()
    q = normal.inv_cdf(p)
    b = cor_weta / (2.0 * normal.pdf(q))
    if not (0.0 < b < 1.0):
        raise InputError(
            f"targets Cor(W,Z)={cor_wz}, Cor(W,eta)={cor_weta} are infeasible")
    c = math.sqrt(1.0 - b * b)
    return 2.0 * q, b, c, q


def _modifier(design_id: int, x: np.ndarray) -> np.ndarray:
    if design_id == 1:
        return x[:, 0]
    if design_id == 5:
        return x[:, 8] * x[:, 9]
    return x[:, 8] + x[:, 9]


def _baseline(design_id: int, x: np.ndarray) -> np.ndarray:
    return x[:, 0] if design_id == 1 else x.sum(axis=1)


def _noise(rng: np.random.Generator, dist: str, n: int) -> np.ndarray:
    # every noise family is centred so designs differ only in shape
    if dist == "normal":
        return rng.standard_normal(n)
    if dist == "exponential":
        return rng.exponential(scale=0.1, size=n) - 0.1
    return rng.random(n) - 0.5


def generate(spec: DesignSpec) -> SyntheticSample:
    """Draw one sample. Draw order is fixed so scenarios stay paired.

    Identical (n, seed) produce identical X, Z, eta, U and noise across
    designs with the same covariate count, which keeps scenario 2
    comparable with plain design 2 row by row.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    x = rng.normal(0.0, math.sqrt(COVARIATE_VARIANCE), size=(n, spec.k))
    z = (rng.random(n) < 0.5).astype(np.int8)
    eta = rng.standard_normal(n)
    u = rng.standard_normal(n)
    eps = _noise(rng, spec.error_dist, n)

    a, b, c, t = latent_receipt_coefficients(spec.target_cor_wz,
                                             spec.target_cor_weta)
    w = (a * z + b * eta + c * u > t).astype(np.int8)

    base = 1.0 + _baseline(spec.design_id, x) + eta + eps
    if spec.scenario == 2:
        base = base + DIRECT_EFFECT_COEF * z * (x[:, 9] >= 0.0)
    modifier = _modifier(spec.design_id, x)
    true_cate = 1.0 + modifier
    y0 = base
    y1 = base + true_cate
    y = np.where(w == 1, y1, y0)

    cor_wz = float(np.corrcoef(w, z)[0, 1])
    cor_weta = float(np.corrcoef(w, eta)[0, 1])
    if n >= CALIBRATION_CHECK_MIN_N:
        if abs(cor_wz - spec.target_cor_wz) > CORRELATION_TOLERANCE:
            raise InputError(
                f"realized Cor(W,Z)={cor_wz:.4f} misses target "
                f"{spec.target_cor_wz} by more than {CORRELATION_TOLERANCE}")
        if abs(cor_weta - spec.target_cor_weta) > CORRELATION_TOLERANCE:
            raise InputError(
                f"realized Cor(W,eta)={cor_weta:.4f} misses target "
                f"{spec.target_cor_weta} by more than {CORRELATION_TOLERANCE}")

    names = tuple(f"x{i + 1}" for i in range(spec.k))
    ds = Dataset(covariates=x, z=z, w=w, y=y, feature_names=names)
    true_cate = np.asarray(true_cate, dtype=np.float64)
    true_cate.setflags(write=False)
    return SyntheticSample(
        dataset=ds,
        true_cate=true_cate,
        realized_cor_wz=cor_wz,
        realized_cor_weta=cor_weta,
        y_if_treated=y1,
        y_if_untreated=y0,
    )
