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

The threshold's calibration needs the standard-normal quantile and
density. The quantile is ``ndtri`` below, a port of Cephes ``ndtri``,
the algorithm and coefficients behind ``scipy.special.ndtri``, in plain
Python floats; the density is scipy's own ``norm.pdf`` expression. So
the coefficients keep the bits of ``scipy.stats.norm`` without any
scipy import: ``ctiv`` needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import CalibrationError, InputError

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
    0.5.
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


# Cephes ndtri's rational approximations: P0/Q0 for the centre, P1/Q1 and
# P2/Q2 for the tails at sqrt(-2 log y) below and above 8. Each Q's
# leading coefficient, 1, is left out, as in Cephes
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189      # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _polevl(x: float, coefs: tuple, monic: bool = False) -> float:
    # Horner's rule as Cephes polevl, or p1evl when monic
    ans = x + coefs[0] if monic else coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def ndtri(y: float) -> float:
    """Standard-normal quantile, bit for bit as Cephes ``ndtri``."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    lower = y <= 1.0 - _EXP_M2
    if not lower:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0, monic=True))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _polevl(z, p) / _polevl(z, q, monic=True)
    return -x if lower else x


def latent_receipt_coefficients(cor_wz: float, cor_weta: float) -> tuple[float, float, float, float]:
    """Closed-form (a, b, c, t) for the receipt threshold model.

    Chooses P(W=1)=1/2 and unit latent-noise variance. With q the
    standard normal quantile of 1/2 + cor_wz/2: t = q, a = 2q, and the
    confounder loading b = cor_weta / (2 * phi(q)) with c mopping up the
    rest of the variance. Infeasible targets (b >= 1) raise.

    ``norm.ppf`` is ``ndtri(p) * 1.0 + 0.0`` and ``norm.pdf`` is
    ``np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)`` divided by 1.0, so
    computing them here, with Cephes ``ndtri`` ported in this module,
    gives the same bits. ``norm`` squares an array, which numpy does as
    ``x * x``; ``**`` on a scalar calls the C library's ``pow``, which
    can miss the last bit, so the square is written out. A target so
    near 1 that the quantile is infinite is infeasible too.
    """
    q = ndtri(0.5 + cor_wz / 2.0)
    phi = float(np.exp(-(q * q) / 2.0) / np.sqrt(2 * np.pi))
    if not (math.isfinite(q) and phi > 0.0):
        raise CalibrationError(
            f"target Cor(W,Z)={cor_wz} is too close to 1 to calibrate")
    b = cor_weta / (2.0 * phi)
    if not (0.0 < b < 1.0):
        raise CalibrationError(
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
            raise CalibrationError(
                f"realized Cor(W,Z)={cor_wz:.4f} misses target "
                f"{spec.target_cor_wz} by more than {CORRELATION_TOLERANCE}")
        if abs(cor_weta - spec.target_cor_weta) > CORRELATION_TOLERANCE:
            raise CalibrationError(
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
