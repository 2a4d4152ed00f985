"""Epps-Pulley normality statistic.

T is n times the squared L2 distance, weighted by a centred Gaussian
density with standard deviation beta, between the empirical
characteristic function of the scaled residuals and the characteristic
function of the standard normal law.  It is evaluated through a closed
form whose only expensive part is the pair sum
sum_{j,k} exp(-gamma (Y_j - Y_k)^2).  The backend computes it as a fast
Gauss transform in O(n) time and bounded memory, exact up to roundoff
(at most 7.6e-18 truncation error per pair).

The closed form cancels O(n) terms to an O(1) value, so the relative
rounding error of the pair sum comes back multiplied by n: a 1e-15
relative error in the pair sum leaves about 1e-8 absolute error in T at
n = 1e7.

Standardization uses the maximum-likelihood variance (divisor n, not
n-1).  Statistics libraries usually default to n-1; results computed
with that convention will not match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import backend

__all__ = [
    "DegenerateSampleError",
    "Sample",
    "TuningParam",
    "epps_pulley_statistic",
    "scaled_residuals",
]


class DegenerateSampleError(ValueError):
    """Sample cannot be standardized: fewer than two values, or zero spread."""


@dataclass(frozen=True)
class TuningParam:
    """Weight parameter beta > 0 with the derived exponents used by the
    closed form: gamma = beta^2/2 for the pairwise term and
    delta = beta^2/(2(1+beta^2)) for the single-sum term."""

    beta: float
    gamma: float = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        beta = float(self.beta)
        if not (math.isfinite(beta) and beta > 0.0):
            raise ValueError(f"beta must be a positive real, got {self.beta!r}")
        beta2 = beta * beta
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", 0.5 * beta2)
        # once beta^2 overflows (beta above about 1e154) delta is its limit 1/2
        object.__setattr__(self, "delta", 0.5 * beta2 / (1.0 + beta2) if beta2 < math.inf else 0.5)


@dataclass(frozen=True, eq=False)
class Sample:
    """Ordered collection of observations with positive ML variance."""

    values: np.ndarray
    mean: float = field(init=False)
    variance_ml: float = field(init=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, copy=True)
        if v.ndim != 1:
            raise ValueError("sample must be one-dimensional")
        if v.size < 2:
            raise DegenerateSampleError("degenerate sample: need at least two observations")
        if not np.all(np.isfinite(v)):
            raise ValueError("sample contains non-finite values")
        mean = float(np.mean(v))
        variance_ml = float(np.var(v))
        if not variance_ml > 0.0:
            raise DegenerateSampleError("degenerate sample: zero variance")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance_ml", variance_ml)

    @property
    def n(self) -> int:
        return int(self.values.size)


def scaled_residuals(sample: Sample) -> np.ndarray:
    """Standardize by the sample mean and ML standard deviation."""
    return (sample.values - sample.mean) / math.sqrt(sample.variance_ml)


def epps_pulley_statistic(sample: Sample, tp: TuningParam) -> float:
    """Closed form of the weighted L2 distance statistic.

    With Y the scaled residuals, gamma and delta from the tuning
    parameter and b = beta^2:

        T = (1/n) sum_{j,k} exp(-gamma (Y_j - Y_k)^2)
            - 2 (1+b)^(-1/2) sum_j exp(-delta Y_j^2)
            + n (1+2b)^(-1/2)

    Beyond the pair sum's box grid, ValueError names beta and the largest
    beta the sample allows, sqrt(2) * backend.MAX_SPREAD / (max Y - min Y).
    """
    y = scaled_residuals(sample)
    n = y.size
    beta2 = tp.beta * tp.beta
    try:
        pair = backend.pairwise_gauss_sum(y, tp.gamma)
    except ValueError as exc:
        largest = math.sqrt(2.0) * backend.MAX_SPREAD / (float(np.max(y)) - float(np.min(y)))
        raise ValueError(f"beta={tp.beta:g} is beyond the pair sum's box grid: this sample "
                         f"allows beta up to {largest:.4g}") from exc
    single = float(np.sum(np.exp(-tp.delta * np.square(y))))
    value = pair / n - 2.0 / math.sqrt(1.0 + beta2) * single + n / math.sqrt(1.0 + 2.0 * beta2)
    if value < 0.0:
        # the statistic is a squared distance; anything beyond tiny
        # cancellation noise means a broken pair sum
        if value < -1e-9 * n:
            raise ArithmeticError(f"statistic evaluated to {value}, expected >= 0")
        value = 0.0
    return value
