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
    """Sample cannot be standardized: fewer than two values, or all equal."""


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
    """Ordered collection of at least two finite observations, not all
    equal.

    The moments are taken on values * 2^-exponent, with exponent the
    binary exponent of max |value|.  That scaling is exact, and at it
    neither the mean nor the squared deviations overflow or underflow,
    so the scaled residuals are the same at every power-of-two scale.
    mean and variance_ml (divisor n) are those moments scaled back:
    variance_ml is inf or 0 where the sample's variance is not a finite
    positive float.
    """

    values: np.ndarray
    mean: float = field(init=False)
    variance_ml: float = field(init=False)
    _scaled_moments: tuple = field(init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, copy=True)
        if v.ndim != 1:
            raise ValueError("sample must be one-dimensional")
        if v.size < 2:
            raise DegenerateSampleError("degenerate sample: need at least two observations")
        lo, hi = float(np.min(v)), float(np.max(v))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("sample contains non-finite values")
        if lo == hi:
            raise DegenerateSampleError("degenerate sample: all values are equal")
        exponent = math.frexp(max(-lo, hi))[1]
        # np.mean and np.var of the scaled values, with var's one
        # temporary as the only copy
        work = np.ldexp(v, -exponent)
        mean = np.mean(work)
        np.subtract(work, mean, out=work)
        variance = np.mean(np.square(work, out=work))
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        with np.errstate(over="ignore"):
            object.__setattr__(self, "mean", float(np.ldexp(mean, exponent)))
            object.__setattr__(self, "variance_ml", float(np.ldexp(variance, 2 * exponent)))
        object.__setattr__(self, "_scaled_moments", (exponent, float(mean), math.sqrt(variance)))

    @property
    def n(self) -> int:
        return int(self.values.size)


def scaled_residuals(sample: Sample) -> np.ndarray:
    """Standardize by the sample mean and ML standard deviation, both
    taken at the sample's power-of-two scale."""
    exponent, mean, sd = sample._scaled_moments
    y = np.ldexp(sample.values, -exponent)
    y -= mean
    y /= sd
    return y


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
