"""Adaptive Gauss-Kronrod quadrature on truncated real lines.

Every integrand in this library carries a Gaussian factor, so integrals
over the real line are truncated to [-R, R] and refined adaptively with
a G7/K15 panel rule until the requested tolerance is met.  Integrands
must accept a float ndarray of abscissae and return an ndarray of the
same shape.

The module also provides the closed-form Gaussian smoothing identities
used as building blocks and cross-checks elsewhere, and numerically safe
versions of the standard normal density, distribution function and
log-distribution function.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "QuadratureResult",
    "config_for_beta",
    "gaussian_pair_moment",
    "integrate_1d",
    "integrate_2d",
    "log_normal_cdf",
    "normal_cdf",
    "normal_pdf",
    "smoothed_density_identity",
    "smoothed_second_moment_identity",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EPS = float(np.finfo(np.float64).eps)

# Kronrod-15 abscissae and weights (positive half), with the embedded
# Gauss-7 weights on the shared nodes.
_XGK = np.array([
    0.9914553711208126392068546975263,
    0.9491079123427585245261896840479,
    0.8648644233597690727897127886409,
    0.7415311855993944398638647732808,
    0.5860872354676911302941448382587,
    0.4058451513773971669066064120770,
    0.2077849550078984676006894037732,
    0.0,
])
_WGK = np.array([
    0.0229353220105292249637320080590,
    0.0630920926299785532907006631892,
    0.1047900103222501838398763225415,
    0.1406532597155259187451895905102,
    0.1690047266392679028265834265985,
    0.1903505780647854099132564024210,
    0.2044329400752988924141619992346,
    0.2094821410847278280129991748917,
])
_WG = np.array([
    0.1294849661688696932706114326790,
    0.2797053914892766679014677714238,
    0.3818300505051189449503697754890,
    0.4179591836734693877551020408163,
])


def _build_rule():
    nodes = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
    wk = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
    wg = np.zeros(15)
    wg[[1, 13]] = _WG[0]
    wg[[3, 11]] = _WG[1]
    wg[[5, 9]] = _WG[2]
    wg[7] = _WG[3]
    return nodes, wk, wg


_NODES, _WK15, _WG7 = _build_rule()


class QuadratureError(RuntimeError):
    """Raised when the panel subdivision budget is exhausted or the
    integrand produced non-finite values.  Carries the best estimate
    reached and its error bound when available."""

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class QuadratureResult(NamedTuple):
    value: float
    error: float
    subdivisions: int


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and truncation for the adaptive rule.

    truncation_radius is measured in standard units of the Gaussian
    factor carried by the integrand; beyond 12 such units the tail mass
    is far below every tolerance used here.
    """

    truncation_radius: float = 12.0
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not self.truncation_radius >= 8.0:
            raise ValueError("truncation_radius must be at least 8")
        if int(self.max_subdivisions) < 1:
            raise ValueError("max_subdivisions must be at least 1")


def config_for_beta(cfg: QuadratureConfig, beta: float) -> QuadratureConfig:
    """Escalate the truncation radius when the Gaussian weight decays
    slowly (small beta), leaving everything else unchanged."""
    if beta < 0.5 and cfg.truncation_radius < 20.0:
        return replace(cfg, truncation_radius=20.0)
    return cfg


def _panel(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = mid + half * _NODES
    fx = np.asarray(f(xs), dtype=np.float64)
    if fx.shape != xs.shape:
        raise ValueError("integrand must return an array matching its input shape")
    if not np.all(np.isfinite(fx)):
        raise QuadratureError(f"integrand returned non-finite values on [{a}, {b}]")
    kron = half * float(fx @ _WK15)
    gauss = half * float(fx @ _WG7)
    # |K15 - G7| is a conservative bound for the K15 error on smooth
    # integrands; the floor guards against a zero estimate from pure
    # roundoff.
    err = max(abs(kron - gauss), 10.0 * _EPS * half * float(np.abs(fx) @ _WK15))
    return kron, err


def _adaptive(f, a, b, abs_tol, rel_tol, max_subdivisions, initial=4):
    panels = []
    edges = np.linspace(a, b, initial + 1)
    total_v = 0.0
    total_e = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = _panel(f, lo, hi)
        heapq.heappush(panels, (-e, lo, hi, v, e))
        total_v += v
        total_e += e
    nsub = initial
    while total_e > max(abs_tol, rel_tol * abs(total_v)):
        if nsub >= max_subdivisions:
            raise QuadratureError(
                f"no convergence after {max_subdivisions} subdivisions "
                f"(estimate {total_v:.17g}, error bound {total_e:.3g})",
                estimate=total_v,
                error_bound=total_e,
            )
        _, lo, hi, v, e = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        v1, e1 = _panel(f, lo, mid)
        v2, e2 = _panel(f, mid, hi)
        total_v += (v1 + v2) - v
        total_e += (e1 + e2) - e
        heapq.heappush(panels, (-e1, lo, mid, v1, e1))
        heapq.heappush(panels, (-e2, mid, hi, v2, e2))
        nsub += 1
    # Re-sum in left-to-right order so the result does not depend on the
    # heap's internal layout.
    ordered = sorted(panels, key=lambda p: p[1])
    value = math.fsum(p[3] for p in ordered)
    error = math.fsum(p[4] for p in ordered)
    return QuadratureResult(value, error, nsub)


def integrate_1d(f: Callable, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Integrate f over [-R, R] adaptively.

    Returns the estimate together with a conservative error bound and
    the number of panels used.  Raises QuadratureError (carrying the
    best estimate) if the subdivision budget is exhausted.
    """
    cfg = cfg or QuadratureConfig()
    r = cfg.truncation_radius
    return _adaptive(f, -r, r, cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions)


def integrate_2d(f: Callable, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Integrate f(x, y) over [-R, R]^2 as nested adaptive 1d integrals.

    f must be vectorized in its first argument for a scalar second
    argument.  The inner integrals run at tightened tolerances so their
    noise stays below the outer tolerance.
    """
    cfg = cfg or QuadratureConfig()
    r = cfg.truncation_radius
    inner_abs = max(cfg.abs_tol / (4.0 * r), 5e-15)
    inner_rel = max(cfg.rel_tol / 10.0, 5e-15)

    def outer(ys):
        vals = np.empty_like(ys)
        for i, yv in enumerate(ys):
            y = float(yv)
            vals[i] = _adaptive(
                lambda xs: f(xs, y), -r, r, inner_abs, inner_rel, cfg.max_subdivisions
            ).value
        return vals

    res = _adaptive(outer, -r, r, cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions)
    error = res.error + 2.0 * r * inner_abs + inner_rel * abs(res.value)
    return QuadratureResult(res.value, error, res.subdivisions)


def normal_pdf(x):
    """Standard normal density, elementwise."""
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def normal_cdf(x):
    """Standard normal distribution function (vectorized, full double
    range): scipy's ndtr, imported on first call so that importing the
    package does not load scipy."""
    from scipy.special import ndtr

    return ndtr(x)


def log_normal_cdf(x):
    """log of the standard normal distribution function, safe for
    arguments far below -37 where the plain log would underflow to
    log(0): scipy's log_ndtr, imported on first call."""
    from scipy.special import log_ndtr

    return log_ndtr(x)


def gaussian_pair_moment(k: int, gamma: float) -> float:
    """Closed form of the double integral of
    exp(-gamma*(x-y)^2) * (x-y)^(2k) * phi(x) * phi(y)
    over the plane: 4^k Gamma(k+1/2) / (sqrt(pi) (4 gamma + 1)^(k+1/2)).
    """
    if k not in (0, 1, 2):
        raise ValueError(f"k must be 0, 1 or 2, got {k!r}")
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    return 4.0**k * math.gamma(k + 0.5) / (math.sqrt(math.pi) * (4.0 * gamma + 1.0) ** (k + 0.5))


def smoothed_density_identity(y, gamma: float):
    """Closed form of the Gaussian-smoothed normal density
    integral of exp(-gamma*(x-y)^2) * phi(x) over x, which equals
    (1+beta^2)^(-1/2) * exp(-delta*y^2) with beta^2 = 2*gamma and
    delta = gamma/(1+2*gamma)."""
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    delta = gamma / (1.0 + 2.0 * gamma)
    return np.exp(-delta * np.square(y)) / math.sqrt(1.0 + 2.0 * gamma)


def smoothed_second_moment_identity(x, gamma: float):
    """Closed form of the second-moment smoothing integral of
    exp(-gamma*(x-y)^2) * (x-y)^2 * phi(y) over y, which equals
    exp(-delta*x^2) * (x^2 + beta^2 + 1) / (1+beta^2)^(5/2) with
    beta^2 = 2*gamma and delta = gamma/(1+2*gamma)."""
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    beta2 = 2.0 * gamma
    delta = gamma / (1.0 + beta2)
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-delta * np.square(x)) * (np.square(x) + beta2 + 1.0) / (1.0 + beta2) ** 2.5
