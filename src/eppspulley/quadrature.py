"""Uniformly refined Gauss-Kronrod quadrature on [-R, R] and [-R, R]^2.

Every integrand in this library carries a Gaussian factor, so integrals
over the line and the plane are truncated to [-R, R] and [-R, R]^2.
Both use one loop: [-R, R] starts as 4 equal K15 panels and every panel
is halved until the summed |K15 - G7| estimate (per panel in 1-D, per
K15 x K15 tile in 2-D) is at most tol * max(1, |value|).
Each estimate is floored at 10 eps times the rule applied to |f|, a
roundoff floor that refinement does not lower; a tolerance below it
raises QuadratureError as soon as the floor dominates the estimate,
instead of refining to the panel budget.  Sums run with math.fsum in panel order, so repeated calls are
bit-identical.  panel_rule exposes the nodes and weights of one level,
for callers that sum many integrands against the same rule.

The module also provides the standard normal density, distribution
function and log-distribution function, built on the C library's erfc
alone (numpy and the standard library).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "QuadratureResult",
    "integrate_1d",
    "integrate_2d",
    "log_normal_cdf",
    "normal_cdf",
    "normal_pdf",
    "panel_rule",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_erfc = np.frompyfunc(math.erfc, 1, 1)
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
_INITIAL_PANELS = 4
# integrate_1d is a single row block whose one row carries weight 1
_ONE = np.ones(1)


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted, the tolerance is below
    the roundoff floor, or the integrand produced non-finite values (and
    by callers whose truncated tail is not negligible).  Carries the best estimate reached and
    its error bound when available."""

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class QuadratureResult(NamedTuple):
    """Estimate, its error bound, and the number of panels per axis of
    the refinement level that met the tolerance."""

    value: float
    error: float
    subdivisions: int


@dataclass(frozen=True)
class QuadratureConfig:
    """Truncation, tolerance and panel budget of the quadrature rule.

    truncation_radius is measured in standard units of the Gaussian
    factor carried by the integrand; beyond 12 such units the tail mass
    is far below every tolerance used here.  Refinement stops once the
    summed error estimate is at most allowed(value).
    max_subdivisions caps the number of panels per axis: when halving
    every panel would exceed it, QuadratureError is raised instead (the
    first level of 4 panels always runs).
    """

    truncation_radius: float = 12.0
    tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not (8.0 <= self.truncation_radius and self.truncation_radius * self.truncation_radius < math.inf):
            raise ValueError("truncation_radius must be at least 8, with a finite square")
        budget = self.max_subdivisions
        if isinstance(budget, bool) or not (isinstance(budget, (int, np.integer)) and budget >= 1):
            raise ValueError("max_subdivisions must be an integer of at least 1")

    def allowed(self, value: float) -> float:
        """Error allowed on a value: tol, relative where |value| > 1."""
        return self.tol * max(1.0, abs(value))


def _checked(fx, shape):
    fx = np.asarray(fx, dtype=np.float64)
    if fx.shape != shape:
        raise ValueError(f"integrand returned shape {fx.shape}, expected {shape}")
    if not np.all(np.isfinite(fx)):
        raise QuadratureError("integrand returned non-finite values")
    return fx


def _panel_sums(block, wk_rows, wg_rows, scale, panels):
    """K15 values and error estimates, in panel order, of one block of
    rows (axis 0) by all 15 * panels column nodes (axis 1).  The rows
    are contracted with wk_rows (K15) or wg_rows (G7), then each column
    panel with the same rule.  |K15 - G7| is a conservative bound on
    smooth integrands; the floor keeps roundoff from giving a zero one.
    Returns the K15 values, the error estimates and their floors.
    """
    kron = scale * ((wk_rows @ block).reshape(panels, 15) @ _WK15)
    gauss = scale * ((wg_rows @ block).reshape(panels, 15) @ _WG7)
    floor = 10.0 * _EPS * scale * ((wk_rows @ np.abs(block)).reshape(panels, 15) @ _WK15)
    return kron, np.maximum(np.abs(kron - gauss), floor), floor


def _panel_nodes(radius, panels):
    """The 15 * panels K15 abscissae of panels equal panels on
    [-radius, radius], in panel order, and the panel half-width."""
    half = radius / panels
    mids = (2.0 * np.arange(panels) + (1.0 - panels)) * half
    return (mids[:, None] + half * _NODES).ravel(), half


def panel_rule(radius: float, panels: int):
    """Abscissae and K15 weights of the composite rule that the engine
    applies at a level of panels equal panels on [-radius, radius]."""
    x, half = _panel_nodes(radius, panels)
    return x, np.tile(half * _WK15, panels)


def _integrate(f, cfg, dims):
    cfg = cfg or QuadratureConfig()
    r = cfg.truncation_radius
    panels = _INITIAL_PANELS
    while True:
        x, half = _panel_nodes(r, panels)
        if dims == 1:
            sums = [_panel_sums(_checked(f(x), x.shape)[None, :], _ONE, _ONE, half, panels)]
        else:
            sums = [
                _panel_sums(
                    _checked(f(rows[:, None], x[None, :]), (15, x.size)),
                    _WK15, _WG7, half * half, panels,
                )
                for rows in x.reshape(panels, 15)
            ]
        value, error, floor = (math.fsum(np.concatenate(col).tolist()) for col in zip(*sums))
        tol = cfg.allowed(value)
        if error <= tol:
            return QuadratureResult(value, error, panels)
        # Once the floor is most of the estimate the integrand is resolved,
        # and refining leaves the floor (10 eps times the integral of |f|)
        # where it is: a tolerance below it can never be met.
        if floor > tol and error <= 2.0 * floor:
            raise QuadratureError(
                f"tolerance {tol:.3g} is below the roundoff floor {floor:.3g} of the "
                f"integrand (estimate {value:.17g}, error bound {error:.3g}, "
                f"{panels} panels per axis)",
                estimate=value,
                error_bound=error,
            )
        if 2 * panels > cfg.max_subdivisions:
            raise QuadratureError(
                f"no convergence with {panels} panels per axis; halving them would exceed "
                f"max_subdivisions={cfg.max_subdivisions} "
                f"(estimate {value:.17g}, error bound {error:.3g})",
                estimate=value,
                error_bound=error,
            )
        panels *= 2


def integrate_1d(f: Callable, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Integrate f over [-R, R] on uniformly refined K15 panels.

    f maps a 1-D float ndarray of abscissae to an array of the same
    shape.  Returns the estimate together with a conservative error
    bound and the number of panels used.  Raises QuadratureError
    (carrying the best estimate) if the panel budget is exhausted or the
    tolerance is below the roundoff floor.
    """
    return _integrate(f, cfg, 1)


def integrate_2d(f: Callable, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Integrate f(x, y) over [-R, R]^2 on uniformly refined K15 x K15
    tiles.

    f must broadcast over both arguments: it is called with x of shape
    (15, 1) and y of shape (1, 15 P) and must return the (15, 15 P)
    array, else ValueError.  subdivisions in the result counts panels
    per axis.  Raises QuadratureError as integrate_1d does.
    """
    return _integrate(f, cfg, 2)


def normal_pdf(x):
    """Standard normal density, elementwise; x^2 overflows only where it is 0."""
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def normal_cdf(x):
    """Standard normal distribution function erfc(-x/sqrt(2))/2, math.erfc
    applied elementwise; float64 of x's shape.  Rounding x/sqrt(2) bounds
    the relative error by x^2 eps: 1.8e-13 at worst on [-37, 10]."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * np.asarray(_erfc(-x / _SQRT2), dtype=np.float64)[()]


def log_normal_cdf(x):
    """log of the standard normal distribution function, float64 of x's
    shape: log1p(-Phi(-x)) above 0, log Phi(x) from -37 to 0, and below
    -37, where Phi underflows, the asymptotic series of Mills' ratio,
    whose first dropped term 945/x^10 is below 3e-13.  Within 1e-14
    relative on [-60, 8]."""
    x = np.asarray(x, dtype=np.float64)
    pieces = [lambda t: np.log1p(-normal_cdf(-t)), _log_normal_cdf_tail, lambda t: np.log(normal_cdf(t))]
    return np.piecewise(x, [x > 0.0, x < -37.0], pieces)[()]


def _log_normal_cdf_tail(t):
    r = 1.0 / np.square(t)
    return -0.5 * np.square(t) - np.log(-t * _SQRT_2PI) + np.log1p(r * (-1.0 + r * (3.0 + r * (-15.0 + 105.0 * r))))
