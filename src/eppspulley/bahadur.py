"""Slope machinery for local asymptotic efficiency.

For an alternative family g(x; theta) embedding the null at theta = 0,
the statistic divided by n converges in probability to a limit b(theta)
that vanishes at 0 and grows quadratically:

    b(theta) = delta_beta * theta^2 + O(theta^3).

The approximate slope is b(theta) divided by the largest eigenvalue of
the limit-null covariance operator, so the local index is
delta_beta / lambda1.  Efficiencies are reported relative to the
likelihood ratio test, whose local index is the curvature at 0 of twice
the minimal Kullback-Leibler divergence to the normal family.  For a
regular family that curvature is the Fisher information of the score
d1/phi minus its projection on the normal location and scale scores
(Nikitin, Asymptotic Efficiency of Nonparametric Tests, 1995):

    lrt = integral of d1^2/phi - mu1^2 - sigma1^2 / 2,

with mu1 and sigma1 the first theta-derivatives at 0 of the family mean
and variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .alternatives import AlternativeFamily, family_from_name
from .quadrature import (
    QuadratureConfig,
    QuadratureError,
    config_for_beta,
    integrate_1d,
    integrate_2d,
    normal_pdf,
)
from .spectral import lambda1
from .statistic import TuningParam

__all__ = [
    "EfficiencyTable",
    "ExpansionCoefficients",
    "SlopeReport",
    "efficiency_table",
    "expansion_coefficients",
    "local_index",
    "lrt_local_index",
    "slope_report",
    "stochastic_limit",
]


# Largest radius on which d1^2/phi is finite: phi underflows to zero
# beyond |x| ~ 38.5.
_SCORE_RADIUS = 37.0


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Ingredients of the quadratic coefficient of b(theta).

    mu1 and sigma1 are the first theta-derivatives at 0 of the family
    mean and variance.  j10, j11, j12 are the moments of d1 against
    exp(-delta*x^2) of orders 0, 1, 2; d0 is the double integral of
    exp(-gamma*(x-y)^2) * d1(x) * d1(y).
    """

    mu1: float
    sigma1: float
    j10: float
    j11: float
    j12: float
    d0: float


@dataclass(frozen=True)
class SlopeReport:
    """Local index and efficiency of one family at one beta, together
    with the sampling protocol that produced lambda1."""

    family: str
    beta: float
    delta_beta: float
    lambda1: float
    local_index: float
    lrt_index: float
    efficiency: float
    n_points: int
    runs: int
    seed: int


def _moments(family: AlternativeFamily, theta: float, cfg: QuadratureConfig):
    """Mean and variance of g(.; theta) by quadrature."""
    g = family.density
    mean = integrate_1d(lambda x: x * g(x, theta), cfg).value
    second = integrate_1d(lambda x: np.square(x) * g(x, theta), cfg).value
    var = second - mean * mean
    if not var > 0.0:
        raise ArithmeticError(f"nonpositive variance {var} at theta={theta}")
    return mean, var


def stochastic_limit(
    family: AlternativeFamily,
    theta: float,
    tp: TuningParam,
    cfg: QuadratureConfig | None = None,
) -> float:
    """In-probability limit of the statistic over n under g(.; theta).

    With mu and s2 the mean and variance of the family at theta, and
    b = beta^2:

        b(theta) = double integral of exp(-gamma (x-y)^2 / s2) g(x) g(y)
                   - 2 (1+b)^(-1/2) integral of exp(-delta (x-mu)^2 / s2) g(x)
                   + (1+2b)^(-1/2)

    which is 0 at theta = 0.  Evaluated in an equivalent subtracted form:
    the same expression with g replaced by the normal density matching
    (mu, s2) is exactly zero, so that normal contribution is subtracted
    inside the integrands.  This removes the three-way cancellation of
    O(1) terms and makes tiny values of b (small theta) accurate at the
    quadrature's relative precision.
    """
    lo, hi = family.theta_domain
    if not lo < theta < hi:
        raise ValueError(f"theta={theta} outside domain {family.theta_domain} of {family.name}")
    cfg = config_for_beta(cfg or QuadratureConfig(), tp.beta)
    mean, var = _moments(family, theta, cfg)
    sd = math.sqrt(var)
    g = family.density
    beta2 = tp.beta * tp.beta
    gamma_eff = tp.gamma / var
    delta_eff = tp.delta / var

    def matched(x):
        return normal_pdf((x - mean) / sd) / sd

    pair = integrate_2d(
        lambda x, y: np.exp(-gamma_eff * np.square(x - y))
        * (g(x, theta) * g(y, theta) - matched(x) * matched(y)),
        cfg,
    ).value
    single = integrate_1d(
        lambda x: np.exp(-delta_eff * np.square(x - mean)) * (g(x, theta) - matched(x)), cfg
    ).value
    return pair - 2.0 / math.sqrt(1.0 + beta2) * single


def expansion_coefficients(
    family: AlternativeFamily,
    tp: TuningParam,
    cfg: QuadratureConfig | None = None,
) -> ExpansionCoefficients:
    """All quadratures feeding the local index, evaluated analytically
    from the family's first-derivative callable."""
    cfg = config_for_beta(cfg or QuadratureConfig(), tp.beta)
    d1 = family.d1
    delta, gamma = tp.delta, tp.gamma

    mu1 = integrate_1d(lambda x: x * d1(x), cfg).value
    sigma1 = integrate_1d(lambda x: np.square(x) * d1(x), cfg).value
    j10 = integrate_1d(lambda x: np.exp(-delta * np.square(x)) * d1(x), cfg).value
    j11 = integrate_1d(lambda x: np.exp(-delta * np.square(x)) * x * d1(x), cfg).value
    j12 = integrate_1d(lambda x: np.exp(-delta * np.square(x)) * np.square(x) * d1(x), cfg).value
    d0 = integrate_2d(
        lambda x, y: np.exp(-gamma * np.square(x - y)) * d1(x) * d1(y), cfg
    ).value
    return ExpansionCoefficients(mu1, sigma1, j10, j11, j12, d0)


def _assemble_local_index(c: ExpansionCoefficients, beta: float) -> float:
    b2 = beta * beta
    middle = ((c.j10 - c.j12) * c.sigma1 - 2.0 * c.j11 * c.mu1) * b2 + c.j10 * c.sigma1 - 2.0 * c.j11 * c.mu1
    last = (2.0 * c.mu1**2 + 0.75 * c.sigma1**2) * b2 + c.mu1**2
    return c.d0 + b2 / (b2 + 1.0) ** 2.5 * middle + b2 / (2.0 * b2 + 1.0) ** 2.5 * last


def local_index(
    family: AlternativeFamily,
    tp: TuningParam,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Quadratic coefficient delta_beta of the stochastic limit at 0."""
    return _assemble_local_index(expansion_coefficients(family, tp, cfg), tp.beta)


def lrt_local_index(family: AlternativeFamily, cfg: QuadratureConfig | None = None) -> float:
    """Local index of the likelihood ratio test benchmark:
    fisher - mu1^2 - sigma1^2 / 2, with fisher the integral of d1^2/phi
    and mu1, sigma1 the integrals of x*d1 and x^2*d1.

    d1^2/phi is the one integrand here without a Gaussian factor: for a
    normal contamination of variance 2 or more it does not decay at all
    (the Fisher information is infinite), and beyond |x| ~ 38.5 phi
    underflows and the ratio becomes 0/0.  The integrals therefore run
    over [-R', R'] with R' = min(truncation_radius, 37), and
    QuadratureError is raised when d1^2/phi summed at -R' and R' exceeds
    max(abs_tol, rel_tol * fisher), since the truncated tail is then not
    negligible.
    """
    cfg = cfg or QuadratureConfig()
    cfg = replace(cfg, truncation_radius=min(cfg.truncation_radius, _SCORE_RADIUS))
    d1 = family.d1

    def score_square(x):
        return np.square(d1(x)) / normal_pdf(x)

    r = cfg.truncation_radius
    fisher = integrate_1d(score_square, cfg).value
    edge = float(np.sum(score_square(np.array([-r, r]))))
    if edge > max(cfg.abs_tol, cfg.rel_tol * fisher):
        raise QuadratureError(
            f"Fisher information of {family.name} is not resolved on [-{r:g}, {r:g}]: "
            f"d1^2/phi sums to {edge:.3g} at the radius (estimate {fisher:.17g})",
            estimate=fisher,
            error_bound=edge,
        )
    mu1 = integrate_1d(lambda x: x * d1(x), cfg).value
    sigma1 = integrate_1d(lambda x: np.square(x) * d1(x), cfg).value
    return fisher - mu1 * mu1 - 0.5 * sigma1 * sigma1


def slope_report(
    family: AlternativeFamily,
    tp: TuningParam,
    n_points: int = 1000,
    runs: int = 10,
    seed: int = 42,
    cfg: QuadratureConfig | None = None,
) -> SlopeReport:
    """Assemble delta_beta, lambda1, the local index, the LRT benchmark
    and the relative efficiency for one family at one beta."""
    delta_beta = local_index(family, tp, cfg)
    lam = lambda1(tp, n_points=n_points, runs=runs, seed=seed)
    lrt = lrt_local_index(family, cfg)
    li = delta_beta / lam
    return SlopeReport(
        family=family.name,
        beta=tp.beta,
        delta_beta=delta_beta,
        lambda1=lam,
        local_index=li,
        lrt_index=lrt,
        efficiency=li / lrt,
        n_points=int(n_points),
        runs=int(runs),
        seed=int(seed),
    )


@dataclass(frozen=True, eq=False)
class EfficiencyTable:
    """Efficiency grid: one row per family, one column per beta."""

    families: tuple[str, ...]
    betas: tuple[float, ...]
    efficiencies: np.ndarray
    n_points: int
    runs: int
    seed: int


def efficiency_table(
    family_names,
    betas,
    n_points: int = 1000,
    runs: int = 10,
    seed: int = 42,
    cfg: QuadratureConfig | None = None,
) -> EfficiencyTable:
    """Efficiency grid over families x betas.

    lambda1 is computed once per beta and the LRT index once per family,
    which keeps a full table affordable.
    """
    families = [family_from_name(name) for name in family_names]
    lrt = {f.name: lrt_local_index(f, cfg) for f in families}
    lam = {b: lambda1(TuningParam(b), n_points=n_points, runs=runs, seed=seed) for b in betas}
    grid = np.empty((len(families), len(betas)))
    for i, fam in enumerate(families):
        for j, b in enumerate(betas):
            tp = TuningParam(b)
            grid[i, j] = local_index(fam, tp, cfg) / lam[b] / lrt[fam.name]
    return EfficiencyTable(
        families=tuple(f.name for f in families),
        betas=tuple(float(b) for b in betas),
        efficiencies=grid,
        n_points=int(n_points),
        runs=int(runs),
        seed=int(seed),
    )
