"""Slope machinery for local asymptotic efficiency.

For an alternative family g(x; theta) embedding the null at theta = 0,
the statistic divided by n converges in probability to a limit b(theta)
that vanishes at 0 and grows quadratically:

    b(theta) = delta_beta * theta^2 + O(theta^3).

The statistic is the phi_beta-weighted L2 distance between the
empirical characteristic function of the standardized sample and
exp(-t^2/2), so b(theta) is that distance for the standardized family,
and delta_beta is one nonnegative integral in the frequency domain:

    delta_beta = integral of |H(t)|^2 phi_beta(t) dt,
    H(t) = integral of B(itx) d1(x) dx + i t mu1 E - (sigma1/2) t^2 E,

with H the theta-derivative at 0 of the characteristic function of the
standardized family, B(z) = e^z - 1 - z - z^2/2, E = 1 - exp(-t^2/2),
and phi_beta the N(0, beta^2) density.  Every term of H is O(t^3), so
nothing cancels at any beta, and as beta -> 0 delta_beta tends to
15 beta^6 kappa3'^2 / 36 with kappa3' the integral of (x^3 - 3x) d1, the
theta-derivative of the third cumulant (Henze, Extreme smoothing and
testing for multivariate normality, Statist. Probab. Lett. 35, 1997).

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
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .alternatives import AlternativeFamily, family_from_name
from .backend import _SERIES_CUTOFF, _bracket_series
from .quadrature import (
    QuadratureConfig,
    QuadratureError,
    integrate_1d,
    integrate_2d,
    normal_pdf,
    panel_rule,
)
from .spectral import lambda1
from .statistic import TuningParam

__all__ = [
    "EfficiencyTable",
    "efficiency_table",
    "local_index",
    "lrt_local_index",
    "stochastic_limit",
]


# Largest radius on which d1^2/phi is finite: phi underflows to zero
# beyond |x| ~ 38.5.
_SCORE_RADIUS = 37.0
# Largest phase of e^{itx}, in radians, across one panel half-width of
# the x-rule: it sets the cutoff in t that P panels resolve.
_PHASE_PER_PANEL = 3.0
# Entries per row block of the (t, x) matrix of B(itx).
_BLOCK = 1 << 14


@contextmanager
def _naming(quantity: str):
    """Prefix the message of a QuadratureError raised inside with the
    quantity being integrated, keeping its estimate and error bound."""
    try:
        yield
    except QuadratureError as exc:
        raise QuadratureError(f"{quantity}: {exc}", exc.estimate, exc.error_bound) from exc


def _two_moments(f, cfg: QuadratureConfig):
    """Integrals of x*f and x^2*f, and the larger of their panel counts."""
    first = integrate_1d(lambda x: x * f(x), cfg)
    second = integrate_1d(lambda x: np.square(x) * f(x), cfg)
    return first.value, second.value, max(first.subdivisions, second.subdivisions)


def _moments(family: AlternativeFamily, theta: float, cfg: QuadratureConfig):
    """Mean and variance of g(.; theta) by quadrature."""
    g = family.density
    mean, second, _ = _two_moments(lambda x: g(x, theta), cfg)
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
    cfg = cfg or QuadratureConfig()
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


def _weighted_score(family: AlternativeFamily, cfg: QuadratureConfig, panels: int):
    """Abscissae x and products w * d1(x) of the engine's K15 rule with
    the given number of panels on [-R, R].

    d1 integrates to 0 over the line.  When its rule sum on [-R, R]
    exceeds max(abs_tol, rel_tol * the sum of |w d1|), part of the
    perturbation lies beyond the radius, where no integral of d1 sees
    it, and QuadratureError is raised naming [-R, R].
    """
    r = cfg.truncation_radius
    x, w = panel_rule(r, panels)
    wd1 = w * family.d1(x)
    mass = float(np.sum(wd1))
    if abs(mass) > max(cfg.abs_tol, cfg.rel_tol * float(np.sum(np.abs(wd1)))):
        raise QuadratureError(
            f"d1 of {family.name} integrates to {mass:.3g} on [-{r:g}, {r:g}], not 0: "
            f"the alternative reaches beyond the truncation radius",
            estimate=mass,
            error_bound=abs(mass),
        )
    return x, wd1


def _score_transform(t, x, wd1, mu1, sigma1):
    """H(t) at the points of the 1-D array t, from the rule (x, wd1):

        H(t) = sum of B(i t x) w d1(x) + t E (i mu1 - sigma1 t / 2),

    with B(z) = e^z - 1 - z - z^2/2 and E = 1 - exp(-t^2/2).  B is
    summed as its series where |t x| < 1, so every term keeps its
    relative accuracy as t -> 0.  The (t, x) matrix is built in row
    blocks of at most _BLOCK entries.
    """
    out = np.empty(t.size, dtype=np.complex128)
    rows = max(1, _BLOCK // x.size)
    for start in range(0, t.size, rows):
        u = np.multiply.outer(t[start:start + rows], x).ravel()
        b = np.exp(1j * u) - 1.0 - 1j * u + 0.5 * np.square(u)
        small = np.abs(u) < _SERIES_CUTOFF
        b[small] = _bracket_series(1j * u[small])
        out[start:start + rows] = b.reshape(-1, x.size) @ wd1
    return out + t * -np.expm1(-0.5 * np.square(t)) * (1j * mu1 - 0.5 * sigma1 * t)


def local_index(
    family: AlternativeFamily,
    tp: TuningParam,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Quadratic coefficient delta_beta of the stochastic limit at 0,

        delta_beta = integral of |H(t)|^2 phi_beta(t) dt,

    with H the theta-derivative at 0 of the characteristic function of
    the standardized family (see _score_transform).  The integrand is
    nonnegative and O(t^6) at 0, so the value keeps its relative
    accuracy at any beta; H is even in modulus, so t runs over [0, T],
    mapped linearly onto the engine's [-R, R].

    The x-rule is the engine's K15 rule with P panels on [-R, R], P
    starting at the larger panel count of the mu1 and sigma1 integrals.
    The cutoff is T = min(R beta, 3 P / R), so e^{itx} turns by at most 3
    radians over a panel half-width.  While T < R beta and the edge term
    |H(T)|^2 phi_beta(T) T exceeds rel_tol * delta_beta, P doubles: the
    dropped tail is a fraction of delta_beta, whatever abs_tol is.
    QuadratureError is raised, naming the cutoff, when doubling would
    exceed max_subdivisions, and, naming [-R, R], when d1 does not
    integrate to 0 there (see _weighted_score); a failing integral's
    message starts with the quantity it integrates.  No 2-D integral is
    involved.
    """
    cfg = cfg or QuadratureConfig()
    with _naming(f"mu1 and sigma1 of {family.name}"):
        mu1, sigma1, panels = _two_moments(family.d1, cfg)
    r, beta = cfg.truncation_radius, tp.beta
    while True:
        x, wd1 = _weighted_score(family, cfg, panels)
        cutoff = min(r * beta, _PHASE_PER_PANEL * panels / r)
        # dt = (T / 2R) du on [0, T], doubled for the mirror half t < 0
        scale = cutoff / r

        def weighted_square(u):
            t = (u + r) * (0.5 * scale)
            h = _score_transform(t, x, wd1, mu1, sigma1)
            return scale * (np.square(h.real) + np.square(h.imag)) * normal_pdf(t / beta) / beta

        with _naming(f"local index of {family.name} at beta={beta:g}"):
            value = integrate_1d(weighted_square, cfg).value
        if cutoff >= r * beta:
            return value
        edge = float(weighted_square(np.array([r]))[0]) * r
        if edge <= cfg.rel_tol * value:
            return value
        if 2 * panels > cfg.max_subdivisions:
            raise QuadratureError(
                f"local index of {family.name} at beta={beta:g} is not resolved up to the "
                f"cutoff t = {cutoff:.3g}: the edge term is {edge:.3g} with {panels} panels, "
                f"and doubling them would exceed max_subdivisions={cfg.max_subdivisions} "
                f"(estimate {value:.17g})",
                estimate=value,
                error_bound=edge,
            )
        panels *= 2


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
    negligible, and when d1 does not integrate to 0 on [-R', R'] (see
    _weighted_score); a failing integral's message starts with the
    quantity it integrates.
    """
    cfg = cfg or QuadratureConfig()
    cfg = replace(cfg, truncation_radius=min(cfg.truncation_radius, _SCORE_RADIUS))
    d1 = family.d1

    def score_square(x):
        return np.square(d1(x)) / normal_pdf(x)

    r = cfg.truncation_radius
    with _naming(f"Fisher information of {family.name}"):
        fisher = integrate_1d(score_square, cfg).value
    edge = float(np.sum(score_square(np.array([-r, r]))))
    if edge > max(cfg.abs_tol, cfg.rel_tol * fisher):
        raise QuadratureError(
            f"Fisher information of {family.name} is not resolved on [-{r:g}, {r:g}]: "
            f"d1^2/phi sums to {edge:.3g} at the radius (estimate {fisher:.17g})",
            estimate=fisher,
            error_bound=edge,
        )
    with _naming(f"mu1 and sigma1 of {family.name}"):
        mu1, sigma1, panels = _two_moments(family.d1, cfg)
    _weighted_score(family, cfg, panels)
    return fisher - mu1 * mu1 - 0.5 * sigma1 * sigma1


@dataclass(frozen=True, eq=False)
class EfficiencyTable:
    """Efficiency grid, one row per family and one column per beta,
    with the factors of every cell: local_index is
    delta_beta / lambda1, and efficiencies is
    local_index / lrt_index[:, None]."""

    families: tuple[str, ...]
    betas: tuple[float, ...]
    efficiencies: np.ndarray
    delta_beta: np.ndarray
    lambda1: np.ndarray
    local_index: np.ndarray
    lrt_index: np.ndarray
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
    """Efficiency grid over families x betas, the one place that forms
    an efficiency; a single cell is the 1 x 1 table.

    Every name is resolved before any computation.  The LRT index is
    computed once per family and lambda1 once per beta, which keeps a
    full table affordable.  ArithmeticError is raised, naming the factor,
    when one of them is not positive.
    """
    families = [family_from_name(name) for name in family_names]
    lrt = np.array([lrt_local_index(f, cfg) for f in families])
    lam = np.array([lambda1(TuningParam(b), n_points=n_points, runs=runs, seed=seed)
                    for b in betas])
    names = [f"the LRT index of {f.name}" for f in families]
    names += [f"lambda1 at beta={b:g}" for b in betas]
    for name, value in zip(names, [*lrt, *lam]):
        if not value > 0.0:
            raise ArithmeticError(f"{name} is {value:g}, not positive: no efficiency is defined")
    delta = np.array([[local_index(f, TuningParam(b), cfg) for b in betas] for f in families])
    delta = delta.reshape(len(families), len(betas))
    index = delta / lam
    return EfficiencyTable(
        families=tuple(f.name for f in families),
        betas=tuple(float(b) for b in betas),
        efficiencies=index / lrt[:, None],
        delta_beta=delta,
        lambda1=lam,
        local_index=index,
        lrt_index=lrt,
        n_points=int(n_points),
        runs=int(runs),
        seed=int(seed),
    )
