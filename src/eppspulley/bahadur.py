"""Slope machinery for local asymptotic efficiency.

For an alternative family g(x; theta) embedding the null at theta = 0,
the statistic divided by n converges in probability to a limit b(theta)
that vanishes at 0 and grows quadratically:

    b(theta) = delta_beta * theta^2 + O(theta^3).

The statistic is a V-statistic with the Gaussian kernel
exp(-beta^2 (x-y)^2 / 2) on the standardized sample, so delta_beta is
the same pair sum over the first-order perturbation of the standardized
family, h = d1 + mu1 phi' - (sigma1/2) phi'', with mu1 and sigma1 the
theta-derivatives at 0 of the family mean and variance:

    delta_beta = double integral of h(x) h(y) exp(-beta^2 (x-y)^2 / 2).

h integrates 1, x and x^2 to 0, and as beta -> 0 delta_beta tends to
15 beta^6 kappa3'^2 / 36 with kappa3' the integral of (x^3 - 3x) d1, the
theta-derivative of the third cumulant (Henze, Extreme smoothing and
testing for multivariate normality, Statist. Probab. Lett. 35, 1997).
local_index sums it as a quadratic form on the nodes of a K15 panel
rule: over the lags between the rule's equal panels, on which the
Gaussian depends alone, or at small beta as a series of squares in
which nothing cancels.

The approximate slope is b(theta) divided by the largest eigenvalue of
the limit-null covariance operator, so the local index is
delta_beta / lambda1.  Efficiencies are reported relative to the
likelihood ratio test, whose local index is the curvature at 0 of twice
the minimal Kullback-Leibler divergence to the normal family.  For a
regular family that curvature is the Fisher information of the score
d1/phi minus its projection on the normal location and scale scores
(Nikitin, Asymptotic Efficiency of Nonparametric Tests, 1995):

    lrt = integral of d1^2/phi - mu1^2 - sigma1^2 / 2.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import backend
from .alternatives import AlternativeFamily, family_from_name
from .quadrature import (
    _NODES,
    QuadratureConfig,
    QuadratureError,
    integrate_1d,
    integrate_2d,
    normal_pdf,
    panel_rule,
)
from .spectral import Truncation, lambda1, truncation
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
# Largest beta at which the local index is summed as a series of
# squares (see _series_form) rather than over panel lags (_lag_form).
_SERIES_BETA = 0.25
# Node pairs farther apart than this over sqrt(gamma) are left out of
# the sum over panel lags: the fast Gauss transform's own cutoff, whose
# terms e^(-6.5^2) are below 4.5e-19.
_PAIR_CUTOFF = backend.REACH * backend.BOX_WIDTH


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
    """Abscissae x, weights w and products w * d1(x) of the engine's K15
    rule with the given number of panels on [-R, R]."""
    x, w = panel_rule(cfg.truncation_radius, panels)
    return x, w, w * family.d1(x)


def _series_form(a, v):
    """v^T G v for G[i, j] = exp(-(a_i - a_j)^2 / 2), as the sum of the
    squares m_k^2 of m_k = sum_i v_i f_k(a_i), f_k(a) = a^k e^{-a^2/2} /
    sqrt(k!), since exp(-(a - b)^2 / 2) = sum_k f_k(a) f_k(b).

    v annihilates the polynomials of degree 2 or less, so for k <= 2 the
    polynomial part of f_k is dropped: the terms keep their relative
    accuracy as a -> 0, where the dense sum cancels.  f_0's part
    e^u - 1 - u, u = -a^2/2, is the bracket series plus u^2/2 where
    |u| < _SERIES_CUTOFF, since expm1(u) - u cancels to u^2/2 there.
    The sum stops after two consecutive terms at most 1e-18 of it: the
    odd terms of a symmetric v are 0, so one small term does not end it."""
    u = -0.5 * np.square(a)
    e = np.expm1(u)
    f0 = e - u
    near = np.abs(u) < backend._SERIES_CUTOFF
    f0[near] = backend._bracket_series(u[near]) + 0.5 * np.square(u[near])
    total = float(v @ f0) ** 2 + float(v @ (a * e)) ** 2
    total += float(v @ (np.square(a) * e)) ** 2 / 2.0
    f = np.square(a) * a * np.exp(u) / math.sqrt(6.0)
    k, small = 3, 0
    while small < 2:
        term = float(v @ f) ** 2
        total += term
        small = small + 1 if not term > 1e-18 * total else 0
        k += 1
        f *= a / math.sqrt(k)
    return total


def _score_moments(family: AlternativeFamily, cfg: QuadratureConfig):
    """mu1 and sigma1, the integrals of x*d1 and x^2*d1 on [-R, R], and
    the larger P0 of their panel counts; none depends on beta.

    d1 integrates to 0 over the line.  When its sum on the P0-panel rule
    exceeds cfg.allowed(the sum of |w d1|), part of the perturbation
    lies beyond the radius, where no integral of d1 sees it, and
    QuadratureError is raised naming [-R, R]."""
    with _naming(f"mu1 and sigma1 of {family.name}"):
        mu1, sigma1, panels = _two_moments(family.d1, cfg)
    r = cfg.truncation_radius
    wd1 = _weighted_score(family, cfg, panels)[2]
    mass = float(np.sum(wd1))
    if abs(mass) > cfg.allowed(float(np.sum(np.abs(wd1)))):
        raise QuadratureError(
            f"d1 of {family.name} integrates to {mass:.3g} on [-{r:g}, {r:g}], not 0: "
            f"the alternative reaches beyond the truncation radius", mass, abs(mass)
        )
    return mu1, sigma1, panels


def _panel_count(family: AlternativeFamily, beta: float, cfg: QuadratureConfig, first: int):
    """P = max(first, ceil(beta R / 3)) of local_index, so that beta
    times the panel half-width R / P is at most 3, or QuadratureError
    naming beta and P when P exceeds max_subdivisions."""
    r = cfg.truncation_radius
    needed = np.ceil(beta * r / 3.0)
    if needed > cfg.max_subdivisions:
        raise QuadratureError(
            f"local index of {family.name} at beta={beta:g} needs {needed:.0f} panels on "
            f"[-{r:g}, {r:g}], beyond max_subdivisions={cfg.max_subdivisions}"
        )
    return max(first, int(needed))


def _score_weights(family: AlternativeFamily, cfg: QuadratureConfig, moments, panels: int):
    """Nodes x and weights v of local_index on the rule with the given
    panels, for the moments of _score_moments."""
    mu1, sigma1, _ = moments
    x, w, wd1 = _weighted_score(family, cfg, panels)
    wphi = w * normal_pdf(x)
    return x, wd1 - wphi * (mu1 * x + 0.5 * sigma1 * (np.square(x) - 1.0))


def _lag_count(gamma: float, half: float, panels: int) -> int:
    """D + 1 for the lags d = 0..D of _lag_form: nodes of panels more
    than D apart lie more than _PAIR_CUTOFF / sqrt(gamma) apart."""
    reach = 1.0 + _PAIR_CUTOFF / (2.0 * half * math.sqrt(gamma))
    return min(panels, math.floor(reach) + 2)


def _lag_products(v, lags: int):
    """C_d[a, b] = sum_q V[q + d, a] V[q, b] for d < lags, with V the
    weights v by panel and node; each C_d is its own einsum, so C_d does
    not depend on lags, and none depends on the BLAS thread count."""
    rows = v.reshape(-1, _NODES.size)
    products = np.empty((lags, _NODES.size, _NODES.size))
    for d in range(lags):
        np.einsum("qa,qb->ab", rows[d:], rows[:rows.shape[0] - d], out=products[d])
    return products


def _lag_form(products, half: float, gamma: float) -> float:
    """v^T G v from the lag products C_d of _lag_products:
    sum_d w_d <C_d, G_d>, with w_0 = 1, w_d = 2 for d >= 1 and
    G_d[a, b] = exp(-gamma h^2 (2d + xi_a - xi_b)^2), all terms in one
    math.fsum in a fixed order."""
    offsets = 2.0 * np.arange(products.shape[0])[:, None, None] + (_NODES[:, None] - _NODES)
    terms = products * np.exp(-gamma * half * half * np.square(offsets))
    terms[1:] *= 2.0
    return math.fsum(terms.ravel().tolist())


def _score_form(family: AlternativeFamily, cfg: QuadratureConfig, moments, panels: int, tps):
    """Nodes x and weights v of _score_weights on the rule with the given
    panels, its panel half-width, and the lag products of v for the most
    lags that a tuning parameter of tps above _SERIES_BETA needs."""
    x, v = _score_weights(family, cfg, moments, panels)
    count = x.size // _NODES.size  # the panels of the rule as built
    half = cfg.truncation_radius / count
    lags = max((_lag_count(tp.gamma, half, count) for tp in tps if tp.beta > _SERIES_BETA),
               default=0)
    return x, v, half, _lag_products(v, lags)


def _quadratic_form(x, v, half, products, tp: TuningParam) -> float:
    """v^T G v of local_index: the sum over panel lags of _lag_form above
    _SERIES_BETA, on the first lags of products that tp needs, and the
    series of _series_form at or below it."""
    if tp.beta > _SERIES_BETA:
        lags = _lag_count(tp.gamma, half, x.size // _NODES.size)
        return _lag_form(products[:lags], half, tp.gamma)
    return _series_form(tp.beta * x, v)


def local_index(
    family: AlternativeFamily,
    tp: TuningParam,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Quadratic coefficient delta_beta of the stochastic limit at 0, as
    the quadratic form

        delta_beta = v^T G v,  G[i, j] = exp(-beta^2 (x_i - x_j)^2 / 2),
        v = w (d1 - mu1 x phi - (sigma1/2) (x^2 - 1) phi)(x),

    on the engine's K15 rule (x, w) with P panels on [-R, R].  P is the
    panel count P0 of the mu1 and sigma1 integrals, raised to
    ceil(beta R / 3) so that beta times the panel half-width is at
    most 3.  At or below beta = _SERIES_BETA, where the pair sum cancels
    like beta^-6, the form is the series of _series_form.

    Above it the form is a sum over panel lags.  The nodes are
    c_p + h xi_a, panel p of half-width h and K15 node xi_a, so the
    Gaussian of nodes (p, a) and (q, b) depends only on the lag
    d = p - q and on (a, b), and with V = v by panel and node

        v^T G v = sum_d w_d <C_d, G_d>,  C_d[a, b] = sum_q V[q+d, a] V[q, b],
        G_d[a, b] = exp(-gamma h^2 (2d + xi_a - xi_b)^2),

    w_0 = 1 and w_d = 2 for d >= 1, with gamma = beta^2 / 2.  The lags
    stop at D = min(P - 1, floor(1 + 6.5 / (2 h sqrt(gamma))) + 1),
    which drops only pairs more than 6.5 / sqrt(gamma) apart, each
    below e^(-6.5^2) < 4.5e-19 of |v_i v_j|.  All (D + 1) * 225 terms
    go into one math.fsum in a fixed order: within 2e-14 of the dense
    sum in extended precision at beta 0.26 and within 1.4e-15 from
    beta 0.5 up, on the table's families at R = 12 and 37.

    QuadratureError is raised, naming [-R, R], when d1 does not
    integrate to 0 there (see _score_moments), and then, naming beta
    and the P needed, when P would exceed max_subdivisions; a failing
    integral's message starts with the quantity it integrates.
    """
    cfg = cfg or QuadratureConfig()
    moments = _score_moments(family, cfg)
    panels = _panel_count(family, tp.beta, cfg, moments[2])
    return _quadratic_form(*_score_form(family, cfg, moments, panels, [tp]), tp)


def lrt_local_index(family: AlternativeFamily, cfg: QuadratureConfig | None = None) -> float:
    """Local index of the likelihood ratio test benchmark:
    fisher - mu1^2 - sigma1^2 / 2, with fisher the integral of d1^2/phi
    and mu1, sigma1 the integrals of x*d1 and x^2*d1.

    d1^2/phi is the one integrand here without a Gaussian factor: for a
    normal contamination of variance 2 or more it does not decay at all
    (the Fisher information is infinite), and beyond |x| ~ 38.5 phi
    underflows and the ratio becomes 0/0.  The Fisher integral alone
    therefore runs over [-R', R'] with R' = min(truncation_radius, 37);
    mu1 and sigma1 run over [-R, R].  QuadratureError is raised when
    d1^2/phi summed at -R' and R' exceeds cfg.allowed(fisher),
    since the truncated tail is then not negligible, and when d1 does
    not integrate to 0 on [-R, R] (see _score_moments); a failing
    integral's message starts with the quantity it integrates.
    """
    return _lrt_index(family, cfg or QuadratureConfig())[0]


def _lrt_index(family: AlternativeFamily, cfg: QuadratureConfig):
    """lrt_local_index, and the moments (mu1, sigma1, P0) of
    _score_moments on [-R, R], which the local index shares."""
    r = min(cfg.truncation_radius, _SCORE_RADIUS)

    def score_square(x):
        return np.square(family.d1(x)) / normal_pdf(x)

    with _naming(f"Fisher information of {family.name}"):
        fisher = integrate_1d(score_square, replace(cfg, truncation_radius=r)).value
    edge = float(np.sum(score_square(np.array([-r, r]))))
    if edge > cfg.allowed(fisher):
        raise QuadratureError(
            f"Fisher information of {family.name} is not resolved on [-{r:g}, {r:g}]: "
            f"d1^2/phi sums to {edge:.3g} at the radius (estimate {fisher:.17g})", fisher, edge
        )
    mu1, sigma1, _ = moments = _score_moments(family, cfg)
    return fisher - mu1 * mu1 - 0.5 * sigma1 * sigma1, moments


@dataclass(frozen=True, eq=False)
class EfficiencyTable:
    """Efficiency grid, one row per family and one column per beta,
    with the factors of every cell: local_index is
    delta_beta / lambda1, and efficiencies is
    local_index / lrt_index[:, None].  truncations holds, per beta, the
    route, basis size and error bound of lambda1 (spectral.truncation)."""

    families: tuple[str, ...]
    betas: tuple[float, ...]
    efficiencies: np.ndarray
    delta_beta: np.ndarray
    lambda1: np.ndarray
    local_index: np.ndarray
    lrt_index: np.ndarray
    truncations: tuple[Truncation, ...]


def efficiency_table(
    family_names,
    betas,
    cfg: QuadratureConfig | None = None,
) -> EfficiencyTable:
    """Efficiency grid over families x betas, the one place that forms
    an efficiency; a single cell is the 1 x 1 table.

    Every name is resolved before any computation.  The LRT index is
    computed once per family and lambda1 once per beta.  The moments mu1
    and sigma1, with the check that d1 integrates to 0, are taken once
    per family for both indices, and every cell's panel count is checked
    against the budget before any lambda1 is solved.  Each row builds
    the weights of its local index and their lag products once per
    panel count, up to the most lags any of its betas at that count
    needs, and each cell sums the first lags it needs; every lag
    product is its own einsum, so each cell is the local_index of its
    own call, bit for bit.  ArithmeticError is
    raised, naming the factor, when one of them is not positive.
    """
    families = [family_from_name(name) for name in family_names]
    cfg = cfg or QuadratureConfig()
    lrt_moments = [_lrt_index(f, cfg) for f in families]
    lrt = np.array([index for index, _ in lrt_moments])
    tps = [TuningParam(b) for b in betas]
    panels = [[_panel_count(f, tp.beta, cfg, moments[2]) for tp in tps]
              for f, (_, moments) in zip(families, lrt_moments)]
    lam = np.array([lambda1(tp) for tp in tps])
    names = [f"the LRT index of {f.name}" for f in families]
    names += [f"lambda1 at beta={b:g}" for b in betas]
    for name, value in zip(names, [*lrt, *lam]):
        if not value > 0.0:
            raise ArithmeticError(f"{name} is {value:g}, not positive: no efficiency is defined")
    delta = np.empty((len(families), len(betas)))
    for row, f, (_, moments), counts in zip(delta, families, lrt_moments, panels):
        forms = {}
        for j, (tp, count) in enumerate(zip(tps, counts)):
            if count not in forms:
                same = [other for other, c in zip(tps, counts) if c == count]
                forms[count] = _score_form(f, cfg, moments, count, same)
            row[j] = _quadratic_form(*forms[count], tp)
    index = delta / lam
    return EfficiencyTable(
        families=tuple(f.name for f in families),
        betas=tuple(float(b) for b in betas),
        efficiencies=index / lrt[:, None],
        delta_beta=delta,
        lambda1=lam,
        local_index=index,
        lrt_index=lrt,
        truncations=tuple(truncation(tp) for tp in tps),
    )
