"""Slope machinery tests.

Oracles used here:
  * stochastic_limit vs coupled Monte-Carlo estimates of the defining
    expectations (exact samplers: inverse CDF for the Lehmann family,
    mixture representation for contamination);
  * stochastic_limit vs a fully closed-form evaluation for
    contamination (all integrals are Gaussian);
  * the local index vs the brute-force ratio b(theta)/theta^2, vs a
    40-digit mpmath quadrature of the closed-form |H(t)|^2 phi_beta(t)
    for contamination, and vs its small-beta asymptote
    15 beta^6 kappa3'^2 / 36;
  * the LRT index vs its closed form for contamination, vs the same
    projection formula on a fixed Gauss-Hermite rule for every table
    family, and vs the curvature of twice the minimal Kullback-Leibler
    divergence to a normal law, extrapolated from theta > 0.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import ndtri

from eppspulley import bahadur
from eppspulley.alternatives import TABLE_FAMILIES, contamination, family_from_name, lehmann
from eppspulley.bahadur import (
    _moments,
    efficiency_table,
    local_index,
    lrt_local_index,
    stochastic_limit,
)
from eppspulley.quadrature import (
    QuadratureConfig,
    QuadratureError,
    integrate_1d,
    integrate_2d,
    normal_pdf,
)
from eppspulley.statistic import TuningParam

CFG = QuadratureConfig()
TIGHT = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)


def crn_limit_estimate(y1_t, y2_t, y1_0, y2_0, beta):
    """Coupled Monte-Carlo estimate of the stochastic limit.

    The limit is b(theta) = A(theta) - 2c*B(theta) + const with
    b(0) = 0, so b(theta) = [A(theta)-A(0)] - 2c*[B(theta)-B(0)]; the
    differences are estimated with common random numbers, which removes
    nearly all of the variance of the individual expectations.
    Returns (estimate, standard error).
    """
    g = 0.5 * beta * beta
    d = 0.5 * beta * beta / (1.0 + beta * beta)
    c = 2.0 / math.sqrt(1.0 + beta * beta)
    pair_diff = np.exp(-g * np.square(y1_t - y2_t)) - np.exp(-g * np.square(y1_0 - y2_0))
    one_diff = 0.5 * (
        np.exp(-d * np.square(y1_t))
        - np.exp(-d * np.square(y1_0))
        + np.exp(-d * np.square(y2_t))
        - np.exp(-d * np.square(y2_0))
    )
    di = pair_diff - c * one_diff
    return float(di.mean()), float(di.std(ddof=1) / math.sqrt(di.size))


def lehmann_moments_fixed_rule(theta, nodes=150):
    """Mean and variance of the Lehmann family by a fixed Gauss-Hermite
    rule (independent of the K15 panel engine)."""
    from scipy.special import log_ndtr, roots_hermitenorm

    x, w = roots_hermitenorm(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    dens = (1.0 + theta) * np.exp(theta * log_ndtr(x))  # density over phi
    m1 = float(np.sum(w * x * dens))
    m2 = float(np.sum(w * x * x * dens))
    return m1, m2 - m1 * m1


def _kl_to_nearest_normal(family, theta, cfg):
    """Minimal Kullback-Leibler divergence of g(.; theta) to any normal
    law.  The minimizing normal matches the mean and variance of the
    family, so only the cross-entropy integral remains."""
    if theta == 0.0:
        return 0.0
    mean, var = _moments(family, theta, cfg)
    g = family.density
    log_norm = 0.5 * math.log(2.0 * math.pi * var)

    def integrand(x):
        gx = g(x, theta)
        if np.any(gx < 0.0):
            raise ArithmeticError(f"{family.name} is not a density at theta={theta}")
        out = np.zeros_like(gx)
        pos = gx > 0.0
        centred = x[pos] - mean
        out[pos] = gx[pos] * (np.log(gx[pos]) + log_norm + 0.5 * np.square(centred) / var)
        return out

    return integrate_1d(integrand, cfg).value


def lrt_projection_fixed_rule(family, nodes=150):
    """Fisher information of the score d1/phi minus its projection on
    the normal location and scale scores, by a fixed Gauss-Hermite rule
    (independent of the K15 panel engine)."""
    from scipy.special import roots_hermitenorm

    x, w = roots_hermitenorm(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    score = family.d1(x) / normal_pdf(x)
    fisher = float(np.sum(w * score * score))
    mu1 = float(np.sum(w * x * score))
    sigma1 = float(np.sum(w * x * x * score))
    return fisher - mu1 * mu1 - 0.5 * sigma1 * sigma1


def contam_lrt_closed_form(mu, s2):
    """LRT index of contamination: the Fisher information
    exp(mu^2/(2-s2)) / (s sqrt(2-s2)) - 1 minus mu1^2 = mu^2 and
    sigma1^2 / 2 with sigma1 = s2 + mu^2 - 1; finite for s2 < 2."""
    return (
        math.exp(mu * mu / (2.0 - s2)) / math.sqrt(s2 * (2.0 - s2))
        - 1.0
        - mu * mu
        - 0.5 * (s2 + mu * mu - 1.0) ** 2
    )


def gauss_square_mgf(c, mean, var):
    """E exp(-c Z^2) for Z ~ N(mean, var)."""
    return math.exp(-c * mean * mean / (1.0 + 2.0 * c * var)) / math.sqrt(1.0 + 2.0 * c * var)


def contam_limit_closed_form(mu, s2, theta, beta):
    """Stochastic limit for the contamination family: every integral is
    Gaussian, so the value is exact up to machine precision."""
    m1 = theta * mu
    ex2 = (1.0 - theta) + theta * (s2 + mu * mu)
    var = ex2 - m1 * m1
    g = 0.5 * beta * beta / var
    d = 0.5 * beta * beta / (1.0 + beta * beta) / var
    comps = [(1.0 - theta, 0.0, 1.0), (theta, mu, s2)]
    pair = sum(
        wx * wy * gauss_square_mgf(g, mx - my, vx + vy)
        for wx, mx, vx in comps
        for wy, my, vy in comps
    )
    single = sum(wx * gauss_square_mgf(d, mx - m1, vx) for wx, mx, vx in comps)
    b2 = beta * beta
    return pair - 2.0 / math.sqrt(1.0 + b2) * single + 1.0 / math.sqrt(1.0 + 2.0 * b2)


class TestStochasticLimit:
    @pytest.mark.parametrize("name", TABLE_FAMILIES)
    def test_zero_at_null(self, name):
        fam = family_from_name(name)
        assert stochastic_limit(fam, 0.0, TuningParam(1.0)) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("theta", [0.05, 0.2, 0.5])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
    def test_contamination_matches_closed_form(self, theta, beta):
        fam = contamination(1.0, 1.0)
        got = stochastic_limit(fam, theta, TuningParam(beta), TIGHT)
        assert got == pytest.approx(contam_limit_closed_form(1.0, 1.0, theta, beta), abs=1e-10)

    @staticmethod
    def _lehmann_mc(theta, beta, pairs, seed):
        rng = np.random.default_rng(seed)
        u = rng.uniform(size=(pairs, 2))
        x_null = ndtri(u)
        x_theta = ndtri(np.exp(np.log(u) / (1.0 + theta)))
        mu_t, var_t = lehmann_moments_fixed_rule(theta)
        sd_t = math.sqrt(var_t)
        return crn_limit_estimate(
            (x_theta[:, 0] - mu_t) / sd_t,
            (x_theta[:, 1] - mu_t) / sd_t,
            x_null[:, 0],
            x_null[:, 1],
            beta,
        )

    def test_lehmann_matches_coupled_mc(self):
        fam = lehmann()
        tp = TuningParam(1.0)
        est, se = self._lehmann_mc(0.1, 1.0, 500_000, seed=314159)
        got = stochastic_limit(fam, 0.1, tp, TIGHT)
        assert got > 0.0
        assert abs(got - est) <= 3.0 * se

    def test_lehmann_mc_resolves_larger_theta(self):
        # at theta = 0.3 the limit is large enough for the coupled
        # estimator to pin down its magnitude, not just consistency
        fam = lehmann()
        tp = TuningParam(1.0)
        est, se = self._lehmann_mc(0.3, 1.0, 2_000_000, seed=777)
        got = stochastic_limit(fam, 0.3, tp, TIGHT)
        assert abs(got - est) <= 3.0 * se
        assert 3.0 * se < 0.5 * got

    def test_contamination_matches_coupled_mc(self):
        theta, beta = 0.05, 1.0
        mu, s2 = 1.0, 1.0
        fam = contamination(mu, s2)
        rng = np.random.default_rng(271828)
        z = rng.standard_normal((2_000_000, 2))
        w = mu + math.sqrt(s2) * z
        fired = rng.uniform(size=z.shape) < theta
        x_theta = np.where(fired, w, z)
        m1 = theta * mu
        var = (1.0 - theta) + theta * (s2 + mu * mu) - m1 * m1
        sd = math.sqrt(var)
        est, se = crn_limit_estimate(
            (x_theta[:, 0] - m1) / sd,
            (x_theta[:, 1] - m1) / sd,
            z[:, 0],
            z[:, 1],
            beta,
        )
        got = stochastic_limit(fam, theta, TuningParam(beta), TIGHT)
        assert abs(got - est) <= 3.0 * se

    @pytest.mark.parametrize("name", ["lehmann", "lp2", "contam:1:1"])
    def test_nonnegative_at_moderate_theta(self, name):
        fam = family_from_name(name)
        tp = TuningParam(1.0)
        hi = fam.theta_domain[1]
        for theta in (0.25 * hi, 0.6 * hi):
            assert stochastic_limit(fam, theta, tp) >= -1e-12

    def test_theta_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            stochastic_limit(family_from_name("lp2"), 0.9, TuningParam(1.0))

    def test_integrates_on_the_given_radius(self, monkeypatch):
        radii = []

        def recording(f, cfg=None):
            radii.append(cfg.truncation_radius)
            return integrate_2d(f, cfg)

        monkeypatch.setattr(bahadur, "integrate_2d", recording)
        stochastic_limit(family_from_name("lehmann"), 0.1, TuningParam(0.25), QuadratureConfig())
        assert radii == [12.0]


def contam_local_index_oracle(mu, s2, beta):
    """delta_beta of contamination by mpmath quadrature at 40 digits.
    The characteristic function of d1 is exp(i mu t - s2 t^2/2) - e^{-t^2/2},
    so H(t) = that - i mu t e^{-t^2/2} + (sigma1/2) t^2 e^{-t^2/2} with
    sigma1 = s2 + mu^2 - 1; the precision absorbs its cancellation."""
    with mpmath.workdps(40):
        mu, s2, beta = mpmath.mpf(mu), mpmath.mpf(s2), mpmath.mpf(beta)
        sigma1 = s2 + mu * mu - 1

        def weighted_square(t):
            g = mpmath.exp(-t * t / 2)
            h = mpmath.exp(1j * mu * t - s2 * t * t / 2) - g
            h += (sigma1 / 2 * t - 1j * mu) * t * g
            return abs(h) ** 2 * mpmath.npdf(t, 0, beta)

        hi = 14 * min(beta, 1 / mpmath.sqrt(min(s2, 1)))
        return float(2 * mpmath.quad(weighted_square, mpmath.linspace(0, hi, 9)))


def kappa3_derivative(family):
    """Theta-derivative at 0 of the third cumulant: integral of (x^3 - 3x) d1."""
    return integrate_1d(lambda x: (x**3 - 3.0 * x) * family.d1(x), TIGHT).value


CONTAM_ORACLE_CASES = [
    (beta, mu, s2)
    for mu, s2 in [(1.0, 1.0), (0.5, 1.0), (0.0, 0.5)]
    for beta in [1e-3, 0.25, 1.0, 10.0, 100.0]
] + [(1.0, 0.0, 0.01), (10.0, 0.0, 0.01)]


class TestLocalIndex:
    @pytest.mark.parametrize("name", TABLE_FAMILIES)
    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0, 1e-3, 100.0])
    def test_nonnegative(self, name, beta):
        assert local_index(family_from_name(name), TuningParam(beta)) >= 0.0

    @pytest.mark.parametrize("beta,mu,s2", CONTAM_ORACLE_CASES)
    def test_contamination_oracle(self, beta, mu, s2):
        got = local_index(contamination(mu, s2), TuningParam(beta))
        oracle = contam_local_index_oracle(mu, s2, beta)
        assert got == pytest.approx(oracle, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("name", ["lehmann", "lp1", "lp2", "contam:1:1", "contam:0.5:1"])
    def test_small_beta_asymptote(self, name):
        # as beta -> 0, H(t) ~ -i t^3 kappa3' / 6 and the integral of
        # t^6 phi_beta is 15 beta^6; the next term is O(beta^2) relative
        fam = family_from_name(name)
        beta = 1e-3
        limit = 15.0 * beta**6 * kappa3_derivative(fam) ** 2 / 36.0
        assert local_index(fam, TuningParam(beta)) == pytest.approx(limit, rel=1e-5, abs=0.0)

    def test_small_beta_symmetric(self):
        # kappa3' = 0 for a symmetric contamination: delta_beta is O(beta^8)
        beta = 1e-3
        delta = local_index(family_from_name("contam:0:0.5"), TuningParam(beta))
        assert 0.0 < delta < 1e-6 * beta**6

    def test_stable_under_tightened_tolerances(self):
        fam = family_from_name("lehmann")
        for beta in (1e-3, 2.0, 100.0):
            tp = TuningParam(beta)
            assert local_index(fam, tp, CFG) == pytest.approx(
                local_index(fam, tp, TIGHT), rel=1e-10, abs=0.0
            )

    @pytest.mark.parametrize("name", ["contam:40:1", "contam:-30:2"])
    def test_alternative_beyond_radius_raises(self, name):
        # on [-12, 12] d1 is just -phi: it integrates to -1, not 0
        fam = family_from_name(name)
        with pytest.raises(QuadratureError, match=r"\[-12, 12\]"):
            local_index(fam, TuningParam(1.0))
        with pytest.raises(QuadratureError, match=r"\[-12, 12\]"):
            lrt_local_index(fam)

    def test_cutoff_budget_exhausted_raises(self):
        # a narrow bump keeps |H| large out to t ~ 30, beyond the cutoff
        # that the panel budget allows
        cfg = QuadratureConfig(max_subdivisions=128)
        with pytest.raises(QuadratureError, match="cutoff"):
            local_index(contamination(0.0, 0.01), TuningParam(10.0), cfg)

    def test_matches_brute_force_ratio(self):
        fam = lehmann()
        tp = TuningParam(1.0)
        delta = local_index(fam, tp, TIGHT)
        ratio = stochastic_limit(fam, 1e-3, tp, TIGHT) / 1e-6
        assert abs(ratio - delta) / delta < 5e-3

    def test_ratio_error_shrinks_linearly(self):
        fam = family_from_name("contam:0:0.5")
        tp = TuningParam(1.0)
        delta = local_index(fam, tp, TIGHT)
        err = [
            abs(stochastic_limit(fam, t, tp, TIGHT) / t**2 - delta)
            for t in (1e-2, 1e-3)
        ]
        assert err[1] < 0.3 * err[0]


class TestLrtLocalIndex:
    def test_zero_divergence_at_null(self):
        assert _kl_to_nearest_normal(family_from_name("lp1"), 0.0, CFG) == 0.0

    @pytest.mark.parametrize("name", TABLE_FAMILIES)
    def test_matches_projection_formula(self, name):
        fam = family_from_name(name)
        assert lrt_local_index(fam) == pytest.approx(lrt_projection_fixed_rule(fam), rel=1e-12)

    @pytest.mark.parametrize("mu,s2", [(1.0, 1.0), (0.5, 1.0), (0.0, 0.5), (2.0, 1.0), (0.0, 0.1)])
    def test_contamination_closed_form(self, mu, s2):
        got = lrt_local_index(contamination(mu, s2))
        assert got == pytest.approx(contam_lrt_closed_form(mu, s2), rel=1e-12)

    @pytest.mark.parametrize("name", TABLE_FAMILIES)
    def test_kl_brute_force_curve(self, name):
        fam = family_from_name(name)
        thetas = np.linspace(0.005, 0.03, 6)
        curve = np.array(
            [2.0 * _kl_to_nearest_normal(fam, float(t), TIGHT) / t**2 for t in thetas]
        )
        extrapolated = np.polynomial.polynomial.polyfit(thetas, curve, 3)[0]
        assert lrt_local_index(fam) == pytest.approx(extrapolated, rel=1e-2)

    @pytest.mark.parametrize("radius", [12.0, 30.0])
    def test_infinite_fisher_information_raises(self, radius):
        # contamination variance >= 2: d1^2/phi grows without bound
        cfg = QuadratureConfig(truncation_radius=radius)
        with pytest.raises(QuadratureError, match=f"-{radius:g}, {radius:g}") as excinfo:
            lrt_local_index(contamination(0.0, 3.0), cfg)
        assert excinfo.value.error_bound > excinfo.value.estimate * cfg.rel_tol

    def test_slowly_decaying_score_needs_a_wider_radius(self):
        # d1^2/phi decays like exp(-x^2/18) for variance 1.8
        fam = contamination(0.0, 1.8)
        with pytest.raises(QuadratureError, match="-12, 12"):
            lrt_local_index(fam, QuadratureConfig(truncation_radius=12.0))
        got = lrt_local_index(fam, QuadratureConfig(truncation_radius=30.0))
        assert got == pytest.approx(contam_lrt_closed_form(0.0, 1.8), rel=1e-12)

    def test_radius_beyond_density_underflow(self):
        # phi underflows to 0 beyond |x| ~ 38.5; the radius is capped below that
        fam = family_from_name("lehmann")
        wide = lrt_local_index(fam, QuadratureConfig(truncation_radius=40.0))
        assert wide == pytest.approx(lrt_local_index(fam), rel=1e-12)


class TestEfficiencyTable:
    def test_internal_consistency_and_protocol(self):
        table = efficiency_table(["lp2"], [1.0], n_points=300, runs=3, seed=5)
        assert table.delta_beta.shape == table.efficiencies.shape == (1, 1)
        assert table.lambda1.shape == table.lrt_index.shape == (1,)
        local = table.local_index[0, 0]
        assert local == pytest.approx(table.delta_beta[0, 0] / table.lambda1[0], rel=1e-14)
        assert table.efficiencies[0, 0] == pytest.approx(local / table.lrt_index[0], rel=1e-14)
        assert (table.n_points, table.runs, table.seed) == (300, 3, 5)
        assert table.families == ("lp2",)
        assert table.delta_beta[0, 0] >= 0.0
        assert 0.0 < table.efficiencies[0, 0] <= 1.05
