"""Slope machinery tests.

Oracles used here:
  * stochastic_limit vs coupled Monte-Carlo estimates of the defining
    expectations (exact samplers: inverse CDF for the Lehmann family,
    mixture representation for contamination);
  * stochastic_limit vs a fully closed-form evaluation for
    contamination (all integrals are Gaussian);
  * the local index vs the brute-force ratio b(theta)/theta^2, vs a
    40-digit mpmath quadrature of the closed-form |H(t)|^2 phi_beta(t)
    for contamination, vs its small-beta asymptote
    15 beta^6 kappa3'^2 / 36, vs the same integral of |H(t)|^2 on the
    quadrature engine for every table cell, vs the dense pair sum (in
    extended precision near the split to the series), vs the sum over
    all panel lags, and vs itself on the rule with every panel halved;
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
from eppspulley.cli import DEFAULT_BETAS
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
    panel_rule,
)
from eppspulley.spectral import lambda1, truncation
from eppspulley.statistic import TuningParam

CFG = QuadratureConfig()
TIGHT = QuadratureConfig(tol=1e-12)


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

    @pytest.mark.parametrize("beta,mu,s2", [case for case in CONTAM_ORACLE_CASES if case[0] <= 0.25])
    def test_series_keeps_full_accuracy(self, beta, mu, s2):
        # contam:0:0.5 has kappa3' = 0, so its series starts from the
        # k = 0 term, where e^u - 1 - u cancels to u^2/2 at small beta
        got = local_index(contamination(mu, s2), TuningParam(beta))
        oracle = contam_local_index_oracle(mu, s2, beta)
        assert got == pytest.approx(oracle, rel=1e-14, abs=0.0)

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

    def test_panel_budget_exhausted_raises(self):
        # beta times the panel half-width 12 / P is at most 3 at P = 40
        cfg = QuadratureConfig(max_subdivisions=39)
        with pytest.raises(QuadratureError, match="beta=10 needs 40 panels"):
            local_index(lehmann(), TuningParam(10.0), cfg)
        assert local_index(lehmann(), TuningParam(10.0), QuadratureConfig(max_subdivisions=40)) > 0

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
        assert excinfo.value.error_bound > excinfo.value.estimate * cfg.tol

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
        table = efficiency_table(["lp2"], [1.0, 2.0])
        assert table.delta_beta.shape == table.efficiencies.shape == (1, 2)
        assert table.lambda1.shape == (2,) and table.lrt_index.shape == (1,)
        local = table.local_index[0, 0]
        assert local == pytest.approx(table.delta_beta[0, 0] / table.lambda1[0], rel=1e-14)
        assert table.efficiencies[0, 0] == pytest.approx(local / table.lrt_index[0], rel=1e-14)
        # lambda1 is the operator's, with its route, basis size and bound
        assert table.lambda1.tolist() == [lambda1(TuningParam(b)) for b in (1.0, 2.0)]
        assert table.truncations == (truncation(TuningParam(1.0)), truncation(TuningParam(2.0)))
        assert [t.method for t in table.truncations] == ["gram", "mehler"]
        assert table.families == ("lp2",)
        assert table.delta_beta[0, 0] >= 0.0
        assert 0.0 < table.efficiencies[0, 0] <= 1.05

    def test_efficiencies_at_small_beta_respect_the_lrt_bound(self):
        table = efficiency_table(TABLE_FAMILIES, [1e-3])
        assert np.all(table.efficiencies <= 1.0), table.efficiencies.ravel()

    def test_efficiencies_at_small_beta_reach_their_limit(self):
        # delta_beta -> 15 beta^6 kappa3'^2 / 36 and lambda1 -> 15 beta^6 / 6,
        # so the efficiency tends to kappa3'^2 / (6 lrt); both corrections
        # are O(beta^2) relative
        names = ["lehmann", "lp1", "lp2", "contam:1:1", "contam:0.5:1"]
        table = efficiency_table(names, [1e-3])
        for name, row, lrt in zip(names, table.efficiencies, table.lrt_index):
            limit = kappa3_derivative(family_from_name(name)) ** 2 / (6.0 * lrt)
            assert row[0] == pytest.approx(limit, rel=1e-4, abs=0.0), name

    def test_cells_equal_local_index_exactly(self):
        # the lp2 and contam:1:1 rows share the cutoff 3P/R across their
        # betas, and lp2 at beta >= 3 and contam:1:1 at beta >= 0.75 double
        # P, so later cells reuse the transforms of the row's first cells
        rows = [
            (["lehmann", "contam:1:1"], [0.5, 3.0]),
            (["lp2"], [2.0, 3.0, 5.0, 10.0]),
            (["contam:1:1"], [0.5, 0.75, 1.0]),
        ]
        for names, betas in rows:
            table = efficiency_table(names, betas)
            for i, name in enumerate(names):
                for j, beta in enumerate(betas):
                    cell = local_index(family_from_name(name), TuningParam(beta))
                    assert table.delta_beta[i, j] == cell, (name, beta)

    def test_cells_equal_local_index_exactly_beyond_the_fisher_radius(self):
        # at R = 40 the Fisher integral runs on [-37, 37], and both
        # indices share the moments on [-40, 40]
        cfg = QuadratureConfig(truncation_radius=40.0)
        betas = [0.25, 1.0, 10.0]
        table = efficiency_table(TABLE_FAMILIES, betas, cfg=cfg)
        for i, name in enumerate(TABLE_FAMILIES):
            for j, beta in enumerate(betas):
                cell = local_index(family_from_name(name), TuningParam(beta), cfg)
                assert table.delta_beta[i, j] == cell, (name, beta)

    def test_weights_are_built_once_per_family_and_panel_count(self, monkeypatch):
        # the moments check the rule at P0 once per family, and the
        # local index builds v at P = max(P0, ceil(4 beta)) once per
        # family and P: 6 + 14 rules on the paper grid, against 6 + 48
        # built cell by cell
        calls = []

        def recording(family, cfg, panels):
            calls.append((family.name, panels))
            return weighted_score(family, cfg, panels)

        expected = []
        for name in TABLE_FAMILIES:
            first = bahadur._score_moments(family_from_name(name), CFG)[2]
            expected.append((name, first))
            expected += {(name, max(first, math.ceil(4.0 * b))) for b in DEFAULT_BETAS}
        weighted_score = bahadur._weighted_score
        monkeypatch.setattr(bahadur, "_weighted_score", recording)
        efficiency_table(TABLE_FAMILIES, DEFAULT_BETAS)
        assert sorted(calls) == sorted(expected)
        assert len(calls) == 20

    @pytest.mark.parametrize("radius, per_family", [(12.0, 1), (37.0, 1), (40.0, 1)])
    def test_moments_are_integrated_once_per_family(self, monkeypatch, radius, per_family):
        # only the Fisher integral runs on min(R, 37): at every R the LRT
        # index shares mu1 and sigma1 on [-R, R] with the local index
        calls = []

        def counting(f, cfg):
            calls.append(cfg.truncation_radius)
            return two_moments(f, cfg)

        two_moments = bahadur._two_moments
        cfg = QuadratureConfig(truncation_radius=radius)
        names = ["lehmann", "lp2", "contam:1:1"]
        plain = [lrt_local_index(family_from_name(name), cfg) for name in names]
        monkeypatch.setattr(bahadur, "_two_moments", counting)
        table = efficiency_table(names, [0.5, 3.0], cfg=cfg)
        assert len(calls) == per_family * len(names)
        assert set(calls) == {radius}
        assert table.lrt_index.tolist() == plain


def bracket_of_iu(u):
    """B(iu) = e^{iu} - 1 - iu + u^2/2 for real u: its Taylor series
    sum of (iu)^n / n!, n = 3..18, for |u| < 1, where the direct form
    cancels, and the direct form elsewhere."""
    z = 1j * u
    series = np.full(u.shape, 1.0 / math.factorial(18), dtype=complex)
    for n in range(17, 2, -1):
        series = series * z + 1.0 / math.factorial(n)
    return np.where(np.abs(u) < 1.0, series * z**3, np.exp(z) - 1.0 - z + 0.5 * np.square(u))


def full_rule_score_transform(t, x, wd1, mu1, sigma1):
    """H(t) = sum of B(itx) w d1(x) + t E (i mu1 - sigma1 t / 2) over the
    whole rule (x, wd1), with E = 1 - exp(-t^2/2), in complex arithmetic
    and row blocks of the (t, x) matrix."""
    blocks = np.array_split(t, max(1, t.size * x.size // 2**18))
    h = np.concatenate([bracket_of_iu(np.multiply.outer(rows, x)) @ wd1 for rows in blocks])
    return h + t * -np.expm1(-0.5 * np.square(t)) * (1j * mu1 - 0.5 * sigma1 * t)


def fourier_local_index(family, beta, cfg=CFG):
    """delta_beta as the frequency-domain integral of |H(t)|^2 phi_beta(t),
    with H summed over the engine's K15 x-rule with P panels
    (full_rule_score_transform), and integrated by integrate_1d over
    [0, T] and doubled for t < 0.  T = min(R beta, 3P/R), so e^{itx}
    turns by at most 3 radians over a panel half-width; while T < R beta
    and the edge term |H(T)|^2 phi_beta(T) T exceeds tol *
    delta_beta, P doubles.  Every term of H is O(t^3), so nothing
    cancels at any beta."""
    mu1, sigma1, panels = bahadur._score_moments(family, cfg)
    r = cfg.truncation_radius
    while True:
        x, _, wd1 = bahadur._weighted_score(family, cfg, panels)
        cutoff = min(r * beta, 3.0 * panels / r)
        scale = cutoff / r

        def weighted_square(u):
            t = (u + r) * (0.5 * scale)
            h = full_rule_score_transform(t, x, wd1, mu1, sigma1)
            return scale * np.abs(h) ** 2 * normal_pdf(t / beta) / beta

        value = integrate_1d(weighted_square, cfg).value
        if cutoff >= r * beta:
            return value
        if float(weighted_square(np.array([r]))[0]) * r <= cfg.tol * value:
            return value
        panels *= 2
        assert panels <= cfg.max_subdivisions, (family.name, beta)


TABLE_CELLS = [(name, beta) for name in TABLE_FAMILIES for beta in DEFAULT_BETAS]


class TestQuadraticForm:
    @pytest.mark.parametrize("name, beta", TABLE_CELLS)
    def test_matches_fourier_route_on_table(self, name, beta):
        fam = family_from_name(name)
        got = local_index(fam, TuningParam(beta))
        assert got == pytest.approx(fourier_local_index(fam, beta), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("beta,mu,s2", CONTAM_ORACLE_CASES)
    def test_matches_fourier_route_on_contamination(self, beta, mu, s2):
        fam = contamination(mu, s2)
        got = local_index(fam, TuningParam(beta))
        assert got == pytest.approx(fourier_local_index(fam, beta), rel=1e-11, abs=0.0)

    def test_halving_every_panel(self, monkeypatch):
        cells = [local_index(family_from_name(n), TuningParam(b)) for n, b in TABLE_CELLS]
        monkeypatch.setattr(bahadur, "panel_rule", lambda r, panels: panel_rule(r, 2 * panels))
        for (name, beta), cell in zip(TABLE_CELLS, cells):
            fine = local_index(family_from_name(name), TuningParam(beta))
            assert fine == pytest.approx(cell, rel=1e-13, abs=0.0), (name, beta)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="no extended precision")
    def test_matches_dense_pair_sum_at_twice_the_panels(self, monkeypatch):
        # v^T G v accumulated in extended precision: in float64 the sum
        # cancels to about 1e-10 relative at beta = 0.25
        rules = []

        def recording(r, panels):
            rules.append(panel_rule(r, 2 * panels))
            return panel_rule(r, panels)

        for name, beta in TABLE_CELLS:
            fam = family_from_name(name)
            mu1, sigma1, _ = bahadur._score_moments(fam, CFG)
            monkeypatch.setattr(bahadur, "panel_rule", recording)
            cell = local_index(fam, TuningParam(beta))
            monkeypatch.undo()
            x, w = rules.pop()
            v = w * (fam.d1(x) - normal_pdf(x) * (mu1 * x + 0.5 * sigma1 * (x * x - 1.0)))
            gauss = np.exp(-0.5 * beta * beta * np.square(x[:, None] - x[None, :]))
            v = v.astype(np.longdouble)
            dense = float(v @ (gauss.astype(np.longdouble) @ v))
            assert cell == pytest.approx(dense, rel=1e-13, abs=0.0), (name, beta)

    @pytest.mark.parametrize("radius", [12.0, 37.0])
    def test_series_and_fast_gauss_transform_agree_at_the_split(self, radius):
        # just above the split, where the sum over panel lags takes over,
        # the pair sum cancels like beta^-6
        cfg = QuadratureConfig(truncation_radius=radius)
        for name in TABLE_FAMILIES:
            fam = family_from_name(name)
            tp = TuningParam(bahadur._SERIES_BETA)
            below = local_index(fam, tp, cfg)
            x, v, half, _ = score_form(fam, cfg, tp.beta)
            above = lag_form(v, half, tp.gamma, bahadur._lag_count(tp.gamma, half, x.size // 15))
            assert above == pytest.approx(below, rel=1e-11, abs=0.0), name

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="no extended precision")
    @pytest.mark.parametrize("radius", [12.0, 37.0])
    @pytest.mark.parametrize("beta", [0.26, 0.3, 0.4, 0.5])
    def test_lag_form_matches_the_dense_sum_near_the_split(self, beta, radius):
        # the dense sum cancels like beta^-6 here, so it runs in extended
        # precision on the same nodes
        cfg = QuadratureConfig(truncation_radius=radius)
        tp = TuningParam(beta)
        for name in TABLE_FAMILIES:
            fam = family_from_name(name)
            x, v, _, _ = score_form(fam, cfg, beta)
            dense = extended_pair_sum(x, v, tp.gamma)
            got = local_index(fam, tp, cfg)
            assert got == pytest.approx(dense, rel=1e-13, abs=0.0), name

    @pytest.mark.parametrize("beta", [10.0, 100.0])
    def test_dropped_lags_are_negligible(self, beta):
        # the lags past D hold only pairs more than 6.5 / sqrt(gamma) apart
        tp = TuningParam(beta)
        for name in TABLE_FAMILIES:
            fam = family_from_name(name)
            x, v, half, products = score_form(fam, CFG, beta)
            panels = x.size // 15
            assert products.shape[0] < panels // 8, name
            cut = lag_form(v, half, tp.gamma, products.shape[0])
            full = lag_form(v, half, tp.gamma, panels)
            assert cut == local_index(fam, tp)
            assert cut == pytest.approx(full, rel=1e-15, abs=0.0), name

    def test_lag_products_do_not_depend_on_how_many_are_built(self):
        v = np.random.default_rng(5).standard_normal(15 * 40)
        many = bahadur._lag_products(v, 40)
        for lags in (1, 3, 17):
            assert bahadur._lag_products(v, lags).tobytes() == many[:lags].tobytes()


def score_form(fam, cfg, beta):
    """x, v, the panel half-width and the lag products of local_index at beta."""
    moments = bahadur._score_moments(fam, cfg)
    panels = bahadur._panel_count(fam, beta, cfg, moments[2])
    return bahadur._score_form(fam, cfg, moments, panels, [TuningParam(beta)])


def lag_form(v, half, gamma, lags):
    """The sum over the first lags panel lags of v^T G v."""
    return bahadur._lag_form(bahadur._lag_products(v, lags), half, gamma)


def extended_pair_sum(x, v, gamma):
    """v^T G v with G[i, j] = exp(-gamma (x_i - x_j)^2), every operation in
    extended precision, in row blocks of 256."""
    x = x.astype(np.longdouble)
    v = v.astype(np.longdouble)
    total = np.longdouble(0.0)
    for start in range(0, x.size, 256):
        rows = slice(start, start + 256)
        gauss = np.exp(-np.longdouble(gamma) * np.square(x[rows, None] - x[None, :]))
        total += v[rows] @ (gauss @ v)
    return float(total)


class TestScoreTransform:
    """H(t) is the Fourier transform of the perturbation h whose pair sum
    the local index takes, so the transform of the weights v = w h(x) of
    the quadratic form is H summed over the rule."""

    @pytest.mark.parametrize("radius", [12.0, 37.0])
    def test_panel_rule_is_symmetric(self, radius):
        for panels in range(4, 1025):
            x, w = panel_rule(radius, panels)
            assert np.array_equal(x, -x[::-1]), panels
            assert np.array_equal(w, w[::-1]), panels
            assert panels % 2 == 1 or np.all(x != 0.0), panels

    @pytest.mark.parametrize("panels", [16, 64])
    @pytest.mark.parametrize("name", ["lehmann", "lp2", "contam:1:1", "contam:0:0.5"])
    def test_matches_full_rule_oracle(self, name, panels):
        fam = family_from_name(name)
        moments = bahadur._score_moments(fam, CFG)
        mu1, sigma1, _ = moments
        x, v = bahadur._score_weights(fam, CFG, moments, panels)
        _, _, wd1 = bahadur._weighted_score(fam, CFG, panels)
        # t x = 1 at t = 1/x, where B switches between series and direct form
        crossing = 1.0 / x[x > 0.25][::23]
        t = np.sort(np.concatenate([
            np.geomspace(1e-8, 4.0, 200),
            crossing,
            np.nextafter(crossing, 0.0),
            np.nextafter(crossing, np.inf),
        ]))
        oracle = full_rule_score_transform(t, x, wd1, mu1, sigma1)
        got = np.exp(1j * np.multiply.outer(t, x)) @ v
        # the transform of v cancels terms of size |v| down to |H|
        assert np.all(np.abs(got - oracle) <= 1e-13 * np.sum(np.abs(v)))
