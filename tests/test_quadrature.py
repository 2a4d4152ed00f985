"""Quadrature engine and closed-form Gaussian identity tests."""

import math

import numpy as np
import pytest

from eppspulley.quadrature import (
    QuadratureConfig,
    QuadratureError,
    gaussian_pair_moment,
    integrate_1d,
    integrate_2d,
    log_normal_cdf,
    normal_pdf,
    smoothed_density_identity,
    smoothed_second_moment_identity,
)

BETA_GRID = (0.25, 0.5, 1.0, 2.0, 5.0, 10.0)


def gamma_of(beta):
    return 0.5 * beta * beta


def delta_of(beta):
    return 0.5 * beta * beta / (1.0 + beta * beta)


class TestIntegrate1d:
    def test_normal_density_normalizes(self):
        res = integrate_1d(normal_pdf)
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert res.error < 1e-8

    def test_normal_second_moment(self):
        res = integrate_1d(lambda x: np.square(x) * normal_pdf(x))
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_times_density_closed_form(self):
        # exp(-delta x^2) against phi integrates to (1+2*delta)^(-1/2);
        # beta = 1 gives delta = 1/4 and the value 1/sqrt(1.5)
        res = integrate_1d(lambda x: np.exp(-0.25 * np.square(x)) * normal_pdf(x))
        assert res.value == pytest.approx(0.816496580927726, abs=1e-10)

    def test_error_estimate_is_a_bound(self):
        res = integrate_1d(normal_pdf)
        assert abs(res.value - 1.0) <= max(res.error, 1e-12)

    def test_doubling_radius_changes_nothing(self):
        base = integrate_1d(normal_pdf, QuadratureConfig(truncation_radius=12.0))
        wide = integrate_1d(normal_pdf, QuadratureConfig(truncation_radius=24.0))
        assert abs(base.value - wide.value) < 1e-12

    def test_nonconvergence_carries_best_estimate(self):
        cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=5)
        with pytest.raises(QuadratureError) as excinfo:
            integrate_1d(lambda x: np.cos(50.0 * x) ** 2 * normal_pdf(x), cfg)
        assert excinfo.value.estimate is not None
        assert excinfo.value.error_bound > 0.0

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(QuadratureError):
            integrate_1d(lambda x: np.full_like(x, np.nan))

    def test_tolerance_below_roundoff_floor_raises_early(self):
        # the floor 10 eps * integral(|f|) is 2.2e-15 here; refining to the
        # panel budget would evaluate 15 * (4 + 8 + ... + 1024) = 30660 points
        points = []

        def f(x):
            points.append(x.size)
            return normal_pdf(x)

        with pytest.raises(QuadratureError, match="roundoff floor") as excinfo:
            integrate_1d(f, QuadratureConfig(abs_tol=1e-17, rel_tol=1e-17))
        assert sum(points) < 3066
        assert excinfo.value.estimate == pytest.approx(1.0, abs=1e-14)
        assert excinfo.value.error_bound < 1e-14

    def test_deterministic(self):
        f = lambda x: np.exp(-0.3 * np.square(x)) * np.cos(x)
        assert integrate_1d(f).value == integrate_1d(f).value

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: normal_pdf(x)[:-1])


class TestIntegrate2d:
    def test_product_density_normalizes(self):
        res = integrate_2d(lambda x, y: normal_pdf(x) * normal_pdf(y))
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_pair_moment_k0(self):
        res = integrate_2d(
            lambda x, y: np.exp(-0.5 * np.square(x - y)) * normal_pdf(x) * normal_pdf(y)
        )
        assert res.value == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)

    def test_pair_moment_k1(self):
        res = integrate_2d(
            lambda x, y: np.exp(-0.5 * np.square(x - y))
            * np.square(x - y)
            * normal_pdf(x)
            * normal_pdf(y)
        )
        assert res.value == pytest.approx(2.0 / 3.0**1.5, abs=1e-9)

    def test_error_estimate_is_a_bound(self):
        res = integrate_2d(
            lambda x, y: np.exp(-2.0 * np.square(x - y)) * normal_pdf(x) * normal_pdf(y)
        )
        assert abs(res.value - gaussian_pair_moment(0, 2.0)) <= max(res.error, 1e-15)

    def test_nonconvergence_carries_best_estimate(self):
        cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=5)
        with pytest.raises(QuadratureError) as excinfo:
            integrate_2d(
                lambda x, y: np.cos(50.0 * (x - y)) ** 2 * normal_pdf(x) * normal_pdf(y), cfg
            )
        assert excinfo.value.estimate is not None
        assert excinfo.value.error_bound > 0.0

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(QuadratureError):
            integrate_2d(lambda x, y: np.full(np.broadcast(x, y).shape, np.nan))

    def test_tolerance_below_roundoff_floor_raises_early(self):
        # refining to the panel budget would evaluate
        # 225 * (4^2 + 8^2 + ... + 1024^2) = 314571600 points
        points = []

        def f(x, y):
            points.append(np.broadcast(x, y).size)
            return normal_pdf(x) * normal_pdf(y)

        with pytest.raises(QuadratureError, match="roundoff floor") as excinfo:
            integrate_2d(f, QuadratureConfig(abs_tol=1e-17, rel_tol=1e-17))
        assert sum(points) < 31457160
        assert excinfo.value.estimate == pytest.approx(1.0, abs=1e-14)

    def test_non_broadcasting_integrand_rejected(self):
        # an integrand that ignores y returns one column per row
        with pytest.raises(ValueError):
            integrate_2d(lambda x, y: normal_pdf(x))

    def test_deterministic(self):
        f = lambda x, y: np.exp(-0.3 * np.square(x - y)) * np.cos(x) * normal_pdf(y)
        assert integrate_2d(f) == integrate_2d(f)


class TestClosedForms:
    def test_pair_moment_k0_literal(self):
        assert gaussian_pair_moment(0, 0.5) == pytest.approx(0.5773502691896258, rel=1e-14)

    def test_pair_moment_k1_literal(self):
        # 4 * Gamma(3/2) / (sqrt(pi) * 3^(3/2)) = 2 / 3^(3/2)
        assert gaussian_pair_moment(1, 0.5) == pytest.approx(0.3849001794597505, rel=1e-14)

    def test_pair_moment_bad_k(self):
        with pytest.raises(ValueError):
            gaussian_pair_moment(3, 0.5)

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_pair_moment_matches_quadrature(self, k, beta):
        gamma = gamma_of(beta)
        res = integrate_2d(
            lambda x, y: np.exp(-gamma * np.square(x - y))
            * (x - y) ** (2 * k)
            * normal_pdf(x)
            * normal_pdf(y),
            QuadratureConfig(),
        )
        assert res.value == pytest.approx(gaussian_pair_moment(k, gamma), abs=1e-8)

    def test_smoothed_density_literals(self):
        assert smoothed_density_identity(0.0, 0.5) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
        assert smoothed_density_identity(1.0, 0.5) == pytest.approx(0.5506953149031837, rel=1e-12)
        # beta = 0.5: gamma = 1/8, delta = 1/10
        assert smoothed_density_identity(2.0, 0.125) == pytest.approx(
            math.exp(-0.4) / math.sqrt(1.25), rel=1e-12
        )

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_smoothed_density_matches_quadrature(self, beta):
        gamma = gamma_of(beta)
        cfg = QuadratureConfig()
        for y in range(-3, 4):
            res = integrate_1d(lambda x: np.exp(-gamma * np.square(x - y)) * normal_pdf(x), cfg)
            assert res.value == pytest.approx(
                float(smoothed_density_identity(float(y), gamma)), abs=1e-9
            )

    @pytest.mark.parametrize("beta", (0.5, 1.0, 2.0))
    def test_smoothed_second_moment_matches_quadrature(self, beta):
        gamma = gamma_of(beta)
        cfg = QuadratureConfig()
        for x in range(-3, 4):
            res = integrate_1d(
                lambda y: np.exp(-gamma * np.square(x - y)) * np.square(x - y) * normal_pdf(y),
                cfg,
            )
            assert res.value == pytest.approx(
                float(smoothed_second_moment_identity(float(x), gamma)), abs=1e-8
            )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(truncation_radius=4.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=0)
        for field in ("truncation_radius", "abs_tol", "rel_tol"):
            with pytest.raises(ValueError, match="finite"):
                QuadratureConfig(**{field: math.inf})


class TestGaussHelpers:
    def test_log_cdf_deep_left_tail(self):
        # plain log(Phi(x)) underflows below x ~ -37; the safe version
        # tracks the quadratic decay
        x = -50.0
        assert np.isfinite(log_normal_cdf(x))
        assert log_normal_cdf(x) == pytest.approx(-0.5 * x * x - math.log(-x * math.sqrt(2 * math.pi)), rel=1e-3)
