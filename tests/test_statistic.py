"""Statistic tests: closed form vs the defining integral, invariances,
and degeneracy handling."""

import math

import numpy as np
import pytest

from eppspulley import backend
from eppspulley.quadrature import QuadratureConfig, integrate_1d
from eppspulley.statistic import (
    DegenerateSampleError,
    Sample,
    TuningParam,
    epps_pulley_statistic,
    scaled_residuals,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def ecf_distance_oracle(values, beta, radius=40.0):
    """n times the weighted squared L2 distance between the empirical
    characteristic function of the scaled residuals and exp(-t^2/2),
    by direct numerical integration of the defining integrand."""
    y = scaled_residuals(Sample(values))
    n = y.size
    cfg = QuadratureConfig(truncation_radius=radius, abs_tol=1e-12, rel_tol=1e-12,
                           max_subdivisions=4000)

    def integrand(t):
        ty = np.outer(t, y)
        real = np.cos(ty).mean(axis=1) - np.exp(-0.5 * np.square(t))
        imag = np.sin(ty).mean(axis=1)
        weight = np.exp(-0.5 * np.square(t / beta)) / (beta * SQRT_2PI)
        return n * (np.square(real) + np.square(imag)) * weight

    return integrate_1d(integrand, cfg).value


class TestTuningParam:
    def test_derived_constants(self):
        tp = TuningParam(2.0)
        assert tp.gamma == pytest.approx(2.0, abs=1e-15)
        assert tp.delta == pytest.approx(0.4, abs=1e-15)
        assert 0.0 < tp.delta < 0.5

    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0, 3.0, 10.0])
    def test_recompute_matches(self, beta):
        tp = TuningParam(beta)
        assert tp.gamma == pytest.approx(beta**2 / 2.0, abs=1e-15)
        assert tp.delta == pytest.approx(beta**2 / (2.0 * (1.0 + beta**2)), abs=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_beta(self, bad):
        with pytest.raises(ValueError):
            TuningParam(bad)


class TestSample:
    def test_moment_definitions(self):
        values = [1.0, 2.0, 4.0, 8.0]
        s = Sample(values)
        mean = math.fsum(values) / 4.0
        var = math.fsum((v - mean) ** 2 for v in values) / 4.0
        assert s.mean == pytest.approx(mean, rel=1e-12)
        assert s.variance_ml == pytest.approx(var, rel=1e-12)

    def test_constant_sample_rejected(self):
        with pytest.raises(DegenerateSampleError, match="degenerate"):
            Sample([5.0, 5.0, 5.0])

    def test_single_value_rejected(self):
        with pytest.raises(DegenerateSampleError):
            Sample([1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Sample([1.0, float("nan"), 2.0])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            Sample(np.ones((2, 2)))

    def test_values_frozen(self):
        s = Sample([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            s.values[0] = 99.0


class TestScaledResiduals:
    def test_symmetric_triple(self):
        got = scaled_residuals(Sample([-1.0, 0.0, 1.0]))
        root = math.sqrt(1.5)
        assert got == pytest.approx([-root, 0.0, root], abs=1e-14)

    def test_standardization(self):
        got = scaled_residuals(Sample([1.0, 2.0, 4.0, 8.0]))
        assert abs(got.mean()) < 1e-10
        assert abs(np.mean(np.square(got - got.mean())) - 1.0) < 1e-10


class TestStatistic:
    def test_triple_matches_defining_integral(self):
        closed = epps_pulley_statistic(Sample([-1.0, 0.0, 1.0]), TuningParam(1.0))
        assert closed == pytest.approx(ecf_distance_oracle([-1.0, 0.0, 1.0], 1.0), abs=1e-8)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_random_samples_match_defining_integral(self, beta):
        rng = np.random.default_rng(1234)
        for _ in range(5):
            values = rng.normal(2.0, 3.0, size=int(rng.integers(3, 21)))
            closed = epps_pulley_statistic(Sample(values), TuningParam(beta))
            assert closed == pytest.approx(ecf_distance_oracle(values, beta), abs=1e-8)

    def test_affine_invariance(self):
        rng = np.random.default_rng(99)
        values = rng.normal(size=100)
        tp = TuningParam(1.0)
        base = epps_pulley_statistic(Sample(values), tp)
        for _ in range(20):
            a = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
            b = rng.uniform(-10.0, 10.0)
            assert epps_pulley_statistic(Sample(a * values + b), tp) == pytest.approx(
                base, abs=1e-10
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=500)
        tp = TuningParam(1.0)
        base = epps_pulley_statistic(Sample(values), tp)
        for _ in range(5):
            shuffled = rng.permutation(values)
            got = epps_pulley_statistic(Sample(shuffled), tp)
            assert abs(got - base) <= 1e-12 * max(1.0, base)

    @pytest.mark.parametrize("beta", [0.25, 1.0, 5.0])
    def test_nonnegative(self, beta):
        rng = np.random.default_rng(11)
        tp = TuningParam(beta)
        for _ in range(20):
            values = rng.standard_t(df=3, size=int(rng.integers(2, 200)))
            assert epps_pulley_statistic(Sample(values), tp) >= 0.0

    @staticmethod
    def _pair_sum_giving(target):
        """Stand-in pair sum that makes the closed form equal target * n."""

        def pair_sum(y, gamma):
            n, beta2 = y.size, 2.0 * gamma
            single = float(np.sum(np.exp(-gamma / (1.0 + beta2) * np.square(y))))
            rest = -2.0 / math.sqrt(1.0 + beta2) * single + n / math.sqrt(1.0 + 2.0 * beta2)
            return n * (target * n - rest)

        return pair_sum

    def test_cancellation_noise_clamped_to_zero(self, monkeypatch):
        monkeypatch.setattr(backend, "pairwise_gauss_sum", self._pair_sum_giving(-1e-12))
        assert epps_pulley_statistic(Sample([1.0, 2.0, 4.0, 8.0]), TuningParam(1.0)) == 0.0

    def test_clearly_negative_value_raises(self, monkeypatch):
        monkeypatch.setattr(backend, "pairwise_gauss_sum", self._pair_sum_giving(-1e-6))
        with pytest.raises(ArithmeticError, match="expected >= 0"):
            epps_pulley_statistic(Sample([1.0, 2.0, 4.0, 8.0]), TuningParam(1.0))

    def test_degenerate_sample_raises(self):
        with pytest.raises(DegenerateSampleError):
            epps_pulley_statistic(Sample([1.0, 1.0 + 1e-300, 1.0]), TuningParam(1.0))

    def test_large_normal_sample_below_simulated_null_quantile(self):
        # null 99.9% quantile simulated at n=256 (the null law of T is
        # essentially n-free at these sizes); the n=1e4 draw should sit
        # far below it
        tp = TuningParam(1.0)
        rng = np.random.default_rng(2024)
        null = np.empty(4000)
        for i in range(null.size):
            null[i] = epps_pulley_statistic(Sample(rng.standard_normal(256)), tp)
        q999 = float(np.quantile(null, 0.999))
        stat = epps_pulley_statistic(Sample(rng.standard_normal(10_000)), tp)
        assert stat < q999
