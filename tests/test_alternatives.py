"""Shared invariant suite for the alternative families plus
family-specific closed-form checks."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from eppspulley.alternatives import (
    TABLE_FAMILIES,
    contamination,
    family_from_name,
    lehmann,
    ley_paindaveine_1,
    ley_paindaveine_2,
)
from eppspulley.bahadur import local_index, lrt_local_index
from eppspulley.quadrature import QuadratureConfig, integrate_1d, normal_pdf
from eppspulley.statistic import TuningParam

ALL_INSTANCES = [family_from_name(name) for name in TABLE_FAMILIES]
CFG = QuadratureConfig()


def richardson_fd(density, x, h=1e-4):
    """Central first difference in theta at 0 with one Richardson step."""

    def fd(step):
        return (density(x, step) - density(x, -step)) / (2.0 * step)

    coarse = fd(2.0 * h)
    fine = fd(h)
    return (4.0 * fine - coarse) / 3.0


@pytest.mark.parametrize("family", ALL_INSTANCES, ids=lambda f: f.name)
class TestFamilyInvariants:
    def test_null_embedding_is_standard_normal(self, family):
        x = np.linspace(-8.0, 8.0, 81)
        assert np.max(np.abs(family.density(x, 0.0) - normal_pdf(x))) < 1e-12

    def test_density_normalizes_on_domain(self, family):
        lo, hi = family.theta_domain
        for theta in (0.8 * lo, 0.2 * lo, 0.0, 0.2 * hi, 0.8 * hi):
            res = integrate_1d(lambda x: family.density(x, theta), CFG)
            assert res.value == pytest.approx(1.0, abs=1e-8), f"theta={theta}"

    def test_derivatives_integrate_to_zero(self, family):
        assert integrate_1d(family.d1, CFG).value == pytest.approx(0.0, abs=1e-8)

    def test_d1_matches_finite_differences(self, family):
        x = np.array([-2.0, -1.0, 0.5, 2.0])
        assert np.max(np.abs(family.d1(x) - richardson_fd(family.density, x))) < 1e-6

    def test_null_moments(self, family):
        mean = integrate_1d(lambda x: x * family.density(x, 0.0), CFG).value
        second = integrate_1d(lambda x: np.square(x) * family.density(x, 0.0), CFG).value
        assert mean == pytest.approx(0.0, abs=1e-9)
        assert second == pytest.approx(1.0, abs=1e-9)


class TestLehmann:
    def test_d1_at_zero(self):
        fam = lehmann()
        expected = normal_pdf(0.0) * (1.0 + math.log(0.5))
        assert float(fam.d1(np.array([0.0]))[0]) == pytest.approx(expected, rel=1e-12)

    def test_far_left_tail_finite(self):
        fam = lehmann()
        x = np.array([-60.0, -45.0])
        assert np.all(np.isfinite(fam.d1(x)))
        assert np.all(np.isfinite(fam.density(x, 0.3)))

    @pytest.mark.parametrize("theta", [-0.85, -0.5])
    def test_far_left_tail_density(self, theta):
        # Phi(-45)^theta overflows at theta = -0.85 and phi(-45) underflows
        # to 0 at both; their product is a normal double
        with mpmath.workdps(40):
            x = mpmath.mpf(-45)
            ref = float((1 + theta) * mpmath.ncdf(x) ** theta * mpmath.npdf(x))
        assert ref > 1e-300
        assert float(lehmann().density(np.array([-45.0]), theta)[0]) == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestLeyPaindaveine1:
    def test_d1_zero_at_origin(self):
        fam = ley_paindaveine_1()
        assert float(fam.d1(np.array([0.0]))[0]) == pytest.approx(0.0, abs=1e-15)

    def test_d1_odd(self):
        fam = ley_paindaveine_1()
        x = np.linspace(0.1, 4.0, 25)
        assert np.max(np.abs(fam.d1(x) + fam.d1(-x))) < 1e-15


class TestLeyPaindaveine2:
    def test_d1_zero_at_origin(self):
        fam = ley_paindaveine_2()
        # cos(pi * Phi(0)) = cos(pi/2) = 0
        assert float(fam.d1(np.array([0.0]))[0]) == pytest.approx(0.0, abs=1e-15)


class TestContamination:
    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            contamination(0.0, 1.0)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            contamination(1.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            contamination(1.0, math.inf)

    def test_d1_value(self):
        fam = contamination(1.0, 1.0)
        expected = normal_pdf(-1.0) - normal_pdf(0.0)
        assert float(fam.d1(np.array([0.0]))[0]) == pytest.approx(expected, rel=1e-12)


class TestRegistry:
    def test_known_names(self):
        assert family_from_name("lehmann").name == "lehmann"
        assert family_from_name("lp1").name == "lp1"
        assert family_from_name("lp2").name == "lp2"
        fam = family_from_name("contam:0.5:1")
        assert fam.name == "contam:0.5:1"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            family_from_name("cauchy")

    def test_malformed_contamination(self):
        with pytest.raises(ValueError):
            family_from_name("contam:1")
        with pytest.raises(ValueError):
            family_from_name("contam:a:b")
        for name in ("contam:nan:1", "contam:1:inf"):
            with pytest.raises(ValueError, match="finite"):
                family_from_name(name)


class TestSecondDerivativeUnread:
    def test_indices_ignore_d2(self):
        # rebuild each family with a d2 that raises, as the benchmark
        # harness rebuilds it with a counting d2: the indices must not move
        def raising(x):
            raise AssertionError("d2 was evaluated")

        tp = TuningParam(1.0)
        for family in ALL_INSTANCES:
            rebuilt = dataclasses.replace(family, d2=raising)
            assert family.d2 is None
            assert lrt_local_index(rebuilt) == lrt_local_index(family), family.name
            assert local_index(rebuilt, tp) == local_index(family, tp), family.name
