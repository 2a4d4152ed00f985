"""Kernel, Nystrom spectrum, operator trace and p-value sampling tests."""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from eppspulley import backend
from eppspulley.quadrature import QuadratureConfig, integrate_1d, normal_pdf
from eppspulley.spectral import (
    _MC_CHUNK,
    RTOL,
    kernel,
    lambda1,
    null_pvalue,
    nystrom_spectrum,
    operator_trace,
)
from eppspulley.statistic import TuningParam


def _kernel_decimal(s: float, t: float) -> float:
    """K(s, t) at 50 significant digits from the exact values of s and t."""
    with localcontext() as ctx:
        ctx.prec = 50
        s, t = Decimal(s), Decimal(t)
        x = s * t
        damp = (-(s * s + t * t) / 2).exp()
        return float((-(s - t) ** 2 / 2).exp() - (1 + x + x * x / 2) * damp)


def _trace_decimal(beta: float) -> float:
    """Closed-form operator trace at 60 significant digits from the
    exact value of beta; the O(1) terms cancel to O(beta^6), which
    leaves over 40 digits at beta = 1e-3."""
    with localcontext() as ctx:
        ctx.prec = 60
        b2 = Decimal(beta) ** 2
        s = 1 + 2 * b2
        root = s.sqrt()
        return float(1 - 1 / root - b2 / (s * root) - Decimal("1.5") * b2 * b2 / (s * s * root))


def _trace_quadrature(beta: float, cfg: QuadratureConfig) -> float:
    """Operator trace as the integral of K(t, t) against the Gaussian
    weight on the K15 panel engine.  Substituting t = beta*u keeps the
    integrand in standard units; its feature of width about 1/beta needs
    more panels than the default budget at beta = 100."""

    def integrand(u):
        t = beta * u
        return kernel(t, t) * normal_pdf(u)

    return integrate_1d(integrand, cfg).value


def _run_nodes(beta: float, n_points: int, seed: int) -> np.ndarray:
    """Nodes of the first run of nystrom_spectrum(TuningParam(beta),
    n_points, runs, seed)."""
    child = np.random.SeedSequence(seed).spawn(1)[0]
    return beta * np.random.default_rng(child).standard_normal(n_points)


def _kernel_diag_trace(tp: TuningParam, n_points: int, seed: int) -> float:
    """Plain Monte-Carlo trace estimate (kernel diagonal only), cheap at
    large n_points because no matrix is formed."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))
    y = tp.beta * rng.standard_normal(int(n_points))
    return float(np.mean(kernel(y, y)))


class TestKernel:
    def test_zero_at_origin(self):
        assert float(kernel(0.0, 0.0)) == 0.0

    def test_value_at_one_minus_one(self):
        # exp(-2) - 0.5*exp(-1)
        expected = math.exp(-2.0) - 0.5 * math.exp(-1.0)
        assert float(kernel(1.0, -1.0)) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(-0.0486044374, abs=1e-9)

    def test_relative_accuracy_against_decimal_oracle(self):
        # |s*t| from 1e-8 to 30 on both signs and three aspect ratios; the
        # direct form loses everything below |s*t| ~ 1e-5
        worst = 0.0
        for x in np.logspace(-8.0, math.log10(30.0), 41):
            for ratio in (1.0, 2.0, 3.0):
                t = math.sqrt(x / ratio)
                for s in (ratio * t, -ratio * t):
                    exact = _kernel_decimal(s, t)
                    worst = max(worst, abs(float(kernel(s, t)) - exact) / abs(exact))
        assert worst <= 1e-14

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        s = rng.normal(scale=3.0, size=200)
        t = rng.normal(scale=3.0, size=200)
        assert np.array_equal(kernel(s, t), kernel(t, s))

    def test_diagonal_nonnegative(self):
        grid = np.linspace(-10.0, 10.0, 201)
        assert np.all(kernel(grid, grid) >= 0.0)

    def test_gram_positive_semidefinite_spot_check(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            pts = rng.normal(scale=rng.uniform(0.3, 3.0), size=20)
            gram = kernel(pts[:, None], pts[None, :])
            assert np.linalg.eigvalsh(gram).min() >= -1e-10


class TestNystromSpectrum:
    def test_reproducible_bit_identical(self):
        tp = TuningParam(1.0)
        a = nystrom_spectrum(tp, 200, 3, seed=7, top_m=4)
        b = nystrom_spectrum(tp, 200, 3, seed=7, top_m=4)
        assert np.array_equal(a.per_run, b.per_run)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert a.trace_estimate == b.trace_estimate

    def test_different_seeds_differ(self):
        tp = TuningParam(1.0)
        a = nystrom_spectrum(tp, 200, 2, seed=1, top_m=3)
        b = nystrom_spectrum(tp, 200, 2, seed=2, top_m=3)
        assert not np.array_equal(a.per_run, b.per_run)

    def test_eigenvalues_descending_and_clipped(self):
        sp = nystrom_spectrum(TuningParam(0.5), 300, 4, seed=11, top_m=6)
        assert np.all(np.diff(sp.eigenvalues) <= 0.0)
        assert np.all(sp.eigenvalues >= 0.0)
        assert np.all(sp.per_run >= 0.0)
        assert sp.n_clipped >= 0

    @pytest.mark.parametrize("beta", [0.25, 1.0, 3.0])
    def test_eigen_sum_equals_trace_per_run(self, beta):
        sp = nystrom_spectrum(TuningParam(beta), 400, 4, seed=5, top_m=5)
        assert np.max(np.abs(sp.per_run_eigen_sum - sp.per_run_trace)) <= 1e-10

    def test_doubling_runs_stays_within_mc_noise(self):
        tp = TuningParam(1.0)
        base = nystrom_spectrum(tp, 300, 10, seed=23, top_m=5)
        doubled = nystrom_spectrum(tp, 300, 20, seed=23, top_m=5)
        se = base.per_run.std(axis=0, ddof=1) / math.sqrt(base.runs)
        assert np.all(np.abs(doubled.eigenvalues - base.eigenvalues) <= 3.0 * se)

    @pytest.mark.parametrize("n_points", [100, 400, 1000])
    @pytest.mark.parametrize("beta", [1e-3, 0.25, 1.0, 10.0, 50.0])
    def test_matches_dense_eigensolve(self, beta, n_points):
        sp = nystrom_spectrum(TuningParam(beta), n_points, 1, seed=17, top_m=10)
        gram = backend.kernel_gram(_run_nodes(beta, n_points, seed=17)) / n_points
        dense = np.linalg.eigvalsh(gram)[::-1][:10]
        trace = float(np.trace(gram))
        assert sp.per_run_trace[0] == trace
        assert np.max(np.abs(sp.per_run[0] - np.maximum(dense, 0.0))) <= 1e-12 * trace
        # the eigenvalues of the factor sum to trace minus the residual trace
        residual = sp.per_run_trace[0] - sp.per_run_eigen_sum[0]
        assert residual <= RTOL * trace

    def test_top_m_beyond_rank_is_zero_padded(self):
        sp = nystrom_spectrum(TuningParam(0.25), 200, 3, seed=2, top_m=40)
        assert np.all(sp.per_run_rank < 40)
        for row, rank in zip(sp.per_run, sp.per_run_rank):
            assert np.all(row[rank:] == 0.0)
            assert np.all(row[:rank] >= 0.0)

    def test_rank_zero_for_vanishing_kernel(self):
        # nodes of order 1e-200 square to zero, so the sampled matrix is zero
        sp = nystrom_spectrum(TuningParam(1e-200), 100, 2, seed=1, top_m=3)
        assert np.array_equal(sp.per_run_rank, [0, 0])
        assert np.all(sp.per_run == 0.0)
        assert np.all(sp.per_run_eigen_sum == 0.0)
        assert sp.n_clipped == 0

    def test_rank_bounded_and_grows_with_beta(self):
        mean_rank = []
        for beta in (0.25, 1.0, 10.0):
            sp = nystrom_spectrum(TuningParam(beta), 300, 3, seed=8, top_m=5)
            assert sp.per_run_rank.dtype.kind == "i"
            assert np.all((sp.per_run_rank >= 1) & (sp.per_run_rank <= 300))
            mean_rank.append(float(np.mean(sp.per_run_rank)))
        assert mean_rank == sorted(mean_rank) and len(set(mean_rank)) == 3

    def test_bounded_memory(self):
        # the dense 4000 x 4000 kernel matrix alone would be 128 MiB
        tracemalloc.start()
        try:
            nystrom_spectrum(TuningParam(1.0), 4000, 1, seed=42, top_m=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_validation(self):
        tp = TuningParam(1.0)
        with pytest.raises(ValueError):
            nystrom_spectrum(tp, 50, 2)
        with pytest.raises(ValueError):
            nystrom_spectrum(tp, 200, 0)
        with pytest.raises(ValueError):
            nystrom_spectrum(tp, 200, 2, top_m=0)
        with pytest.raises(ValueError):
            nystrom_spectrum(tp, 200, 2, top_m=201)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -3"):
            nystrom_spectrum(tp, 200, 2, seed=-3)


class TestOperatorTrace:
    def test_matches_diagonal_mc_at_large_n(self):
        tp = TuningParam(1.0)
        exact = operator_trace(tp)
        mc = _kernel_diag_trace(tp, 10_000, seed=42)
        assert abs(mc - exact) / exact < 0.02

    # 0.999 and 1.001 straddle the switch from the series to the closed
    # form at beta = 1; 1000 is far out on the closed-form side
    @pytest.mark.parametrize("beta", [1e-3, 0.25, 0.999, 1.0, 1.001, 10.0, 100.0, 1000.0])
    def test_closed_form_matches_decimal(self, beta):
        assert operator_trace(TuningParam(beta)) == pytest.approx(_trace_decimal(beta), rel=1e-14)

    @pytest.mark.parametrize("beta", [0.25, 1.0, 10.0, 100.0])
    def test_closed_form_matches_quadrature(self, beta):
        cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=8192)
        exact = operator_trace(TuningParam(beta))
        assert exact == pytest.approx(_trace_quadrature(beta, cfg), rel=1e-12)

    def test_vanishes_for_tiny_beta(self):
        # K(t,t) = t^6/6 + O(t^8) near 0, so the trace behaves like
        # 15 beta^6 / 6 as beta -> 0
        trace = operator_trace(TuningParam(0.01))
        assert trace == pytest.approx(2.5e-12, rel=1e-3)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
    def test_dominates_largest_eigenvalue(self, beta):
        tp = TuningParam(beta)
        lam = lambda1(tp, 400, 4, seed=3)
        assert operator_trace(tp) >= lam - 0.005

    def test_mean_eigen_sum_near_trace_at_reference_protocol(self):
        tp = TuningParam(1.0)
        sp = nystrom_spectrum(tp, 1000, 10, seed=42, top_m=5)
        exact = operator_trace(tp)
        assert abs(np.mean(sp.per_run_eigen_sum) - exact) / exact <= 0.03


class TestLambda1:
    def test_reference_values(self):
        assert lambda1(TuningParam(0.25), 1000, 10, seed=42) == pytest.approx(0.00040, abs=2e-4)
        assert lambda1(TuningParam(10.0), 1000, 10, seed=42) == pytest.approx(0.08791, abs=5e-3)

    def test_protocol_self_consistency(self):
        tp = TuningParam(1.0)
        coarse = lambda1(tp, 1000, 10, seed=42)
        fine = lambda1(tp, 2000, 10, seed=42)
        assert abs(fine - coarse) / coarse < 0.02


@pytest.fixture(scope="module")
def spectrum():
    return nystrom_spectrum(TuningParam(1.0), 400, 4, seed=9, top_m=5)


class TestNullPvalue:

    def test_bounds_and_monotonicity(self, spectrum):
        ps = [null_pvalue(t, spectrum, 20_000, seed=1) for t in (0.0, 0.1, 0.5, 2.0)]
        assert all(0.0 <= p <= 1.0 for p in ps)
        assert ps == sorted(ps, reverse=True)
        assert ps[0] == 1.0  # statistic 0 is below every draw

    def test_reproducible(self, spectrum):
        a = null_pvalue(0.3, spectrum, 30_000, seed=4)
        b = null_pvalue(0.3, spectrum, 30_000, seed=4)
        assert a == b

    def test_chunks_draw_one_stream(self, spectrum):
        # three chunks, the last of 7 rows, against one unchunked draw
        mc, seed, t = 2 * _MC_CHUNK + 7, 5, 0.3
        lam = spectrum.eigenvalues
        shift = spectrum.trace_estimate - float(np.sum(lam))
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        draws = np.square(rng.standard_normal((mc, lam.size))) @ lam + shift
        assert null_pvalue(t, spectrum, mc, seed) == np.count_nonzero(draws >= t) / mc

    def test_validation(self, spectrum):
        with pytest.raises(ValueError):
            null_pvalue(0.3, spectrum, 0)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            null_pvalue(0.3, spectrum, 10, seed=-1)
