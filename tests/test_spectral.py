"""Kernel, operator spectrum, Nystrom spectrum, operator trace and p-value
sampling tests."""

import dataclasses
import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from eppspulley import backend, cli, spectral
from eppspulley.bahadur import efficiency_table
from eppspulley.quadrature import QuadratureConfig, integrate_1d, normal_pdf
from eppspulley.spectral import (
    _MC_CACHE_SIZE,
    _MC_CHUNK,
    _MC_KEEP_LIMIT,
    _MC_NORMALS,
    RTOL,
    _kept_draws,
    _pivoted_cholesky,
    kernel,
    lambda1,
    null_pvalue,
    nystrom_spectrum,
    operator_spectrum,
    operator_trace,
    truncation,
)
from eppspulley.statistic import TuningParam
from oracles import grid_spectrum, mehler_basis, mehler_bisection


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

    def test_huge_arguments_are_finite(self):
        # (1 + x + x^2/2) overflows where the damping factor underflows to 0
        s = np.array([1e100, 1e100, 1e200, 40.0])
        t = np.array([1e100, -1e100, 1e200, 40.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = kernel(s, t)
        assert np.array_equal(values, [1.0, 0.0, 1.0, 1.0])

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

    def test_residual_within_rtol_across_a_sweep(self):
        # 480 runs; stopping at sum(d) <= RTOL * trace, without a margin
        # for the roundoff of sum(d), let a few runs end above the bound
        worst = 0.0
        for beta in (0.25, 1.0, 3.0, 10.0):
            for n_points in (100, 300, 1000):
                sp = nystrom_spectrum(TuningParam(beta), n_points, 40, seed=123, top_m=1)
                residual = sp.per_run_trace - sp.per_run_eigen_sum
                worst = max(worst, float(np.max(residual / (RTOL * sp.per_run_trace))))
        assert worst <= 1.0

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

    def test_rank_zero_where_the_trace_underflows(self):
        # at beta = 1e-54 every kernel diagonal entry underflows to 0, so
        # the trace is 0 and the factorisation takes no step
        sp = nystrom_spectrum(TuningParam(1e-54), 1000, 4, seed=42, top_m=3)
        assert np.all(sp.per_run_trace == 0.0)
        assert np.array_equal(sp.per_run_rank, [0, 0, 0, 0])
        assert np.all(sp.per_run == 0.0)

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
        # int() would truncate a float count, and a float cannot size or slice an array
        for kwargs in ({"n_points": 150.5}, {"runs": 1.5}, {"runs": 2.0}, {"top_m": 1.5},
                       {"top_m": 2.5}, {"seed": 7.5}, {"top_m": True}, {"runs": np.True_},
                       {"seed": False}):
            name, value = next(iter(kwargs.items()))
            with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
                nystrom_spectrum(tp, **{"n_points": 200, "runs": 2, **kwargs})
        sp = nystrom_spectrum(tp, np.int64(150), np.int32(1), seed=np.uint8(7), top_m=np.int64(2))
        assert (sp.n_points, sp.runs, sp.seed, sp.top_m) == (150, 1, 7, 2)
        assert all(type(v) is int for v in (sp.n_points, sp.runs, sp.seed, sp.top_m))

    @pytest.mark.parametrize("beta", [1e-200, 1e-100, 1e-10, 1e-3, 1.0, 100.0, 1e3, 1e160, 1e300])
    def test_no_warning_across_the_range(self, beta):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sp = nystrom_spectrum(TuningParam(beta), 100, 2, seed=6, top_m=3)
        assert np.all(np.isfinite(sp.per_run))

    @pytest.mark.parametrize("beta", [1e3, 1e10, 1e50, 1e100, 1e150])
    def test_huge_beta_is_warning_free_and_finite(self, beta):
        # the nodes lie far apart, so G tends to I/N: trace 1, eigenvalues 1/N
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sp = nystrom_spectrum(TuningParam(beta), 100, 2, seed=6, top_m=3)
        assert np.all(np.isfinite(sp.per_run_trace)) and np.all(np.isfinite(sp.per_run))
        assert np.all(np.abs(sp.per_run_eigen_sum - sp.per_run_trace) <= RTOL * sp.per_run_trace)
        if beta >= 1e10:
            assert sp.per_run_trace == pytest.approx(1.0, rel=1e-14)
            assert sp.per_run == pytest.approx(0.01, rel=1e-14)

    def test_overflowing_nodes_raise(self):
        # beta * z overflows to inf for |z| > 1.8, so the trace is NaN
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ArithmeticError, match="not finite at beta=1e\\+308"):
                nystrom_spectrum(TuningParam(1e308), 100, 1, seed=6)


def _unseeded_rank(y: np.ndarray) -> int:
    """Steps of a plain pivoted Cholesky factorisation of the dense
    G = K(y_i, y_j)/N, with the library's stopping rule: sum of the
    residual diagonal <= RTOL * trace / 2."""
    n = y.size
    gram = backend.kernel_gram(y) / n
    d = np.diag(gram).copy()
    stop = 0.5 * RTOL * float(np.sum(d))
    rows = np.empty((0, n))
    while rows.shape[0] < n and float(d.sum()) > stop:
        p = int(d.argmax())
        row = (gram[p] - rows[:, p] @ rows) / math.sqrt(d[p])
        d -= np.square(row)
        d[p] = 0.0
        rows = np.vstack((rows, row))
    return rows.shape[0]


class TestSeededFactor:
    def test_pivot_loop_computes_at_most_n_columns(self):
        # the loop has no step cap: each step zeroes a positive entry of a
        # residual diagonal that never grows, so it stops within N steps,
        # on spread, clustered and tied nodes alike, and it takes the steps
        # of the dense textbook loop
        for beta in (1e-3, 0.25, 1.0, 10.0, 100.0, 1e4, 1e10):
            for n in (2, 3, 17, 300):
                y = _run_nodes(beta, n, seed=n)
                for nodes in (y, np.repeat(y[:2], (n + 1) // 2)[:n]):
                    rows, _ = _pivoted_cholesky(nodes)
                    assert len(rows) == _unseeded_rank(nodes) <= n


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
        cfg = QuadratureConfig(tol=1e-13, max_subdivisions=8192)
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
        lam = _sampled_lambda1(tp, 400, 4, seed=3)
        assert operator_trace(tp) >= lam - 0.005

    def test_mean_eigen_sum_near_trace_at_reference_protocol(self):
        tp = TuningParam(1.0)
        sp = nystrom_spectrum(tp, 1000, 10, seed=42, top_m=5)
        exact = operator_trace(tp)
        assert abs(np.mean(sp.per_run_eigen_sum) - exact) / exact <= 0.03


def _sampled_lambda1(tp: TuningParam, n_points: int, runs: int, seed: int) -> float:
    """Largest eigenvalue under the given sampling protocol."""
    return float(nystrom_spectrum(tp, n_points, runs, seed, top_m=1).eigenvalues[0])


class TestLambda1:
    """The sampled protocol's lambda1 (the library's lambda1 is the
    operator's, tested in TestOperatorSpectrum)."""

    def test_reference_values(self):
        assert _sampled_lambda1(TuningParam(0.25), 1000, 10, seed=42) == pytest.approx(0.00040, abs=2e-4)
        assert _sampled_lambda1(TuningParam(10.0), 1000, 10, seed=42) == pytest.approx(0.08791, abs=5e-3)

    def test_protocol_self_consistency(self):
        tp = TuningParam(1.0)
        coarse = _sampled_lambda1(tp, 1000, 10, seed=42)
        fine = _sampled_lambda1(tp, 2000, 10, seed=42)
        assert abs(fine - coarse) / coarse < 0.02


def _grid_panels(beta: float) -> int:
    return max(8, math.ceil(6.0 * beta))


class TestGridOracle:
    """The operator's converged spectrum, from the deterministic grid of
    oracles.grid_spectrum."""

    # lambda1 to 6 significant digits at the table's betas and at 1e-3
    CONVERGED = {0.25: 0.000407235, 0.5: 0.0101443, 0.75: 0.0385276, 1.0: 0.0742748,
                 2.0: 0.154164, 3.0: 0.159960, 5.0: 0.132994, 10.0: 0.0829125,
                 1e-3: 2.49998e-18}

    @pytest.mark.parametrize("beta", sorted(CONVERGED))
    def test_converged_lambda1(self, beta):
        lam = grid_spectrum(beta, _grid_panels(beta))
        assert float(f"{lam[0]:.6g}") == self.CONVERGED[beta]
        # the eigenvalue sum is the operator's trace
        exact = operator_trace(TuningParam(beta))
        assert abs(float(np.sum(lam)) - exact) <= 1e-10 * exact

    @pytest.mark.parametrize("beta", [0.25, 1.0, 3.0])
    def test_doubling_the_panels_moves_lambda1_by_1e_10(self, beta):
        coarse = grid_spectrum(beta, _grid_panels(beta))[0]
        fine = grid_spectrum(beta, 2 * _grid_panels(beta))[0]
        assert abs(fine - coarse) <= 1e-10 * coarse

    def test_sampled_mean_is_unbiased_at_beta_1(self):
        sp = nystrom_spectrum(TuningParam(1.0), 1000, 40, seed=7, top_m=1)
        runs = sp.per_run[:, 0]
        se = float(np.std(runs, ddof=1)) / math.sqrt(runs.size)
        assert abs(float(np.mean(runs)) - grid_spectrum(1.0, _grid_panels(1.0))[0]) <= 3.0 * se


def _mehler_top(beta: float, top_m: int) -> np.ndarray:
    """The Mehler route's top eigenvalues at any beta, also below 1,
    where operator_spectrum takes the Gram route."""
    size = math.ceil(spectral._MEHLER_DECADES / spectral._mehler_constants(beta)[4])
    return spectral._mehler_eigenvalues(beta, size, top_m)


class TestOperatorSpectrum:
    """operator_spectrum against the grid oracle, the other route, a dense
    solve of the Mehler matrix, the closed-form trace and the sampled
    protocol."""

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_routes_agree(self, beta):
        gram = operator_spectrum(TuningParam(beta)).eigenvalues
        assert np.max(np.abs(gram - _mehler_top(beta, 5))) <= 1e-10 * gram[0]

    @pytest.mark.parametrize("beta, method", [(1e-3, "gram"), (0.25, "gram"), (3.0, "mehler"),
                                              (10.0, "mehler")])
    def test_matches_grid_oracle(self, beta, method):
        sp = operator_spectrum(TuningParam(beta))
        assert sp.method == method
        grid = grid_spectrum(beta, _grid_panels(beta))[:5]
        assert np.max(np.abs(sp.eigenvalues - grid)) <= 1e-12 * sp.eigenvalues[0]

    # 2.95 and 5.37 have a root just above an even pole, where the
    # even block's g is rounding over a band
    @pytest.mark.parametrize("beta", [1.0001, 2.0, 2.95, 5.37, 10.0, 50.0])
    def test_bisection_matches_dense_solve(self, beta):
        sp = operator_spectrum(TuningParam(beta), top_m=12)
        lam, u = spectral._mehler_basis(beta, sp.basis_size)
        dense = np.linalg.eigvalsh(np.diag(lam) - u @ u.T)[::-1][:12]
        assert np.max(np.abs(sp.eigenvalues - dense)) <= 1e-13 * sp.eigenvalues[0]

    @pytest.mark.parametrize("beta", [1.0001, 1.5, 2.0, 3.0, 5.0, 10.0, 50.0, 300.0])
    def test_closed_form_basis_matches_quadrature(self, beta):
        size = truncation(TuningParam(beta)).basis_size
        lam, u = spectral._mehler_basis(beta, size)
        lam_grid, u_grid = mehler_basis(beta, size)
        assert lam.tobytes() == lam_grid.tobytes()
        assert np.max(np.abs(u - u_grid)) <= 1e-14 * np.max(np.abs(u_grid))
        # exactly 0 off parity, where the split into two blocks relies on it
        even = (np.arange(size)[:, None] + np.arange(3)) % 2 == 0
        assert np.array_equal(u != 0.0, even)

    def test_mehler_route_calls_no_eigensolver(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("did not converge")

        expected = operator_spectrum(TuningParam(2.0)).eigenvalues
        spectral._solved.cache_clear()
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        sp = operator_spectrum(TuningParam(2.0))
        assert sp.method == "mehler" and sp.eigenvalues.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("beta", [1e-3, 0.25, 1.0, 1.5, 3.0, 10.0, 50.0])
    def test_basis_trace_is_the_operator_trace(self, beta):
        tp = TuningParam(beta)
        sp = operator_spectrum(tp)
        assert sp.trace == operator_trace(tp)
        if sp.method == "gram":
            basis_trace = float(np.sum(spectral._gram_eigenvalues(beta, sp.basis_size)))
        else:
            lam, u = spectral._mehler_basis(beta, sp.basis_size)
            basis_trace = float(np.sum(lam) - np.sum(np.square(u)))
        assert abs(basis_trace - sp.trace) <= 1e-13 * sp.trace + sp.bound

    @pytest.mark.parametrize("beta", [1e-3, 0.25, 0.5, 1.0])
    def test_gram_bound_covers_the_dropped_diagonal(self, beta):
        # G_kk = (2k)! sigma^(2k) / (2^k k!^2 sqrt(s)) summed over the next
        # 200 dropped k, far past where the terms vanish
        method, size, bound = truncation(TuningParam(beta))
        s = 1.0 + 2.0 * beta * beta
        log_sigma2 = math.log(beta * beta / s)
        dropped = math.fsum(
            math.exp(math.lgamma(2 * k + 1) - k * math.log(2.0) - 2.0 * math.lgamma(k + 1)
                     + k * log_sigma2 - 0.5 * math.log(s))
            for k in range(size + 3, size + 203))
        assert method == "gram" and dropped <= bound <= 3.0 * dropped

    @pytest.mark.parametrize("beta", sorted(TestGridOracle.CONVERGED))
    def test_converged_lambda1(self, beta):
        assert float(f"{lambda1(TuningParam(beta)):.6g}") == TestGridOracle.CONVERGED[beta]

    def test_sampled_mean_is_unbiased_at_beta_1(self):
        sp = nystrom_spectrum(TuningParam(1.0), 1000, 40, seed=7, top_m=1)
        runs = sp.per_run[:, 0]
        se = float(np.std(runs, ddof=1)) / math.sqrt(runs.size)
        assert abs(float(np.mean(runs)) - lambda1(TuningParam(1.0))) <= 3.0 * se

    @pytest.mark.parametrize("beta, size", [(0.5, 60), (1.0001, 39)])
    def test_ranks_past_the_basis_are_zero(self, beta, size):
        sp = operator_spectrum(TuningParam(beta), top_m=size + 5)
        assert sp.basis_size == size
        assert np.all(sp.eigenvalues[size:] == 0.0) and np.all(sp.eigenvalues >= 0.0)
        assert np.all(np.diff(sp.eigenvalues) <= 0.0)

    def test_vanishing_beta_gives_zeros(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sp = operator_spectrum(TuningParam(1e-200))
        assert np.all(sp.eigenvalues == 0.0) and sp.bound == 0.0 and sp.trace == 0.0

    def test_basis_cap(self):
        # M grows like 37 beta: 131072 functions reach beta 3557
        assert truncation(TuningParam(3550.0)).basis_size <= spectral._MAX_BASIS
        for beta, text in [(3600.0, "beta=3600 needs M = 1.326e\\+05"), (1e300, "beta=1e\\+300")]:
            with pytest.raises(ArithmeticError, match=text):
                operator_spectrum(TuningParam(beta))

    def test_validation(self):
        for top_m in (0, spectral._MAX_BASIS + 1):
            with pytest.raises(ValueError, match=f"top_m must be between 1 and 131072, got {top_m}"):
                operator_spectrum(TuningParam(1.0), top_m=top_m)
        # a float passes the range check but cannot slice the solve, and a
        # bool would pass it as 1
        for top_m in (2.5, 5.0, True, np.True_):
            with pytest.raises(ValueError, match=f"top_m must be an integer, got {top_m}"):
                operator_spectrum(TuningParam(1.0), top_m=top_m)
        assert operator_spectrum(TuningParam(1.0), top_m=np.int64(2)).eigenvalues.size == 2


def _synthetic_basis(lam2: float, u11: float, lam1: float = 3.0) -> tuple[np.ndarray, np.ndarray]:
    """A small D and U with the parity of the Mehler basis: the odd block
    has poles lam1, 1 and 0.25, the even block 4, lam2 and 0.5, and a
    tiny u11 puts a root an ulp from lambda_1."""
    lam = np.array([4.0, lam1, lam2, 1.0, 0.5, 0.25])
    u = np.zeros((6, 3))
    u[0::2, 0] = [0.6, 0.3, 0.2]
    u[1::2, 1] = [u11, 0.4, 0.1]
    u[0::2, 2] = [0.2, -0.3, 0.1]
    return lam, u


class TestMehlerRoots:
    """The Mehler ranks, solved in blocks whose buffer stays within 8 MiB,
    against the bisection they replaced and a dense solve."""

    def test_blocks_give_the_unblocked_bits(self, monkeypatch):
        # M = 1106 puts each stage's ranks in one block of the 8 MiB
        # buffer; a buffer of 100 rows splits every stage into 6 blocks
        beta = 30.0
        size = truncation(TuningParam(beta)).basis_size
        blocks = []
        bracketed = spectral._bracketed_roots

        def recording(lam, pairs, lo, p_lo, p_hi):
            blocks.append(lo.size)
            return bracketed(lam, pairs, lo, p_lo, p_hi)

        monkeypatch.setattr(spectral, "_bracketed_roots", recording)
        whole = spectral._mehler_eigenvalues(beta, size, size)
        assert len(blocks) == 3
        monkeypatch.setattr(spectral, "_BLOCK_ELEMENTS", 100 * ((size + 1) // 2))
        blocked = spectral._mehler_eigenvalues(beta, size, size)
        assert len(blocks) == 3 + 18 and max(blocks[3:]) == 100
        assert blocked.tobytes() == whole.tobytes()

    def test_memory_bounded_at_any_top_m(self):
        # unblocked, the (ranks x M) temporaries at M = 3685 took 104 MiB each
        tracemalloc.start()
        try:
            sp = operator_spectrum(TuningParam(100.0), top_m=4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sp.basis_size < 4000 and np.all(sp.eigenvalues[sp.basis_size:] == 0.0)
        assert peak < 12 * 2**20

    @pytest.mark.parametrize("beta", [1.0001, 1.5, 2.0, 3.0, 5.0, 10.0, 50.0, 300.0, 3000.0])
    def test_matches_the_bisection_oracle(self, beta):
        size = truncation(TuningParam(beta)).basis_size
        lam, u = spectral._mehler_basis(beta, size)
        want = mehler_bisection(lam, u, np.arange(20))
        got = spectral._mehler_eigenvalues(beta, size, 20)
        assert np.max(np.abs(got - want)) <= 1e-15 * want[0]

    def test_every_rank_of_a_small_basis(self):
        # M = 39: the brackets of the last three ranks reach below 0, where
        # the oracle's stop at 0, so a negative root is clipped either way
        sp = operator_spectrum(TuningParam(1.0001), top_m=44)
        assert sp.basis_size == 39
        lam, u = spectral._mehler_basis(1.0001, 39)
        want = np.maximum(mehler_bisection(lam, u, np.arange(39)), 0.0)
        assert np.all(np.diff(sp.eigenvalues) <= 0.0) and np.all(sp.eigenvalues >= 0.0)
        assert np.all(sp.eigenvalues[39:] == 0.0)
        assert np.max(np.abs(sp.eigenvalues[:39] - want)) <= 1e-15 * want[0]

    def test_near_degenerate_pair(self):
        # near the cap the top two roots, one odd and one even, are 1.6e-6
        # apart relative; each is isolated from the other and found
        beta = 3557.0
        size = truncation(TuningParam(beta)).basis_size
        lam, u = spectral._mehler_basis(beta, size)
        want = mehler_bisection(lam, u, np.arange(2))
        got = spectral._mehler_eigenvalues(beta, size, 2)
        assert 0.0 < got[0] - got[1] < 2e-6 * got[0]
        assert np.max(np.abs(got - want)) <= 1e-15 * want[0]

    @pytest.mark.parametrize("lam2, u11", [(2.5, 0.5), (np.nextafter(2.5, 0.0), 0.5), (2.5, 1e-9)])
    def test_steps_onto_and_beside_a_pole(self, lam2, u11):
        # small synthetic blocks against the oracle and a dense solve, one
        # with a tiny u11 that keeps an odd root, and the Newton steps for
        # it, within an ulp of the pole lambda_1 (test_moves_off_an_even_pole
        # puts an iterate on a pole); pyproject makes a RuntimeWarning fail
        lam, u = _synthetic_basis(lam2, u11)
        got = spectral._mehler_roots(lam, u, 6)
        dense = np.linalg.eigvalsh(np.diag(lam) - u @ u.T)[::-1]
        assert np.max(np.abs(got - mehler_bisection(lam, u, np.arange(6)))) <= 1e-15 * got[0]
        assert np.max(np.abs(got - dense)) <= 1e-15 * got[0]

    def test_moves_off_an_even_pole(self, monkeypatch):
        # lam2 is the midpoint of the first two roots of D_e - b_0 b_0^T,
        # so the first iterate of even rank 0 in the second stage is the
        # pole lam2 itself, where g is NaN; t moves one float and goes on
        lam2 = 3.5560053618215886
        lam, u = _synthetic_basis(lam2, 0.5, lam1=3.75)
        seen = []
        secular = spectral._secular

        def recording(lam, pairs, t, buffer):
            seen.append(t.copy())
            return secular(lam, pairs, t, buffer)

        monkeypatch.setattr(spectral, "_secular", recording)
        got = spectral._mehler_roots(lam, u, 6)
        assert any(np.any(t == lam2) for t in seen)
        assert any(np.any(t == np.nextafter(lam2, 4.0)) for t in seen)
        dense = np.linalg.eigvalsh(np.diag(lam) - u @ u.T)[::-1]
        assert np.max(np.abs(got - mehler_bisection(lam, u, np.arange(6)))) <= 1e-15 * got[0]
        assert np.max(np.abs(got - dense)) <= 1e-15 * got[0]


class TestOperatorSpectrumMemo:
    """operator_spectrum solves each (beta, max(top_m, 5)) once per
    process and returns fresh arrays."""

    @staticmethod
    def _count_solves(monkeypatch):
        calls = []
        for name in ("_gram_eigenvalues", "_mehler_eigenvalues"):
            route = getattr(spectral, name)

            def counting(beta, *args, route=route, name=name):
                calls.append((name, beta))
                return route(beta, *args)

            monkeypatch.setattr(spectral, name, counting)
        return calls

    @pytest.mark.parametrize("beta", [0.5, 2.0, 10.0])
    def test_repeated_call_equals_a_cold_call_bit_for_bit(self, beta):
        tp = TuningParam(beta)
        cold = operator_spectrum(tp)
        warm = operator_spectrum(tp)
        assert spectral._solved.cache_info()[:2] == (1, 1)
        spectral._solved.cache_clear()
        again = operator_spectrum(tp)
        for sp in (warm, again):
            assert sp.eigenvalues.tobytes() == cold.eigenvalues.tobytes()
            assert (sp.method, sp.basis_size, sp.bound, sp.trace) == (
                cold.method, cold.basis_size, cold.bound, cold.trace)

    def test_each_key_is_solved_once(self, monkeypatch):
        calls = self._count_solves(monkeypatch)
        for _ in range(5):
            for beta in (0.5, 1.0, 2.0):
                operator_spectrum(TuningParam(beta))
        assert calls == [("_gram_eigenvalues", 0.5), ("_gram_eigenvalues", 1.0),
                         ("_mehler_eigenvalues", 2.0)]
        # top_m up to 5 shares the beta's solve; a larger top_m is its own key
        operator_spectrum(TuningParam(2.0), top_m=1)
        assert len(calls) == 3
        operator_spectrum(TuningParam(2.0), top_m=6)
        assert len(calls) == 4

    @pytest.mark.parametrize("beta", [0.5, 1.0001, 2.0, 10.0, 300.0])
    def test_fewer_ranks_are_a_slice_of_a_larger_solve(self, beta):
        # at beta 1.0001 (M = 39) every top_m up to M, which checks that
        # the top_m // 2 + 1 roots each Mehler block solves are enough
        wide = spectral._solved(beta, 39 if beta == 1.0001 else 20)[0]
        for top_m in range(1, 40) if beta == 1.0001 else (1, 3, 5):
            cold = spectral._solved.__wrapped__(beta, top_m)[0]
            assert cold.tobytes() == wide[:top_m].tobytes(), top_m

    def test_tables_after_the_spectrum_solve_nothing(self, monkeypatch):
        # table1 solves the top 5 at the paper's betas, and table2's
        # lambda1 then reads the same entries
        for beta in cli.DEFAULT_BETAS:
            operator_spectrum(TuningParam(beta), top_m=5)
        calls = self._count_solves(monkeypatch)
        efficiency_table(["lp2"], cli.DEFAULT_BETAS)
        assert calls == []

    def test_mutating_a_result_leaves_the_cache_intact(self):
        tp = TuningParam(3.0)
        first = operator_spectrum(tp)
        kept = first.eigenvalues.copy()
        assert first.eigenvalues.flags.writeable
        first.eigenvalues[...] = -1.0
        second = operator_spectrum(tp)
        assert second.eigenvalues is not first.eigenvalues
        assert np.array_equal(second.eigenvalues, kept)

    def test_resident_entries_are_bounded(self):
        size = spectral._OPERATOR_CACHE_SIZE
        for i in range(size + 3):
            operator_spectrum(TuningParam(0.1 + 0.01 * i))
        assert spectral._solved.cache_info().currsize == size

    def test_failure_is_not_cached(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("did not converge")

        tp = TuningParam(0.5)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", fail)
            with pytest.raises(RuntimeError, match="eigensolver failed at beta=0.5: did not converge"):
                operator_spectrum(tp)
        assert spectral._solved.cache_info().currsize == 0
        assert operator_spectrum(tp).eigenvalues[0] > 0.0


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
        draws = _one_chunk_draws(spectrum, mc, seed)
        assert null_pvalue(t, spectrum, mc, seed) == np.count_nonzero(draws >= t) / mc

    def test_streamed_chunks_draw_one_stream(self, spectrum):
        # above the keep limit, counted chunk by chunk
        mc, seed, t = _MC_KEEP_LIMIT + 1, 5, 0.3
        draws = _one_chunk_draws(spectrum, mc, seed)
        assert null_pvalue(t, spectrum, mc, seed) == np.count_nonzero(draws >= t) / mc

    def test_small_chunks_equal_one_chunk_reference(self, spectrum):
        mc, seed = 2 * _MC_CHUNK + 7, 5
        lam, shift = _law(spectrum)
        kept = _kept_draws(lam.tobytes(), shift, mc, seed)
        assert np.array_equal(kept, _one_chunk_draws(spectrum, mc, seed))

    def test_draws_do_not_depend_on_the_chunk_size(self, monkeypatch):
        # at top_m = 12 a BLAS matrix-vector product rounded the last row
        # of a chunk differently from the same row in one long product
        lam, shift = _law(nystrom_spectrum(TuningParam(10.0), 1000, 2, seed=1, top_m=12))
        key = (lam.tobytes(), shift, _MC_CHUNK + 1, 42)
        chunked = _kept_draws(*key)
        _kept_draws.cache_clear()
        monkeypatch.setattr(spectral, "_MC_CHUNK", _MC_CHUNK + 1)
        assert np.array_equal(chunked, _kept_draws(*key))

    @pytest.mark.parametrize("beta", [0.5, 10.0])
    def test_exact_spectrum_law(self, beta):
        # the top 5 exact eigenvalues and the closed-form trace deficit
        exact = operator_spectrum(TuningParam(beta))
        mc, seed = 3000, 8
        draws = _one_chunk_draws(exact, mc, seed)
        lam, shift = _law(exact)
        assert shift == exact.trace - float(np.sum(exact.eigenvalues)) > 0.0
        for t in (0.0, float(np.median(draws)), float(draws[5])):
            assert null_pvalue(t, exact, mc, seed) == np.count_nonzero(draws >= t) / mc

    def test_sampled_trace_alias(self, spectrum):
        assert spectrum.trace == spectrum.trace_estimate

    def test_validation(self, spectrum):
        with pytest.raises(ValueError):
            null_pvalue(0.3, spectrum, 0)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            null_pvalue(0.3, spectrum, 10, seed=-1)
        # int() would truncate them to the draws of mc_samples=1000, seed=2
        with pytest.raises(ValueError, match="mc_samples must be an integer, got 1000.7"):
            null_pvalue(0.3, spectrum, 1000.7)
        with pytest.raises(ValueError, match="seed must be an integer, got 2.9"):
            null_pvalue(0.3, spectrum, 1000, seed=2.9)
        with pytest.raises(ValueError, match="mc_samples must be an integer, got 1000.0"):
            null_pvalue(0.3, spectrum, np.float64(1000.0))
        # a bool would count as one draw
        with pytest.raises(ValueError, match="mc_samples must be an integer, got True"):
            null_pvalue(0.3, spectrum, mc_samples=True, seed=False)
        with pytest.raises(ValueError, match="seed must be an integer, got False"):
            null_pvalue(0.3, spectrum, 10, seed=np.False_)
        assert null_pvalue(0.3, spectrum, np.int64(1000), seed=np.int32(2)) == null_pvalue(
            0.3, spectrum, 1000, seed=2)

    def test_nan_statistic_is_rejected(self, spectrum):
        # every comparison with NaN is false, which would read as p = 0
        with pytest.raises(ValueError, match="statistic must not be NaN, got nan"):
            null_pvalue(float("nan"), spectrum, 10)
        with pytest.raises(ValueError, match="statistic must not be NaN"):
            null_pvalue(np.float64("nan"), spectrum, _MC_KEEP_LIMIT + 1)
        assert null_pvalue(math.inf, spectrum, 10) == 0.0
        assert null_pvalue(-math.inf, spectrum, 10) == 1.0


def _law(spectrum):
    """Clipped eigenvalues and trace shift, as null_pvalue simulates them."""
    lam = np.maximum(spectrum.eigenvalues, 0.0)
    return lam, max(spectrum.trace - float(np.sum(lam)), 0.0)


def _one_chunk_draws(spectrum, mc, seed):
    """The mc draws of null_pvalue from a single (mc, top_m) normal draw,
    each summing its terms in the order of j."""
    lam, shift = _law(spectrum)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    z = np.square(rng.standard_normal((mc, lam.size)))
    draws = np.zeros(mc)
    for j, lam_j in enumerate(lam):
        draws += lam_j * z[:, j]
    return draws + shift


class TestNullPvalueMemo:
    def test_hit_equals_miss_bit_for_bit(self, spectrum):
        mc, seed = 5000, 3
        draws = _one_chunk_draws(spectrum, mc, seed)
        # a statistic equal to a draw counts that draw (>=)
        stats = [0.0, float(draws[17]), float(np.median(draws)), 0.3, math.inf]
        misses = []
        for t in stats:
            _kept_draws.cache_clear()
            misses.append(null_pvalue(t, spectrum, mc, seed))
        hits = [null_pvalue(t, spectrum, mc, seed) for t in stats]
        assert _kept_draws.cache_info()[:2] == (len(stats), 1)
        assert hits == misses
        assert misses == [np.count_nonzero(draws >= t) / mc for t in stats]
        assert misses[1] > np.count_nonzero(draws > stats[1]) / mc

    def test_a_batch_draws_once_and_every_key_field_misses(self, spectrum):
        info = _kept_draws.cache_info
        for t in (0.01, 0.05, 0.1, 0.2, 0.3):
            null_pvalue(t, spectrum, 2000, seed=4)
        assert (info().misses, info().hits) == (1, 4)
        other_top_m = nystrom_spectrum(TuningParam(1.0), 400, 4, seed=9, top_m=4)
        scaled = dataclasses.replace(spectrum, eigenvalues=spectrum.eigenvalues * (1 + 2**-40))
        other_trace = dataclasses.replace(spectrum, trace_estimate=spectrum.trace_estimate * 2)
        for args in [(spectrum, 2000, 5), (spectrum, 2001, 4), (other_top_m, 2000, 4),
                     (scaled, 2000, 4), (other_trace, 2000, 4)]:
            before = info().misses
            null_pvalue(0.1, *args)
            assert info().misses == before + 1, args[1:]

    def test_kept_draws_are_read_only(self, spectrum):
        null_pvalue(0.1, spectrum, 100, seed=2)
        lam, shift = _law(spectrum)
        draws = _kept_draws(lam.tobytes(), shift, 100, 2)
        assert _kept_draws.cache_info().hits == 1
        assert not draws.flags.writeable
        with pytest.raises(ValueError):
            draws[0] = -1.0

    def test_above_the_keep_limit_memory_is_one_chunk(self, spectrum):
        mc = _MC_KEEP_LIMIT + 1
        tracemalloc.start()
        try:
            null_pvalue(0.1, spectrum, mc, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the normals and the draws of one chunk, with room to spare; one
        # vector of all mc draws alone would be 2 MiB
        assert peak < 2 * _MC_CHUNK * (spectrum.top_m + 1) * 8 < mc * 8
        assert _kept_draws.cache_info().currsize == 0

    def test_normals_are_bounded_at_a_large_top_m(self):
        # pvalue's top_m reaches 131072 on the exact spectrum; a chunk of
        # 16384 rows would take 16 GiB of normals there
        top_m = 1 << 12
        exact = operator_spectrum(TuningParam(10.0), top_m=top_m)
        assert exact.eigenvalues.size == top_m and exact.eigenvalues[-1] == 0.0
        draws = _one_chunk_draws(exact, 300, 3)  # chunks of 256 and 44 rows
        for t in (float(draws[7]), float(draws[280])):
            assert null_pvalue(t, exact, 300, 3) == np.count_nonzero(draws >= t) / 300
        tracemalloc.start()
        try:
            null_pvalue(0.1, exact, 1000, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one chunk of normals, the kept draws and the eigenvalues' bytes;
        # 1000 rows at once would be 33 MB
        assert peak < _MC_NORMALS * 8 + 2**20 < 1000 * top_m * 8

    def test_resident_draws_are_bounded(self, spectrum):
        # the stated bound: 8 MiB of kept draws, whatever mc_samples is
        assert _MC_CACHE_SIZE * _MC_KEEP_LIMIT * 8 <= 8 * 2**20
        tracemalloc.start()
        try:
            for seed in range(_MC_CACHE_SIZE + 2):
                null_pvalue(0.1, spectrum, _MC_KEEP_LIMIT, seed)
            resident = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert _kept_draws.cache_info().currsize == _MC_CACHE_SIZE
        assert resident < _MC_CACHE_SIZE * _MC_KEEP_LIMIT * 8 + 2**16
