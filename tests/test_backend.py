"""The numpy kernels against slow oracles: the fast Gauss transform pair
sum against an exactly rounded full-matrix sum,
against the tiled O(n^2) sum at n = 2e4, and against an exact sum over
distinct values at n = 1e6 and 1e7; the Gram matrix against the scalar kernel; and the pair sum's
working memory at large n."""

import math
import tracemalloc

import numpy as np
import pytest

from eppspulley import backend
from eppspulley.statistic import Sample, TuningParam, epps_pulley_statistic

TILE = 1024


def _exact_pair_sum(y, gamma):
    terms = np.exp(-gamma * np.square(y[:, None] - y[None, :]))
    return math.fsum(terms.ravel())


def _tiled_pair_sum(y, gamma):
    """The O(n^2) pair sum in TILE x TILE tiles of the upper triangle;
    each off-diagonal tile is summed once and counted twice."""
    n = y.size
    parts = []
    for i in range(0, n, TILE):
        rows = y[i:i + TILE, np.newaxis]
        for j in range(i, n, TILE):
            part = float(np.sum(np.exp(-gamma * np.square(rows - y[np.newaxis, j:j + TILE]))))
            parts.append(part if i == j else 2.0 * part)
    return math.fsum(parts)


def _standardized(y):
    return (y - y.mean()) / y.std()


def _tied_sample(n, seed, distinct=64):
    """A sample of n draws from `distinct` values v with counts c, whose
    pair sum is exactly fsum(c_i c_j exp(-gamma (v_i - v_j)^2))."""
    rng = np.random.default_rng(seed)
    v = 1.7 * rng.standard_normal(distinct)
    idx = rng.integers(0, distinct, size=n, dtype=np.uint8)
    c = np.bincount(idx, minlength=distinct).astype(np.float64)
    return v, c, v[idx]


def _distinct_value_sum(v, c, gamma):
    return math.fsum((np.outer(c, c) * np.exp(-gamma * np.square(v[:, None] - v[None, :]))).ravel())


def _assert_rel(value, exact, rel):
    assert abs(value - exact) <= rel * exact


def _peak_bytes(y, gamma):
    """tracemalloc peak of one pair sum call."""
    tracemalloc.start()
    try:
        backend.pairwise_gauss_sum(y, gamma)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPairwiseSum:
    def test_small_case_exact(self):
        y = np.array([0.0, 1.0, -1.0])
        # 3 diagonal ones + 2*(e^-g + e^-g + e^-4g) for gamma = 0.5
        expected = 3.0 + 2.0 * (2.0 * np.exp(-0.5) + np.exp(-2.0))
        assert backend.pairwise_gauss_sum(y, 0.5) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("gamma", [0.03125, 0.5, 50.0])
    @pytest.mark.parametrize("n", [2, 3, TILE - 1, TILE, TILE + 1, 3000])
    def test_matches_exact_sum(self, n, gamma):
        y = np.random.default_rng(n).standard_normal(n)
        exact = _exact_pair_sum(y, gamma)
        assert abs(backend.pairwise_gauss_sum(y, gamma) - exact) <= 1e-12 * exact

    def test_truncation_at_box_edges(self):
        # points at both edges of every box (at gamma = 1, z = y) are the
        # worst case for the Taylor truncation; at p = 30 the result is
        # within roundoff, where p = 14 would miss by 3e-15
        edge = 0.5 * np.arange(20.0)
        y = np.concatenate([edge, edge + 0.5 - 1e-12])
        _assert_rel(backend.pairwise_gauss_sum(y, 1.0), _exact_pair_sum(y, 1.0), 1e-15)

    @pytest.mark.parametrize("n", [TILE - 1, TILE + 1])
    def test_tiled_oracle_matches_exact_sum(self, n):
        y = np.random.default_rng(n).standard_normal(n)
        _assert_rel(_tiled_pair_sum(y, 0.5), _exact_pair_sum(y, 0.5), 1e-13)

    @pytest.mark.parametrize("beta", [0.25, 1.0, 10.0])
    @pytest.mark.parametrize("dist", ["normal", "t3-rounded"])
    def test_matches_tiled_sum_at_large_n(self, dist, beta):
        rng = np.random.default_rng(20_000)
        if dist == "normal":
            y = rng.standard_normal(20_000)
        else:
            y = np.round(rng.standard_t(3, 20_000), 1)
        y = _standardized(y)
        gamma = 0.5 * beta * beta
        _assert_rel(backend.pairwise_gauss_sum(y, gamma), _tiled_pair_sum(y, gamma), 1e-12)

    @pytest.mark.parametrize("beta", [1e-3, 100.0])
    @pytest.mark.parametrize("n", [2, 3, 3000])
    def test_extreme_beta(self, n, beta):
        y = _standardized(np.random.default_rng(n).standard_normal(n))
        gamma = 0.5 * beta * beta
        _assert_rel(backend.pairwise_gauss_sum(y, gamma), _tiled_pair_sum(y, gamma), 1e-12)

    def test_outlier_leaves_most_boxes_empty(self):
        # the largest |y| a standardized sample of n can hold; at beta = 100
        # it sits more than 13,000 boxes beyond the bulk of the sample
        n = 10_000
        y = _standardized(np.random.default_rng(n).standard_normal(n))
        y[0] = math.sqrt(n - 1)
        gamma = 0.5 * 100.0**2
        _assert_rel(backend.pairwise_gauss_sum(y, gamma), _tiled_pair_sum(y, gamma), 1e-12)

    @pytest.mark.parametrize("n, beta", [(10**6, 0.25), (10**6, 1.0), (10**6, 10.0), (10**7, 1.0)])
    def test_matches_distinct_value_sum_at_huge_n(self, n, beta):
        v, c, y = _tied_sample(n, seed=n)
        gamma = 0.5 * beta * beta
        _assert_rel(backend.pairwise_gauss_sum(y, gamma), _distinct_value_sum(v, c, gamma), 1e-13)

    def test_repeat_calls_bit_identical(self):
        y = np.round(np.random.default_rng(7).standard_t(3, 5000), 1)
        assert backend.pairwise_gauss_sum(y, 2.0) == backend.pairwise_gauss_sum(y, 2.0)

    def test_interaction_matrices_built_once_and_read_only(self, monkeypatch):
        backend._interaction_matrices.cache_clear()
        sample = Sample(np.round(np.random.default_rng(11).standard_t(3, 3000), 1))
        kept = [epps_pulley_statistic(sample, TuningParam(beta)) for beta in (0.25, 1.0, 10.0)]
        info = backend._interaction_matrices.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        matrices = backend._interaction_matrices()
        assert len(matrices) == backend.REACH + 1
        assert not any(m_o.flags.writeable for m_o in matrices)
        # a fresh build on every call gives the same statistic, bit for bit
        monkeypatch.setattr(backend, "_interaction_matrices", backend._interaction_matrices.__wrapped__)
        fresh = [epps_pulley_statistic(sample, TuningParam(beta)) for beta in (0.25, 1.0, 10.0)]
        assert fresh == kept

    @pytest.mark.parametrize("y", [[0.0, 1e300], [0.0, np.inf], [0.0, np.nan]])
    def test_spread_beyond_box_grid_rejected(self, y):
        with pytest.raises(ValueError, match="box grid"):
            backend.pairwise_gauss_sum(np.array(y), 0.5)

    def test_memory_bounded_at_large_n(self):
        y = np.random.default_rng(20_000).standard_normal(20_000)
        assert _peak_bytes(y, 0.5) < 32 * 2**20

    def test_memory_bounded_at_huge_n(self):
        # the 8 MB input is allocated before tracing starts
        _, _, y = _tied_sample(10**6, seed=1)
        assert _peak_bytes(y, 0.5) < 16 * 2**20


class TestKernelGram:
    def test_matches_scalar_formula(self):
        y = np.array([0.0, -1.2, 2.0])
        gram = backend.kernel_gram(y)
        s, t = y[1], y[2]
        st = s * t
        expected = np.exp(-0.5 * (s - t) ** 2) - (1 + st + 0.5 * st * st) * np.exp(
            -0.5 * (s * s + t * t)
        )
        assert gram[1, 2] == pytest.approx(expected, rel=1e-15)
        # K(0, 0) = 1 - 1 = 0 exactly
        assert gram[0, 0] == 0.0

    @pytest.mark.parametrize("n", [3, 257, 700])
    def test_equals_kernel_and_is_symmetric(self, n):
        y = 2.0 * np.random.default_rng(n).standard_normal(n)
        gram = backend.kernel_gram(y)
        assert np.array_equal(gram, backend.kernel(y[:, None], y[None, :]))
        assert np.array_equal(gram, gram.T)


def test_selected_backend_exposes_kernels():
    assert callable(backend.pairwise_gauss_sum)
    assert callable(backend.kernel_gram)
    assert backend.backend_name() == "numpy"
