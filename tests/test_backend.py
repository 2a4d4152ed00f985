"""The numpy kernels against slow oracles: the pair sum against an
exactly rounded full-matrix sum, the Gram matrix against the scalar
kernel, and the pair sum's working memory at large n."""

import math
import tracemalloc

import numpy as np
import pytest

from eppspulley import backend


def _exact_pair_sum(y, gamma):
    terms = np.exp(-gamma * np.square(y[:, None] - y[None, :]))
    return math.fsum(terms.ravel())


class TestPairwiseSum:
    def test_small_case_exact(self):
        y = np.array([0.0, 1.0, -1.0])
        # 3 diagonal ones + 2*(e^-g + e^-g + e^-4g) for gamma = 0.5
        expected = 3.0 + 2.0 * (2.0 * np.exp(-0.5) + np.exp(-2.0))
        assert backend.pairwise_gauss_sum(y, 0.5) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("gamma", [0.03125, 0.5, 50.0])
    @pytest.mark.parametrize("n", [2, 3, backend.TILE - 1, backend.TILE, backend.TILE + 1, 3000])
    def test_matches_exact_sum(self, n, gamma):
        y = np.random.default_rng(n).standard_normal(n)
        exact = _exact_pair_sum(y, gamma)
        assert abs(backend.pairwise_gauss_sum(y, gamma) - exact) <= 1e-12 * exact

    def test_memory_bounded_at_large_n(self):
        y = np.random.default_rng(20_000).standard_normal(20_000)
        tracemalloc.start()
        try:
            backend.pairwise_gauss_sum(y, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


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

    @pytest.mark.parametrize("n", [3, backend.GRAM_BLOCK + 1, 700])
    def test_equals_kernel_and_is_symmetric(self, n):
        y = 2.0 * np.random.default_rng(n).standard_normal(n)
        gram = backend.kernel_gram(y)
        assert np.array_equal(gram, backend.kernel(y[:, None], y[None, :]))
        assert np.array_equal(gram, gram.T)


def test_selected_backend_exposes_kernels():
    assert callable(backend.pairwise_gauss_sum)
    assert callable(backend.kernel_gram)
    assert backend.backend_name() == "numpy"
