"""The two O(n^2) kernels in numpy: the pairwise Gaussian sum of the
test statistic and the Gram matrix of the limit-null covariance kernel.

The pair sum walks the upper triangle in fixed TILE x TILE tiles through
one preallocated buffer, so its working memory is one tile (8 MiB)
whatever n is.  The Gram matrix is n x n by definition; it is filled in
fixed row blocks to keep the temporaries small.  Partial sums are
combined with Neumaier compensation, and the tile and block sizes are
constants, so results are reproducible bit for bit.
"""

import numpy as np

TILE = 1024
GRAM_BLOCK = 256


def backend_name():
    """Name of the kernel implementation, kept for callers that record it."""
    return "numpy"


def kernel(s, t):
    """Covariance kernel of the limiting empirical characteristic
    function process with estimated mean and variance.  Symmetric in
    (s, t) exactly, including in floating point."""
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    st = s * t
    return np.exp(-0.5 * np.square(s - t)) - (1.0 + st + 0.5 * st * st) * np.exp(
        -0.5 * (np.square(s) + np.square(t))
    )


def _neumaier(total, comp, term):
    t = total + term
    if abs(total) >= abs(term):
        comp += (total - t) + term
    else:
        comp += (term - t) + total
    return t, comp


def pairwise_gauss_sum(y, gamma):
    """Sum of exp(-gamma*(y[j]-y[k])^2) over all ordered pairs (j, k).

    Diagonal tiles are summed in full; each off-diagonal tile is summed
    once and counted twice, by symmetry.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    n = y.size
    side = min(n, TILE)
    buf = np.empty(side * side, dtype=np.float64)
    total = 0.0
    comp = 0.0
    for i in range(0, n, TILE):
        rows = y[i:i + TILE, np.newaxis]
        for j in range(i, n, TILE):
            cols = y[np.newaxis, j:j + TILE]
            tile = buf[:rows.size * cols.size].reshape(rows.size, cols.size)
            np.subtract(rows, cols, out=tile)
            np.square(tile, out=tile)
            tile *= -gamma
            np.exp(tile, out=tile)
            part = float(np.sum(tile))
            total, comp = _neumaier(total, comp, part if i == j else 2.0 * part)
    return total + comp


def kernel_gram(y):
    """Matrix K(y[i], y[j]) of the limit-null covariance kernel."""
    y = np.ascontiguousarray(y, dtype=np.float64)
    n = y.size
    out = np.empty((n, n), dtype=np.float64)
    for start in range(0, n, GRAM_BLOCK):
        out[start:start + GRAM_BLOCK] = kernel(y[start:start + GRAM_BLOCK, np.newaxis], y)
    return out
