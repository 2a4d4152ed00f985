"""The covariance kernel K(s, t) of the limit-null process and the two
O(n^2) kernels in numpy: the pairwise Gaussian sum of the test statistic
and the dense Gram matrix of K.

The pair sum walks the upper triangle in fixed TILE x TILE tiles through
one preallocated buffer, so its working memory is one tile (8 MiB)
whatever n is.  The Gram matrix is n x n by definition; it is filled in
fixed row blocks to keep the temporaries small.  The library's spectrum
never forms it (see spectral); it is kept as the dense reference that
tests compare the factorised spectrum against.  Partial sums are
combined with Neumaier compensation, and the tile and block sizes are
constants, so results are reproducible bit for bit.
"""

import math

import numpy as np

TILE = 1024
GRAM_BLOCK = 256

# Below this |x| = |s*t| the bracket e^x - 1 - x - x^2/2 of the kernel
# is summed as its Taylor series; above it the direct form loses at most
# about 12 ulp to cancellation.  The terms x^n/n! for n = 3..18 reach the
# last bit of the sum for |x| < 1.  Row k of the matrix holds the
# coefficients of x^(4k+3) .. x^(4k+6), for Estrin's scheme in x^4.
_SERIES_CUTOFF = 1.0
_SERIES_COEFFS = np.array([1.0 / math.factorial(n) for n in range(3, 19)]).reshape(4, 4)


def _bracket_series(x):
    """e^x - 1 - x - x^2/2 for |x| < _SERIES_CUTOFF, to full relative
    accuracy; x is a real or complex 1-D array."""
    powers = np.empty((4, x.size), dtype=x.dtype)
    powers[0] = 1.0
    powers[1] = x
    np.multiply(x, x, out=powers[2])
    np.multiply(powers[2], x, out=powers[3])
    rows = _SERIES_COEFFS @ powers
    x4 = np.square(powers[2])
    acc = rows[3]
    for k in (2, 1, 0):
        acc = acc * x4 + rows[k]
    return powers[3] * acc


def backend_name():
    """Name of the kernel implementation, kept for callers that record it."""
    return "numpy"


def kernel(s, t):
    """Covariance kernel of the limiting empirical characteristic
    function process with estimated mean and variance,

        K(s, t) = exp(-(s^2+t^2)/2) * (e^x - 1 - x - x^2/2),  x = s*t.

    Near x = 0 the bracket is summed as its Taylor series, so K keeps
    full relative accuracy where the direct form cancels to zero; away
    from it the direct form exp(-(s-t)^2/2) - (1+x+x^2/2) exp(-(s^2+t^2)/2)
    is used, since e^x alone overflows for large s*t.  Symmetric in
    (s, t) exactly, including in floating point."""
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    st = s * t
    damp = np.exp(-0.5 * (np.square(s) + np.square(t)))
    out = np.asarray(np.exp(-0.5 * np.square(s - t)) - (1.0 + st + 0.5 * st * st) * damp)
    small = np.abs(st) < _SERIES_CUTOFF
    if np.any(small):
        out[small] = damp[small] * _bracket_series(st[small])
    return out


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
