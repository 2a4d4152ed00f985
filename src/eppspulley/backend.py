"""The covariance kernel K(s, t) of the limit-null process, the
pairwise Gaussian sum of the test statistic and the dense Gram matrix
of K, in numpy.

The pair sum sum_{j,k} exp(-gamma (y_j - y_k)^2) is a fast Gauss
transform (Greengard & Strain, "The fast Gauss transform", SIAM J. Sci.
Stat. Comput. 12, 1991) that is exact up to roundoff.  The points
z = sqrt(gamma) y are binned into boxes of width h = BOX_WIDTH, each
occupied box keeps the power sums sum a^k (k < p = P_TERMS) of its
points' offsets a from the box centre, and box pairs interact through a
p x p matrix of scaled derivatives of e^(-u^2) (see pairwise_gauss_sum).
Error per pair:

* truncation: every dropped Taylor term has degree n >= p, and Cramer's
  inequality |f^(n)(u)| <= 1.0865 sqrt(2^n n!) for f(u) = e^(-u^2)
  bounds their sum by 1.25 (sqrt(2) h)^p / sqrt(p!) < 7.6e-18 < eps / 16;
* cutoff: boxes more than REACH apart hold points at least REACH * h =
  6.5 apart, whose terms e^(-6.5^2) < 4.5e-19 are left out.

So the result is the exact sum up to roundoff, a few ulp relative.  The
cost is O(n p) for the power sums plus O(B (REACH + 1) p^2) for B occupied
boxes, and the working memory is O(CHUNK p + B p): points are read in
fixed chunks of CHUNK, and no (n, p) array is formed.

The Gram matrix is n x n by definition, built in one kernel call.  The
library's spectrum never forms it (see spectral); it is kept as the dense
reference that tests compare the factorised spectrum against.
"""

import functools
import math

import numpy as np

# Fast Gauss transform: box width in z = sqrt(gamma) y, Taylor terms per
# box, the largest box offset that interacts, and points per chunk.
BOX_WIDTH = 0.5
P_TERMS = 26
REACH = 13
CHUNK = 8192
# box indices and centres stay exact integers and halves in float64
# while the scaled spread of the points is below this
MAX_SPREAD = 2.0**50

# Below this |x| = |s*t| the bracket e^x - 1 - x - x^2/2 of the kernel
# is summed as its Taylor series; above it the direct form loses at most
# about 12 ulp to cancellation.  The terms x^n/n! for n = 3..18 reach the
# last bit of the sum for |x| < 1.  Row k of the matrix holds the
# coefficients of x^(4k+3) .. x^(4k+6), for Estrin's scheme in x^4.
_SERIES_CUTOFF = 1.0
_SERIES_COEFFS = np.array([1.0 / math.factorial(n) for n in range(3, 19)]).reshape(4, 4)


def _bracket_series(x):
    """e^x - 1 - x - x^2/2 for |x| < _SERIES_CUTOFF, to full relative
    accuracy; x is a real 1-D array."""
    powers = np.empty((4, x.size))
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
    is used, since e^x alone overflows for large s*t.  Where damp
    underflows to 0 the exact product (1+x+x^2/2) damp is below the
    smallest subnormal while x^2 may overflow, so x is taken as 0 there
    rather than forming inf * 0.  Symmetric in (s, t) exactly, including
    in floating point.  s * t, s^2, t^2 and (s - t)^2 overflow to inf only
    where damp or exp(-(s-t)^2/2) is 0 either way, so their overflow is
    not reported."""
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore"):
        st = s * t
        damp = np.exp(-0.5 * (np.square(s) + np.square(t)))
        gauss = np.exp(-0.5 * np.square(s - t))
    x = np.where(damp == 0.0, 0.0, st)
    out = np.asarray(gauss - (1.0 + x + 0.5 * x * x) * damp)
    small = np.abs(st) < _SERIES_CUTOFF
    out[small] = damp[small] * _bracket_series(st[small])
    return out


def _box_moments(y, scale, origin):
    """Sorted indices (integer-valued floats) of the occupied boxes of
    z = scale * (y - origin) and, per box, the power sums sum a^k
    (k < P_TERMS) over its points' offsets a.

    The points are read in chunks and never reordered; np.unique makes
    a chunk's box indices dense, so the cost does not depend on how far
    apart the occupied boxes lie."""
    boxes = np.empty(0)
    moments = np.empty((0, P_TERMS))
    for start in range(0, y.size, CHUNK):
        z = scale * (y[start:start + CHUNK] - origin)
        box = np.floor(z / BOX_WIDTH)
        offset = z - (box + 0.5) * BOX_WIDTH
        ids, slot = np.unique(box, return_inverse=True)
        chunk_moments = np.empty((ids.size, P_TERMS))
        power = np.ones_like(offset)
        for k in range(P_TERMS):
            chunk_moments[:, k] = np.bincount(slot, weights=power, minlength=ids.size)
            power *= offset
        # with return_inverse np.unique does not import numpy.ma (1 MiB);
        # np.union1d and plain np.unique do
        boxes, where = np.unique(np.concatenate((boxes, ids)), return_inverse=True)
        grown = np.zeros((boxes.size, P_TERMS))
        grown[where[:moments.shape[0]]] = moments
        grown[where[moments.shape[0]:]] += chunk_moments
        moments = grown
    return boxes, moments


@functools.cache
def _interaction_matrices():
    """M_o[j, k] = (-1)^k f^(j+k)(o h) / (j! k!) for f(u) = e^(-u^2) and
    o = 0..REACH, by the recurrence f^(n+1) = -2u f^(n) - 2n f^(n-1).

    They depend on the module constants alone, so they are built once
    per process, on the first pair sum, as a tuple of read-only arrays."""
    u = BOX_WIDTH * np.arange(REACH + 1)
    deriv = np.empty((2 * P_TERMS - 1, u.size))
    deriv[0] = np.exp(-u * u)
    deriv[1] = -2.0 * u * deriv[0]
    for n in range(1, 2 * P_TERMS - 2):
        deriv[n + 1] = -2.0 * u * deriv[n] - 2.0 * n * deriv[n - 1]
    j = np.arange(P_TERMS)
    inverse = np.array([1.0 / math.factorial(k) for k in j])
    scale = np.outer(inverse, np.where(j % 2 == 0, inverse, -inverse))
    matrices = tuple(deriv[j[:, None] + j[None, :], o] * scale for o in range(REACH + 1))
    for m_o in matrices:
        m_o.flags.writeable = False
    return matrices


def pairwise_gauss_sum(y, gamma):
    """Sum of exp(-gamma*(y[j]-y[k])^2) over all ordered pairs (j, k),
    diagonal included, to within the module's error bound.

    A point at offset a in box T and one at offset b in box T - o
    contribute f(o h + a - b), whose Taylor series splits into
    sum_{j,k} a^j M_o[j, k] b^k, so the pair sum is sum_o sum_T
    m_T^T M_o m_(T-o) over the boxes' power sums m.  Offsets o and -o
    give equal sums: o runs over 0..REACH and the nonzero ones count
    twice.  The per-offset sums are combined with math.fsum in a fixed
    order, so repeated calls are bit-identical.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    scale = math.sqrt(gamma)
    origin = float(np.min(y))
    spread = scale * (float(np.max(y)) - origin)
    if not spread < MAX_SPREAD:
        raise ValueError(f"sqrt(gamma) * (max(y) - min(y)) = {spread} is beyond the box grid")
    boxes, moments = _box_moments(y, scale, origin)
    parts = []
    for o, m_o in enumerate(_interaction_matrices()):
        # boxes T whose partner T - o is occupied, and that partner's row
        pos = np.searchsorted(boxes, boxes - o)
        rows = np.flatnonzero(boxes[pos] == boxes - o)
        part = float(np.sum((moments[rows] @ m_o) * moments[pos[rows]]))
        parts.append(part if o == 0 else 2.0 * part)
    return math.fsum(parts)


def kernel_gram(y):
    """Matrix K(y[i], y[j]) of the limit-null covariance kernel."""
    y = np.asarray(y, dtype=np.float64)
    return kernel(y[:, None], y[None, :])
