"""Slow or closed-form oracles shared by several test modules.

The three Gaussian smoothing identities are the closed forms that the
quadrature engine is checked against; ecf_distance_oracle is the
statistic's defining integral, evaluated by that engine; grid_spectrum
is the operator's spectrum on a deterministic grid; mehler_basis is the
Mehler route's basis by quadrature, and mehler_bisection its eigenvalues
by bisection on the inertia count.
"""

import math

import numpy as np

from eppspulley.backend import kernel
from eppspulley.quadrature import QuadratureConfig, integrate_1d, panel_rule
from eppspulley.spectral import _mehler_constants
from eppspulley.statistic import Sample, scaled_residuals

SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian_pair_moment(k, gamma):
    """Closed form of the double integral of
    exp(-gamma*(x-y)^2) * (x-y)^(2k) * phi(x) * phi(y)
    over the plane: 4^k Gamma(k+1/2) / (sqrt(pi) (4 gamma + 1)^(k+1/2)).
    """
    return 4.0**k * math.gamma(k + 0.5) / (math.sqrt(math.pi) * (4.0 * gamma + 1.0) ** (k + 0.5))


def smoothed_density_identity(y, gamma):
    """Closed form of the Gaussian-smoothed normal density
    integral of exp(-gamma*(x-y)^2) * phi(x) over x, which equals
    (1+beta^2)^(-1/2) * exp(-delta*y^2) with beta^2 = 2*gamma and
    delta = gamma/(1+2*gamma)."""
    delta = gamma / (1.0 + 2.0 * gamma)
    return np.exp(-delta * np.square(y)) / math.sqrt(1.0 + 2.0 * gamma)


def smoothed_second_moment_identity(x, gamma):
    """Closed form of the second-moment smoothing integral of
    exp(-gamma*(x-y)^2) * (x-y)^2 * phi(y) over y, which equals
    exp(-delta*x^2) * (x^2 + beta^2 + 1) / (1+beta^2)^(5/2) with
    beta^2 = 2*gamma and delta = gamma/(1+2*gamma)."""
    beta2 = 2.0 * gamma
    delta = gamma / (1.0 + beta2)
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-delta * np.square(x)) * (np.square(x) + beta2 + 1.0) / (1.0 + beta2) ** 2.5


def ecf_distance_oracle(values, beta, radius=40.0):
    """n times the weighted squared L2 distance between the empirical
    characteristic function of the scaled residuals and exp(-t^2/2),
    by direct numerical integration of the defining integrand."""
    y = scaled_residuals(Sample(values))
    n = y.size
    cfg = QuadratureConfig(truncation_radius=radius, tol=1e-12, max_subdivisions=4000)

    def integrand(t):
        ty = np.outer(t, y)
        real = np.cos(ty).mean(axis=1) - np.exp(-0.5 * np.square(t))
        imag = np.sin(ty).mean(axis=1)
        weight = np.exp(-0.5 * np.square(t / beta)) / (beta * SQRT_2PI)
        return n * (np.square(real) + np.square(imag)) * weight

    return integrate_1d(integrand, cfg).value


def grid_spectrum(beta, panels):
    """Eigenvalues, in descending order, of the limit-null covariance
    operator discretized on the K15 rule of panels equal panels on
    [-9 beta, 9 beta], its weights times the N(0, beta^2) density: one
    dense eigvalsh of sqrt(w) K sqrt(w).  At panels = max(8, ceil(6 beta))
    the eigenvalue sum is within 2e-12 relative of operator_trace."""
    x, w = panel_rule(9.0 * beta, panels)
    root = np.sqrt(w * np.exp(-0.5 * np.square(x / beta)) / (beta * SQRT_2PI))
    return np.linalg.eigvalsh(root[:, None] * kernel(x[:, None], x) * root)[::-1]


def mehler_basis(beta, size):
    """lambda_j and U (size x 3) of the Mehler route by quadrature: U_jk
    is the trapezoid rule with step 0.05 on |x| <= 12, on x >= 0 by
    parity, of e_j sqrt(phi_beta) f_k.

    The Hermite functions psi_j = n_j h_j are streamed as
    h_(j+1) = gamma_j y h_j - h_(j-1), with n_0 = n_1 = 1 and
    n_(j+1) = sqrt(j/(j+1)) n_(j-1): two elementwise operations per j,
    512 rows at a time, each block summed against the weighted f_k in
    one einsum.  The rule converges geometrically for these entire
    integrands (Trefethen & Weideman, SIAM Rev. 56, 2014)."""
    step, nodes, block = 0.05, 241, 512
    a, c, big_a, ratio, _ = _mehler_constants(beta)
    lam = math.sqrt(2.0 * a / big_a) * ratio ** np.arange(size)
    x = np.arange(nodes) * step
    weights = np.full(nodes, 2.0 * step)  # both halves of |x| <= 12
    weights[[0, -1]] = step
    g = weights * np.exp(-(a + 0.5) * np.square(x)) / math.sqrt(math.sqrt(2.0 * math.pi) * beta)
    features = np.stack([g, g * x, g * np.square(x) / math.sqrt(2.0)])
    j = np.arange(size + 1.0)
    norm = np.ones(size + 1)
    steps = np.sqrt(j[1:-1] / j[2:])  # sqrt(j/(j+1)), j = 1..size-1
    norm[2::2] = np.cumprod(steps[0::2])
    norm[3::2] = np.cumprod(steps[1::2])
    gamma = np.sqrt(2.0 / j[1:]) * norm[:-1] / norm[1:]
    y = math.sqrt(2.0 * c) * x
    rows = np.empty((block + 1, nodes))
    rows[0] = 0.0  # h_(-1)
    rows[1] = np.exp(-0.5 * np.square(y)) / math.pi**0.25
    u = np.empty((size, 3))
    parity = (np.arange(size)[:, None] + np.arange(3)) % 2 == 0
    for start in range(0, size, block - 1):
        stop = min(start + block - 1, size)
        if start:
            rows[:2] = rows[-2:]  # h_(start-1) and h_start
        slopes = np.multiply.outer(gamma[start:stop], y)
        for i in range(stop - start):
            np.multiply(slopes[i], rows[i + 1], out=rows[i + 2])
            rows[i + 2] -= rows[i]
        u[start:stop] = np.einsum("jx,kx->jk", rows[1:stop - start + 1], features)
    u *= (math.sqrt(math.sqrt(2.0 * c)) * norm[:size])[:, None]
    return lam, np.where(parity, u, 0.0)


def mehler_bisection(lam, u, index):
    """The eigenvalues of the given ranks of D - U U^T, all at once, by
    bisection on [lambda_(i+3), lambda_i] (0 past the basis) down to
    adjacent floats, each the upper end of its final interval: the
    Mehler route's solver before it solved each parity block's secular
    equations (spectral._mehler_roots), about 52 counts per rank.

    By the parity of U, I_3 - U^T (D - t)^-1 U is 1 - q_1 beside the
    2 x 2 block [[1 - q_0, -q_3], [-q_3, 1 - q_2]], where q sums
    u_0^2, u_1^2, u_2^2 and u_0 u_2 over lambda_j - t; the block has 2
    positive eigenvalues if its determinant and trace are positive, 1 if
    the determinant is negative, or is 0 with a positive trace, and else
    none."""
    pairs = np.stack([np.square(u[:, 0]), np.square(u[:, 1]), np.square(u[:, 2]),
                      u[:, 0] * u[:, 2]])
    falling = -lam
    pad = np.concatenate([lam, np.zeros(index[-1] + 4)])
    lo, hi = pad[index + 3].copy(), pad[index].copy()
    # the only lambda_j inside (lo, hi), where D - t is singular
    poles = pad[index[:, None] + np.arange(1, 3)]
    buffer = np.empty((index.size, lam.size))
    while True:
        t = 0.5 * (lo + hi)
        on_pole = np.any(t[:, None] == poles, axis=1)
        t[on_pole] = np.nextafter(t[on_pole], hi[on_pole])
        live = (lo < t) & (t < hi)
        if not live.any():
            return hi
        tl = t[live]
        inverse = np.subtract(lam, tl[:, None], out=buffer[:tl.size])
        np.divide(1.0, inverse, out=inverse)
        q = np.einsum("pj,tj->pt", pairs, inverse)
        trace = 2.0 - q[0] - q[2]
        det = (1.0 - q[0]) * (1.0 - q[2]) - np.square(q[3])
        positive = (q[1] < 1.0) + np.where(det < 0.0, 1, (trace > 0.0) * (1 + (det > 0.0)))
        above = np.searchsorted(falling, -tl) + positive - 3 > index[live]
        lo[live] = np.where(above, tl, lo[live])
        hi[live] = np.where(above, hi[live], tl)
