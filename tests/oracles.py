"""Slow or closed-form oracles shared by several test modules.

The three Gaussian smoothing identities are the closed forms that the
quadrature engine is checked against; ecf_distance_oracle is the
statistic's defining integral, evaluated by that engine; grid_spectrum
is the operator's spectrum on a deterministic grid.
"""

import math

import numpy as np

from eppspulley.backend import kernel
from eppspulley.quadrature import QuadratureConfig, integrate_1d, panel_rule
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
