"""Parametric alternative families embedding the standard normal at
theta = 0.

Each family carries its density g(x; theta) together with its analytic
theta-derivative at 0 (d1).  The local index and the likelihood ratio
benchmark depend on d1 alone; finite differences cross-check it in
tests.

All callables are vectorized over x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .quadrature import log_normal_cdf, normal_cdf, normal_pdf

__all__ = [
    "AlternativeFamily",
    "TABLE_FAMILIES",
    "contamination",
    "family_from_name",
    "lehmann",
    "ley_paindaveine_1",
    "ley_paindaveine_2",
]


@dataclass(frozen=True, eq=False)
class AlternativeFamily:
    """Density family g(x; theta) with g(x; 0) the standard normal.

    theta_domain is the open interval on which the defining formulas are
    evaluated.  Mixtures are genuine nonnegative densities only on the
    part of it where their weight lies in [0, 1].

    d2 is set by no factory and read by no library code.  It stays only
    because the benchmark harness in perfbench/ passes d2= to
    dataclasses.replace; it goes with that harness's next revision.
    """

    name: str
    density: Callable
    d1: Callable
    theta_domain: tuple[float, float]
    d2: Callable | None = field(default=None, kw_only=True)


def lehmann() -> AlternativeFamily:
    """Distribution function raised to the power 1 + theta:
    g(x; theta) = (1+theta) * Phi(x)^theta * phi(x).

    Phi^theta is computed as exp(theta * log Phi) so the far left tail
    stays finite.
    """

    def density(x, theta):
        return (1.0 + theta) * np.exp(theta * log_normal_cdf(x)) * normal_pdf(x)

    def d1(x):
        logp = log_normal_cdf(x)
        return normal_pdf(x) * (1.0 + logp)

    return AlternativeFamily("lehmann", density, d1, (-0.9, 1.0))


def ley_paindaveine_1() -> AlternativeFamily:
    """Exponentially tilted family
    g(x; theta) = phi(x) * exp(-theta*(1-Phi(x))) * (1 + theta*Phi(x))."""

    def density(x, theta):
        p = normal_cdf(x)
        return normal_pdf(x) * np.exp(-theta * (1.0 - p)) * (1.0 + theta * p)

    def d1(x):
        return normal_pdf(x) * (2.0 * normal_cdf(x) - 1.0)

    return AlternativeFamily("lp1", density, d1, (-1.0, 1.0))


def ley_paindaveine_2() -> AlternativeFamily:
    """Cosine perturbation g(x; theta) = phi(x) * (1 - theta*pi*cos(pi*Phi(x)))."""

    def density(x, theta):
        return normal_pdf(x) * (1.0 - theta * math.pi * np.cos(math.pi * normal_cdf(x)))

    def d1(x):
        return -math.pi * normal_pdf(x) * np.cos(math.pi * normal_cdf(x))

    bound = 1.0 / math.pi
    return AlternativeFamily("lp2", density, d1, (-bound, bound))


def contamination(mu: float, sigma2: float) -> AlternativeFamily:
    """Normal mixture (1-theta)*N(0,1) + theta*N(mu, sigma2).

    The formula is linear in theta, but it is a genuine density only for
    theta in [0, 1]; theta_domain reaches below 0 so that finite
    differences in theta can straddle the null.
    """
    mu = float(mu)
    sigma2 = float(sigma2)
    if not (math.isfinite(mu) and 0.0 < sigma2 < math.inf):
        raise ValueError(f"mu must be finite and sigma2 finite and positive, got {mu}, {sigma2}")
    if mu == 0.0 and sigma2 == 1.0:
        raise ValueError(
            "degenerate contamination: N(0,1) contaminated by itself is the null for every theta"
        )
    sigma = math.sqrt(sigma2)

    def density(x, theta):
        x = np.asarray(x, dtype=np.float64)
        return (1.0 - theta) * normal_pdf(x) + (theta / sigma) * normal_pdf((x - mu) / sigma)

    def d1(x):
        x = np.asarray(x, dtype=np.float64)
        return normal_pdf((x - mu) / sigma) / sigma - normal_pdf(x)

    name = f"contam:{mu:g}:{sigma2:g}"
    return AlternativeFamily(name, density, d1, (-0.5, 1.0))


#: Row order of the efficiency table emitted by the CLI.
TABLE_FAMILIES = ("lehmann", "lp1", "lp2", "contam:1:1", "contam:0.5:1", "contam:0:0.5")

# factories of the families named without parameters
_NAMED_FAMILIES = {"lehmann": lehmann, "lp1": ley_paindaveine_1, "lp2": ley_paindaveine_2}


def family_from_name(name: str) -> AlternativeFamily:
    """Resolve 'lehmann', 'lp1', 'lp2' or 'contam:MU:SIGMA2'."""
    if name in _NAMED_FAMILIES:
        return _NAMED_FAMILIES[name]()
    if name.startswith("contam:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise ValueError(f"contamination spec must be 'contam:MU:SIGMA2', got {name!r}")
        try:
            mu, sigma2 = float(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"contamination spec must be numeric, got {name!r}") from None
        return contamination(mu, sigma2)
    raise ValueError(f"unknown alternative family: {name!r}")
