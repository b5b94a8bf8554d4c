"""Exact heat-kernel computations in one dimension.

For z = heat smoothing of psi at time sigma/4, i.e.
``z(x) = (pi*sigma)^(-1/2) * int exp(-(x-y)^2/sigma) psi(y) dy``,
the fifth derivative at the origin reduces to a single weighted integral

    z^(5)(0) = 8 pi^(-1/2) sigma^(-3)
               * int exp(-y^2) [15 - 20 y^2 + 4 y^4] (y sqrt(sigma)) psi(y sqrt(sigma)) dy.

For the odd power psi(y) = |y|^alpha * y this evaluates in closed form to
``-c_alpha(alpha) * sigma^(-2 + alpha/2)``, which is what drives the
smoothing-time divergence measured elsewhere.  One fixed graded Gauss rule
evaluates the integral, for many sigma at once: the closed-form check and every
Duhamel slice run the same rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DomainError
from .numerics import gaussian_moment

__all__ = [
    "KernelProbe",
    "fifth_derivative_at_zero",
    "graded_fifth_derivatives",
    "c_alpha",
    "odd_power_probe",
]


@functools.cache
def _graded_rule():
    """Composite Gauss-Legendre on [0, 7], 12 nodes on each of 8 panels (96 nodes): 4
    graded by 0.15 toward the kink at y = 0 below y = 1, where fewer nodes per panel lose
    digits, and 4 above it with edges 1, 2, 3, 4.5 and 7, where the integrand is smooth
    but, at large sigma, oscillates with a coarse field's top modes, which unit panels up
    to y = 3 keep resolved.  The kernel's absolute weight beyond y = 7 is about 1e-17.
    The weights carry the odd kernel 8 pi^(-1/2) e^(-y^2) (15 - 20 y^2 + 4 y^4) y.  Built
    once, on first use."""
    edges = np.r_[0.0, 0.15 ** np.arange(3, 0, -1), 1.0, 2.0, 3.0, 4.5, 7.0]
    x, w = np.polynomial.legendre.leggauss(12)
    lo, hi = edges[:-1, None], edges[1:, None]
    y = (0.5 * (lo + hi) + 0.5 * (hi - lo) * x).ravel()
    kernel = 8.0 / math.sqrt(math.pi) * np.exp(-(y**2)) * (15.0 - 20.0 * y**2 + 4.0 * y**4) * y
    return y, (0.5 * (hi - lo) * w).ravel() * kernel


@dataclass(frozen=True)
class KernelProbe:
    """A function psi, heat-smoothed at time sigma/4."""

    psi: object
    sigma: float

    def __post_init__(self):
        if not (0.0 < self.sigma < math.inf):
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")


def odd_power_probe(alpha: float, sigma: float) -> KernelProbe:
    """Probe for psi(y) = |y|^alpha * y."""
    return KernelProbe(psi=lambda y: np.abs(y) ** alpha * y, sigma=sigma)


def graded_fifth_derivatives(odd, sigmas) -> np.ndarray:
    """Fifth x-derivative at x = 0 of the smoothed psi for each sigma, by the graded rule.

    The kernel is odd, so the value is sigma^-3 r sum_m k_m odd(y_m r), r = sqrt(sigma),
    for any psi, where ``odd(y) = psi(y) - psi(-y)`` is called once, on an (S, M) array
    whose row s holds the points y_m r_s >= 0 (a scalar result, as of a constant psi, is
    broadcast).  Each sigma must be positive and finite.
    """
    nodes, weights = _graded_rule()
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if sigmas.size == 0:
        raise DegenerateInput("need at least one sigma")
    if not np.all(np.isfinite(sigmas) & (sigmas > 0)):
        raise DomainError(f"every sigma must be positive and finite, got {sigmas}")
    roots = np.sqrt(sigmas)
    points = np.outer(roots, nodes)
    return roots**-5 * (np.broadcast_to(odd(points), points.shape) @ weights)


def fifth_derivative_at_zero(probe: KernelProbe) -> complex:
    """Fifth x-derivative of the smoothed probe at x = 0, by the graded rule."""
    psi = probe.psi
    return complex(graded_fifth_derivatives(lambda y: psi(y) - psi(-y), probe.sigma)[0])


def c_alpha(alpha: float) -> float:
    """Closed-form constant for the odd power |y|^alpha y.

    c_alpha = pi^(-1/2) * 32 alpha (2 - alpha) / ((alpha+3)(alpha+5))
              * Gamma((alpha+7)/2); positive on (0, 2), zero at alpha = 2.
    """
    if not (0.0 < alpha <= 2.0):
        raise DomainError(f"alpha must lie in (0, 2], got {alpha}")
    prefactor = 32.0 * alpha * (2.0 - alpha) / ((alpha + 3.0) * (alpha + 5.0))
    return prefactor * gaussian_moment(alpha + 6.0) / math.sqrt(math.pi)
