"""Exact heat-kernel computations in one dimension.

For z = heat smoothing of psi at time sigma/4, i.e.
``z(x) = (pi*sigma)^(-1/2) * int exp(-(x-y)^2/sigma) psi(y) dy``,
the fifth derivative at the origin reduces to a single weighted integral

    z^(5)(0) = 8 pi^(-1/2) sigma^(-3)
               * int exp(-y^2) [15 - 20 y^2 + 4 y^4] (y sqrt(sigma)) psi(y sqrt(sigma)) dy.

For the odd power psi(y) = |y|^alpha * y this evaluates in closed form to
``-c_alpha(alpha) * sigma^(-2 + alpha/2)``, which is what drives the
smoothing-time divergence measured elsewhere.  Probes are callables with a
declared polynomial growth bound so they can be sampled at y*sqrt(sigma)
for widely varying sigma.  A fixed graded Gauss rule takes many sigma at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DomainError
from .numerics import adaptive_quadrature, gaussian_moment

__all__ = [
    "KernelProbe",
    "gaussian_smooth",
    "fifth_derivative_at_zero",
    "graded_fifth_derivatives",
    "c_alpha",
    "odd_power_probe",
]

_TRUNCATION_RADIUS = 12.0  # exp(-144) < 1e-62, far below every tolerance
_GROWTH_SLACK = 100.0


@functools.cache
def _graded_rule():
    """Composite Gauss-Legendre on [0, 7], 12 nodes on each of 8 panels (96 nodes): 4
    graded by 0.15 toward the kink at y = 0 below y = 1, where fewer nodes per panel lose
    digits, and 4 above it with edges 1, 2, 3, 4.5 and 7, where the integrand is smooth
    but, at large sigma, oscillates with a coarse field's top modes, which unit panels up
    to y = 3 keep resolved.  The kernel's absolute weight beyond y = 7 is about 1e-17.
    The weights carry the odd kernel 8 pi^(-1/2) e^(-y^2) (15 - 20 y^2 + 4 y^4) y.  Built
    on first use, so a run without Duhamel slices loads neither numpy.polynomial nor
    LAPACK."""
    edges = np.r_[0.0, 0.15 ** np.arange(3, 0, -1), 1.0, 2.0, 3.0, 4.5, 7.0]
    x, w = np.polynomial.legendre.leggauss(12)
    lo, hi = edges[:-1, None], edges[1:, None]
    y = (0.5 * (lo + hi) + 0.5 * (hi - lo) * x).ravel()
    kernel = 8.0 / math.sqrt(math.pi) * np.exp(-(y**2)) * (15.0 - 20.0 * y**2 + 4.0 * y**4) * y
    return y, (0.5 * (hi - lo) * w).ravel() * kernel


@dataclass(frozen=True)
class KernelProbe:
    """A sampled function psi with growth bound |psi(x)| <= C (1 + |x|^m)."""

    psi: object
    sigma: float
    m: float = 0.0

    def __post_init__(self):
        if not (self.sigma > 0):
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if self.m < 0:
            raise DomainError(f"growth exponent m must be >= 0, got {self.m}")
        # sampling sanity check of the declared growth bound, in one call of psi
        radii = (1.0, 10.0, 100.0)
        points = np.outer(radii, [-1.0, 1.0]).ravel()
        vals = np.broadcast_to(self.psi(points), points.shape)
        peaks = np.max(np.abs(vals).reshape(len(radii), 2), axis=1)
        base = max(1.0, float(peaks[0]))
        for radius, peak in zip(radii[1:], peaks[1:]):
            if peak > _GROWTH_SLACK * base * (1.0 + radius**self.m):
                raise DomainError(
                    f"psi violates declared growth bound m={self.m} at |x|={radius}"
                )


def odd_power_probe(alpha: float, sigma: float) -> KernelProbe:
    """Probe for psi(y) = |y|^alpha * y."""

    def psi(y):
        return np.abs(y) ** alpha * y

    return KernelProbe(psi=psi, sigma=sigma, m=alpha + 1.0)


def gaussian_smooth(probe: KernelProbe, x: float, rel_tol: float = 1e-10) -> complex:
    """Heat smoothing of psi at time sigma/4, evaluated at x."""
    sigma = probe.sigma
    width = _TRUNCATION_RADIUS * math.sqrt(sigma)

    def integrand(y):
        return np.exp(-((x - y) ** 2) / sigma) * probe.psi(y)

    val = adaptive_quadrature(integrand, x - width, x + width, rel_tol)
    return val / math.sqrt(math.pi * sigma)


def fifth_derivative_at_zero(probe: KernelProbe, rel_tol: float = 1e-10) -> complex:
    """Fifth x-derivative of the smoothed probe at x = 0 (single quadrature)."""
    sigma = probe.sigma
    root = math.sqrt(sigma)

    def integrand(y):
        poly = 15.0 - 20.0 * y**2 + 4.0 * y**4
        return np.exp(-(y**2)) * poly * (y * root) * probe.psi(y * root)

    val = adaptive_quadrature(integrand, -_TRUNCATION_RADIUS, _TRUNCATION_RADIUS, rel_tol)
    return 8.0 / math.sqrt(math.pi) * sigma**-3 * val


def graded_fifth_derivatives(odd, sigmas) -> np.ndarray:
    """:func:`fifth_derivative_at_zero` of psi for each sigma by the fixed graded rule.

    The kernel is odd, so the value is sigma^-3 r sum_m k_m odd(y_m r), r = sqrt(sigma),
    for any psi, where ``odd(y) = psi(y) - psi(-y)`` is called once, on an (S, M) array
    whose row s holds the points y_m r_s >= 0.  Each sigma must be positive and finite.
    """
    nodes, weights = _graded_rule()
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if sigmas.size == 0:
        raise DegenerateInput("need at least one sigma")
    if not np.all(np.isfinite(sigmas) & (sigmas > 0)):
        raise DomainError(f"every sigma must be positive and finite, got {sigmas}")
    roots = np.sqrt(sigmas)
    return roots**-5 * (odd(np.outer(roots, nodes)) @ weights)


def c_alpha(alpha: float) -> float:
    """Closed-form constant for the odd power |y|^alpha y.

    c_alpha = pi^(-1/2) * 32 alpha (2 - alpha) / ((alpha+3)(alpha+5))
              * Gamma((alpha+7)/2); positive on (0, 2), zero at alpha = 2.
    """
    if not (0.0 < alpha <= 2.0):
        raise DomainError(f"alpha must lie in (0, 2], got {alpha}")
    prefactor = 32.0 * alpha * (2.0 - alpha) / ((alpha + 3.0) * (alpha + 5.0))
    return prefactor * gaussian_moment(alpha + 6.0) / math.sqrt(math.pi)
