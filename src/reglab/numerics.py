"""Scalar numeric services: quadrature, the trapezoid rule (weights and the cumulative
integral), time stepping, Gaussian moments, log-log fits.

The quadrature is a Gauss-Kronrod 7-15 pair with deterministic bisection,
one level per integrand call; complex-valued integrands are supported
directly.  The depth cap turns a genuinely singular integrand into a
:class:`NonConvergence` error instead of silent inaccuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DomainError, NonConvergence, StepSizeError

__all__ = [
    "RegressionFit",
    "adaptive_quadrature",
    "trapezoid_weights",
    "central_difference",
    "step_count",
    "snapshot_steps",
    "gaussian_moment",
    "loglog_fit",
]

# Gauss-Kronrod 7-15 nodes/weights on [-1, 1] (QUADPACK dqk15 constants).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# Full 15-point node set in increasing order, plus matching weight tables.
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KRONROD_W = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_W = np.zeros(15)
_GAUSS_W[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


# Most open intervals per call of f.  Normal levels fit whole; a wider level is
# taken from the left in batches, which bounds memory if f never converges.
_BATCH = 1024
_MAX_DEPTH = 40  # bisection levels before an interval counts as singular


def adaptive_quadrature(f, a: float, b: float, rel_tol: float = 1e-10) -> complex:
    """Integrate a (possibly complex-valued) function over [a, b].

    f must be vectorized: it takes the 1-D node array and returns an array
    broadcastable to it, taken as complex128; whatever f raises propagates.

    Deterministic bisection: an interval is split until the local
    Kronrod-Gauss discrepancy is below its share of the tolerance, down to
    ``_MAX_DEPTH`` = 40 levels.  All open intervals of one level are evaluated in
    a single call of f, and the accepted panels are summed left to right.
    Raises :class:`NonConvergence` if any interval is still unresolved at
    the cap, which signals a singular integrand.
    """
    if not (a < b):
        raise DomainError(f"require a < b, got a={a}, b={b}")
    if not (1e-14 < rel_tol < 1e-2):
        raise DomainError(f"rel_tol must lie in (1e-14, 1e-2), got {rel_tol}")

    scale = None
    panels = []  # (left end, value) of accepted panels
    stack = [(a, b, 0)]  # open intervals (lo, hi, depth), leftmost last
    while stack:
        batch = stack[:-_BATCH - 1:-1]
        del stack[-_BATCH:]
        lo, hi, depth = (np.array(col) for col in zip(*batch))
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        nodes = mid[:, None] + half[:, None] * _NODES
        fx = np.empty(nodes.shape, np.complex128)
        fx.reshape(-1)[:] = f(nodes.reshape(-1))  # a view; broadcasts a constant
        kronrod = half * np.sum(_KRONROD_W * fx, axis=1)
        err = np.abs(kronrod - half * np.sum(_GAUSS_W * fx, axis=1))
        if scale is None:  # level 0, the whole interval, sets the scale
            scale = 1.0 + abs(kronrod[0])
        done = (err <= np.ldexp(rel_tol * scale, -depth)) | (err <= 1e-16 * scale)
        children = []
        for i in range(len(batch)):
            if done[i]:
                panels.append((lo[i], kronrod[i]))
            elif depth[i] >= _MAX_DEPTH:
                raise NonConvergence(f"quadrature did not converge on [{lo[i]}, {hi[i]}] "
                                     f"at depth {depth[i]}")
            else:
                children += [(lo[i], mid[i], depth[i] + 1), (mid[i], hi[i], depth[i] + 1)]
        stack += children[::-1]
    panels.sort(key=lambda panel: panel[0])
    return complex(np.cumsum([value for _, value in panels])[-1])  # sequential sum


def trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """Weights w with sum(w * f(times)) the trapezoid integral over ``times``."""
    weights = np.zeros(len(times))
    dtimes = np.diff(times)
    weights[:-1] += 0.5 * dtimes
    weights[1:] += 0.5 * dtimes
    return weights


def _cumtrapz(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid along axis 0, starting at 0."""
    dt = np.diff(times)[:, None]
    out = np.zeros_like(values)
    np.cumsum(0.5 * dt * (values[1:] + values[:-1]), axis=0, out=out[1:])
    return out


def central_difference(func, y: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Fourth-order central difference of a callable along y."""
    return (
        -func(y + 2 * step) + 8.0 * func(y + step)
        - 8.0 * func(y - step) + func(y - 2 * step)
    ) / (12.0 * step)


def step_count(T: float, dt: float) -> int:
    """Steps of size dt that reach T; :class:`StepSizeError` unless T/dt is
    within 1e-9*n of a positive integer n (a horizon is never rounded)."""
    ratio = T / dt
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(ratio - n) > 1e-9 * n:
        raise StepSizeError(f"T = {T} is not a positive integer multiple of dt = {dt}")
    return n


def snapshot_steps(n_steps: int, every: int) -> np.ndarray:
    """Indices of the steps a run of ``n_steps`` records: 0, every ``every``-th
    step and the last (:class:`DomainError` unless every >= 1)."""
    if every < 1:
        raise DomainError("snapshot_every must be >= 1")
    return np.unique(np.append(np.arange(0, n_steps + 1, every), n_steps))


def _time_index(times: np.ndarray, t: float, dt: float) -> int:
    """Index of the stored time nearest t; :class:`DomainError` unless t is
    finite and lies within dt/2 of it (plus 1e-12*max(1, |t|) for roundoff)."""
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > 0.5 * dt + 1e-12 * max(1.0, abs(t)):
        raise DomainError(f"t = {t} is not a stored time (nearest {times[i]})")
    return i


def gaussian_moment(beta: float) -> float:
    """Closed form of the even Gaussian moment: integral of e^{-y^2} |y|^beta.

    Equals Gamma((beta+1)/2) and satisfies the downward recursion
    ``moment(beta) = 2/(beta+1) * moment(beta+2)``.
    """
    if beta < 0:
        raise DomainError(f"gaussian_moment requires beta >= 0, got {beta}")
    return math.gamma(0.5 * (beta + 1.0))


@dataclass(frozen=True)
class RegressionFit:
    """Least-squares line through (log x, log y)."""

    slope: float
    intercept: float


def loglog_fit(xs, ys) -> RegressionFit:
    """Fit log(y) = slope*log(x) + intercept by unweighted least squares."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise DegenerateInput("xs and ys must be 1D arrays of equal length")
    if xs.size < 3:
        raise DegenerateInput(f"need at least 3 samples, got {xs.size}")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise DegenerateInput("all samples must be strictly positive")
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    if not np.isfinite(slope):
        raise DegenerateInput("regression slope is not finite")
    return RegressionFit(slope=float(slope), intercept=float(intercept))
