"""Exact and numerical machinery for the pointwise ODE w_t = lam*|w|^alpha*w.

The unperturbed equation has closed-form solutions; the perturbed equation
w_t = lam*|w|^alpha*w + h(t, y) is integrated per grid point by classical
RK4, together with the spatial-derivative track v = w_y which obeys

    v_t = lam*(alpha+2)/2 * |w|^alpha * v
          + lam*alpha/2 * |w|^(alpha-2) * w^2 * conj(v) + h_y.

Integrating v via its own equation (rather than differencing w) keeps full
accuracy near the kink that develops at y = 0.  The |w|^(alpha-2)*w^2 factor
is defined as 0 at w = 0 (its modulus is |w|^alpha -> 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BlowUpError,
    DegenerateInput,
    DomainError,
    SizeMismatch,
    StepSizeError,
)
from .grids import Grid1D, _as_grid, ladder_columns, ladder_increments
from .numerics import RegressionFit, _cumtrapz, _time_index, snapshot_steps, step_count

__all__ = [
    "NonlinearityParams",
    "OdeRun",
    "HolderDefectReport",
    "exact_solution",
    "exact_flow",
    "exact_first_derivative",
    "exact_second_derivative",
    "integrate_perturbed",
    "integrating_factor",
    "representation_check",
    "holder_defect",
]


@dataclass(frozen=True)
class NonlinearityParams:
    """Nonlinearity exponent alpha, complex coupling lam, diffusion angle theta.

    lam = 0 is accepted as the linear-control limit (nonlinearity switched
    off), although the singularity mechanism itself needs lam != 0.
    """

    alpha: float
    lam: complex
    theta: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise DomainError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not (-np.pi / 2 <= self.theta <= np.pi / 2):
            raise DomainError(f"theta must lie in [-pi/2, pi/2], got {self.theta}")
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "theta", float(self.theta))


def _flow_factor(params: NonlinearityParams, mag_a, t: float):
    """(base, w(t)/w(0)) = (1 - alpha t Re(lam) |w|^alpha, base^(-lam/(alpha Re lam))),
    or (1, exp(i t Im(lam) |w|^alpha)) for Re lam = 0; :class:`BlowUpError`
    once t reaches the blow-up time of the largest |w|^alpha.  log(base) is a
    log1p, which keeps its digits when |Re lam| is small.

    The factor is real for Im lam = 0, and for Re lam = 0 its real and
    imaginary parts are a cos and a sin: neither needs a complex exp."""
    lam, alpha = params.lam, params.alpha
    if lam.real == 0.0:
        phase = t * mag_a * lam.imag
        factor = np.empty(np.shape(phase), dtype=np.complex128)
        factor.real = np.cos(phase)
        factor.imag = np.sin(phase)
        return 1.0, factor
    growth = alpha * t * lam.real * mag_a
    base = 1.0 - growth
    if lam.real > 0 and np.min(base) <= 0.0:
        critical = 1.0 / (alpha * float(np.max(mag_a)) * lam.real)
        raise BlowUpError(
            f"blow-up at t = {critical:.6g} reached before t = {t}", time=critical
        )
    if lam.imag == 0.0:
        return base, np.exp(-np.log1p(-growth) / alpha)
    return base, np.exp(-lam / (alpha * lam.real) * np.log1p(-growth))


def exact_flow(params: NonlinearityParams, values, t: float):
    """Exact time-t flow of w' = lam*|w|^alpha*w from arbitrary complex data.

    Vectorized over ``values``.  For Re lam > 0 raises :class:`BlowUpError`
    as soon as t reaches the blow-up time of the largest sample.
    """
    v = np.asarray(values, dtype=np.complex128)
    if t == 0.0 or params.lam == 0:
        return v.copy()
    return v * _flow_factor(params, np.abs(v) ** params.alpha, t)[1]


def exact_solution(params: NonlinearityParams, phi_value: complex, t: float) -> complex:
    """Closed-form solution at time t >= 0 with initial value ``phi_value``."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    return complex(exact_flow(params, np.asarray(phi_value), t))


def exact_first_derivative(params: NonlinearityParams, x: float, t: float) -> complex:
    """d/dx of the exact solution with initial data phi(x) = x."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    lam, alpha = params.lam, params.alpha
    mag_a = abs(x) ** alpha
    base, factor = _flow_factor(params, mag_a, t)
    return complex((1.0 + 1j * alpha * t * mag_a * lam.imag) * factor / base)


def exact_second_derivative(params: NonlinearityParams, x: float, t: float) -> complex:
    """d^2/dx^2 of the exact solution with initial data phi(x) = x (x != 0)."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    if x == 0.0:
        raise DomainError("second derivative is undefined at x = 0")
    lam, alpha = params.lam, params.alpha
    mag_a = abs(x) ** alpha
    base, factor = _flow_factor(params, mag_a, t)
    bracket = lam + alpha * lam.real + 1j * alpha * lam.imag * (1.0 + lam * t * mag_a)
    return complex(alpha * t * mag_a / x * factor / base**2 * bracket)


_TINY = float(np.finfo(float).tiny)
_MAX_AMPLITUDE = 1e6  # a larger |w| in integrate_perturbed counts as blow-up
_SUBNORMAL_SCALE = 2.0**54  # exact, and lifts |w| >= 2^-1074 above _TINY


def _conj_factor(w: np.ndarray, mag: np.ndarray, mag_a: np.ndarray) -> np.ndarray:
    """|w|^(alpha-2) * w^2 = (w/|w|)^2 |w|^alpha from mag = |w| and
    mag_a = |w|^alpha, with the removable singularity at w = 0 set to 0.

    numpy divides by |w| through 1/|w|, which overflows for a subnormal |w|;
    those entries take w/|w| from w scaled by an exact power of two."""
    normal = mag >= _TINY
    unit = np.divide(w, mag, out=np.zeros_like(w), where=normal)
    if np.count_nonzero(normal) != np.count_nonzero(mag):  # some 0 < |w| < tiny
        sub = ~normal & (mag > 0.0)
        scaled = w[sub] * _SUBNORMAL_SCALE
        unit[sub] = scaled / np.abs(scaled)
    return unit**2 * mag_a


@dataclass
class OdeRun:
    """Space-indexed family of scalar ODE solutions plus the derivative track.

    ``columns`` holds the sorted grid indices of the stored columns of w and v.
    """

    params: NonlinearityParams
    grid: Grid1D
    times: np.ndarray
    w: np.ndarray  # [time, column]
    v: np.ndarray  # [time, column]
    z0: complex
    h_y: object  # the forcing's y-derivative; None for an unforced run
    dt: float
    columns: np.ndarray


def integrate_perturbed(
    params: NonlinearityParams,
    phi0,
    h_forcing,
    T: float,
    grid: Grid1D,
    dt: float,
    *,
    phi0_prime,
    h_y=None,
    snapshot_every: int = 1,
    columns=None,
) -> OdeRun:
    """RK4 integration of the perturbed ODE and its variational equation.

    ``phi0``, ``phi0_prime``, ``h_forcing`` and ``h_y`` are vectorized callables
    (``phi0(y)``, ``h_forcing(t, y)``) with phi0(0) = 0 and h(t, 0) = 0;
    ``h_forcing`` and ``h_y`` are both None for the unforced problem and both
    given for a forced one (:class:`DomainError` before any step otherwise).
    h(t, 0) = 0 is checked at every time h is evaluated (:class:`DomainError`),
    and a scalar h or h_y is broadcast over the grid.  ``grid`` is one
    :class:`Grid1D`; phi0, phi0', h and h_y of another shape are a
    :class:`SizeMismatch`.  The y = 0 column of w is pinned to zero.
    T must be an integer multiple of dt (:class:`StepSizeError` otherwise).
    The run keeps t = 0, every ``snapshot_every``-th step and the final step.

    The ODE has no coupling across y, so ``columns`` (sorted, unique grid
    indices that include ``grid.zero_index``; :class:`DomainError` otherwise)
    integrates only those columns, each exactly as in the full-width run; the
    callables are then evaluated at those points only, and the blow-up check
    (|w| > ``_MAX_AMPLITUDE`` = 1e6) sees only those columns.  None integrates all.
    """
    if (h_forcing is None) != (h_y is None):
        raise DomainError("h_y, the y-derivative of h_forcing, is given exactly when h_forcing is")
    if T <= 0:
        raise DomainError(f"T must be positive, got {T}")
    if not (0 < dt <= 1e-3 * T):
        raise StepSizeError(f"require 0 < dt <= 1e-3*T = {1e-3 * T:.3g}, got {dt}")
    n_steps = step_count(T, dt)
    kept = snapshot_steps(n_steps, snapshot_every)

    grid = _as_grid(grid)
    y = grid.points
    j0 = grid.zero_index
    columns = np.arange(y.size) if columns is None else np.asarray(columns)
    if (columns.ndim != 1 or not np.issubdtype(columns.dtype, np.integer)
            or np.any(np.diff(columns) <= 0) or j0 not in columns
            or columns[0] < 0 or columns[-1] >= y.size):
        raise DomainError(f"columns must be sorted, unique grid indices in [0, {y.size}) "
                          f"that include the zero index {j0}, got {columns.tolist()}")
    y = y[columns]
    j0 = int(np.searchsorted(columns, j0))
    lam, alpha = params.lam, params.alpha

    w = np.asarray(phi0(y), dtype=np.complex128).copy()
    if w.shape != y.shape:
        raise SizeMismatch(f"phi0 gave shape {w.shape} on a grid of shape {y.shape}")
    if abs(w[j0]) > 1e-13 * (1.0 + np.max(np.abs(w))):
        raise DomainError(f"phi0(0) must vanish, got {w[j0]}")
    w[j0] = 0.0

    v = np.asarray(phi0_prime(y), dtype=np.complex128).copy()
    if v.shape != y.shape:
        raise SizeMismatch(f"phi0' gave shape {v.shape} on a grid of shape {y.shape}")
    z0 = complex(v[j0])

    def on_grid(values, name):
        """values, if a scalar or of the grid's shape (:class:`SizeMismatch` otherwise)."""
        if np.shape(values) not in ((), y.shape):
            raise SizeMismatch(f"{name} gave shape {np.shape(values)} on a grid of shape {y.shape}")
        return values

    def forcing(t):
        """(h, h_y) on the grid at time t, checking h(t, 0) = 0."""
        if h_forcing is None:
            return 0.0, 0.0
        h = np.asarray(h_forcing(t, y), dtype=np.complex128)
        h = np.broadcast_to(on_grid(h, "h_forcing"), y.shape)
        if not abs(h[j0]) <= 1e-13:
            raise DomainError(f"h_forcing(t, 0) must vanish, got {h[j0]} at t = {t}")
        return h, on_grid(np.asarray(h_y(t, y), dtype=np.complex128), "h_y")

    half = 0.5 * alpha + 1.0  # (alpha + 2)/2

    def rhs(wc, vc, h_val, f_val):
        if lam == 0:  # the linear control: nothing but the forcing
            return h_val, f_val
        mag = np.abs(wc)
        mag_a = mag**alpha
        dw = lam * mag_a * wc + h_val
        dv = (lam * half * mag_a * vc
              + lam * (0.5 * alpha) * _conj_factor(wc, mag, mag_a) * np.conj(vc) + f_val)
        return dw, dv

    times = dt * np.arange(n_steps + 1)
    ws = np.empty((kept.size, y.size), dtype=np.complex128)
    vs = np.empty_like(ws)
    ws[0], vs[0] = w, v
    row = 1  # next row of ws/vs

    def make_run(times_kept, w_rows, v_rows):
        return OdeRun(params=params, grid=grid, times=times_kept, w=w_rows, v=v_rows,
                      z0=z0, h_y=h_y, dt=dt, columns=columns)

    # the forcing at the end of a step is the forcing at the start of the next
    lo = forcing(0.0)
    for k in range(n_steps):
        mid, hi = forcing(times[k] + 0.5 * dt), forcing(times[k + 1])
        k1w, k1v = rhs(w, v, *lo)
        k2w, k2v = rhs(w + 0.5 * dt * k1w, v + 0.5 * dt * k1v, *mid)
        k3w, k3v = rhs(w + 0.5 * dt * k2w, v + 0.5 * dt * k2v, *mid)
        k4w, k4v = rhs(w + dt * k3w, v + dt * k3v, *hi)
        w = w + (dt / 6.0) * (k1w + 2 * k2w + 2 * k3w + k4w)
        v = v + (dt / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        lo = hi
        w[j0] = 0.0
        peak = float(np.max(np.abs(w)))
        if not np.isfinite(peak) or peak > _MAX_AMPLITUDE:
            partial = make_run(np.append(times[kept[:row]], times[k + 1]),
                               np.vstack([ws[:row], w[None, :]]),
                               np.vstack([vs[:row], v[None, :]]))
            raise BlowUpError(
                f"amplitude exceeded {_MAX_AMPLITUDE:.3g} at t = {times[k + 1]:.6g}",
                time=float(times[k + 1]), partial=partial,
            )
        if kept[row] == k + 1:
            ws[row], vs[row] = w, v
            row += 1

    return make_run(times[kept], ws, vs)


def integrating_factor(run: OdeRun) -> np.ndarray:
    """Accumulated exponent A(t, y) = lam*(alpha+2)/2 * int_0^t |w(s, y)|^alpha ds,
    [time, space], by the trapezoid rule."""
    lam, alpha = run.params.lam, run.params.alpha
    mag_a = np.abs(run.w) ** alpha
    return lam * (0.5 * alpha + 1.0) * _cumtrapz(mag_a.astype(np.complex128), run.times)


def representation_check(run: OdeRun, A: np.ndarray) -> float:
    """Max residual of the integrating-factor representation of v.

    Evaluates v(t,y) - [e^{A(t,y)} v(0,y) + int_0^t e^{A(t,y)-A(s,y)} g(s,y) ds]
    with g = lam*alpha/2*|w|^(alpha-2)*w^2*conj(v) + h_y, pointwise over the
    full stored (t, y) table.  The representation is an identity, so the
    residual measures time-discretization error only (O(dt^2) trapezoid).
    """
    lam, alpha = run.params.lam, run.params.alpha
    if A.shape != run.w.shape:
        raise DegenerateInput("A and run have mismatched shapes")
    if np.any(np.diff(run.times) > 1.5 * run.dt):
        raise DegenerateInput("the representation check needs every RK4 step (snapshot_every = 1)")

    if run.h_y is None:
        f = np.zeros_like(run.w)
    else:
        y = run.grid.points[run.columns]
        f = np.stack([np.broadcast_to(np.asarray(run.h_y(t, y), dtype=np.complex128), y.shape)
                      for t in run.times])

    mag = np.abs(run.w)
    g = lam * (0.5 * alpha) * _conj_factor(run.w, mag, mag**alpha) * np.conj(run.v) + f
    expA = np.exp(A)
    inner = _cumtrapz(np.exp(-A) * g, run.times)
    model = expA * run.v[0][None, :] + expA * inner
    return float(np.max(np.abs(run.v - model)))


@dataclass
class HolderDefectReport:
    """Dyadic increment diagnostic for the derivative track at one time."""

    t: float
    ys: np.ndarray
    increments: np.ndarray
    increment_fit: RegressionFit
    liminf_proxy: float
    theory_lower_bound: float


def holder_defect(run: OdeRun, t: float, y_max: float = 0.5) -> HolderDefectReport:
    """Fit |v(t, y) - v(t, 0)| against y on a dyadic ladder near y = 0.

    The fit slope is the measured increment exponent (the singularity
    mechanism predicts alpha when phi'(0) != 0).  Least squares is linear in
    log q, so q(y)/y^ell fits with the slope less ell: every ell-Hoelder
    seminorm with ell above the exponent diverges as the window shrinks.  A run
    restricted to some columns must hold y = 0 and every ladder point
    (:class:`DegenerateInput`).
    """
    it = _time_index(run.times, t, run.dt)
    missing = np.setdiff1d(ladder_columns(run.grid, y_max), run.columns)
    if missing.size:
        raise DegenerateInput(f"the ladder from y_max={y_max} reads grid columns "
                              f"{missing.tolist()}, which the run did not integrate")
    column = np.zeros(run.grid.n_points, dtype=run.v.dtype)
    column[run.columns] = run.v[it]
    ys, q, increment_fit = ladder_increments(run.grid, column, y_max)
    alpha = run.params.alpha
    return HolderDefectReport(
        t=float(run.times[it]),
        ys=ys,
        increments=q,
        increment_fit=increment_fit,
        liminf_proxy=float(np.min(q / ys**alpha)),
        theory_lower_bound=float(
            run.times[it] * abs(run.params.lam) * abs(run.z0) ** (alpha + 1.0) / 2.0
        ),
    )
