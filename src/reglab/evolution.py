"""Pseudospectral solver for u_t = e^{i theta} Delta u + lam |u|^alpha u.

Strang splitting on the periodic torus: half a nonlinear substep (the exact
pointwise ODE flow, so the non-smooth nonlinearity costs no splitting
order), a full linear substep (diagonal Fourier multiplier, exact), and a
second half nonlinear substep.  theta = 0 is the heat equation, |theta| =
pi/2 the Schroedinger equation, intermediate angles Ginzburg-Landau.

Anti-symmetric (odd-in-y) initial data is the interesting class: the flow
preserves oddness and pins u = 0 on the hyperplane y = 0.  An explicit odd
projection each step removes roundoff drift so that y = 0 diagnostics stay
clean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, DomainError, ResolutionError, SizeMismatch
from .grids import (
    Grid1D,
    GridFunction,
    _as_grid,
    ladder_increments,
    laplacian_symbol,
    odd_part,
    spectral_derivative,
)
from .numerics import RegressionFit, _time_index, snapshot_steps, step_count
from .ode import NonlinearityParams, exact_flow

__all__ = [
    "InitialData",
    "Trajectory",
    "RemainderReport",
    "make_odd_bump",
    "check_support",
    "sample_initial_data",
    "solve",
    "dy_at_zero",
    "remainder_decomposition",
]

_BLOWUP_FACTOR = 1e6  # sup-norm growth over the initial data that counts as blow-up


@dataclass(frozen=True)
class InitialData:
    """Initial profile: a callable of the array of y samples, supported in
    [-support_radius, support_radius]."""

    support_radius: float
    func: object

    def __call__(self, y):
        return self.func(y)


def _bump_window(r_squared: np.ndarray) -> np.ndarray:
    """exp(-1/(1-r^2)) inside the unit ball of r^2, exactly 0 outside."""
    inside = r_squared < 1.0
    out = np.zeros_like(r_squared, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = np.exp(-1.0 / (1.0 - np.where(inside, r_squared, 0.5)))
    out[inside] = vals[inside]
    return out


def make_odd_bump(amplitude: float, support_radius: float) -> InitialData:
    """Smooth compactly supported profile amplitude * y * exp(-1/(1-r^2)), r = y/radius,
    odd in y with d/dy at the origin equal to amplitude/e."""
    if not (amplitude > 0):
        raise DomainError(f"amplitude must be positive, got {amplitude}")
    if not (support_radius > 0):
        raise DomainError(f"support_radius must be positive, got {support_radius}")
    radius_sq = support_radius**2

    def func(y):
        y = np.asarray(y, dtype=float)
        return amplitude * y * _bump_window(y**2 / radius_sq)

    return InitialData(support_radius=float(support_radius), func=func)


def check_support(support_radius: float, grid: Grid1D) -> None:
    """The geometry :func:`solve` needs: the support inside [-L, L]
    (DomainError) and at least 32 grid points across the radius (ResolutionError)."""
    if support_radius > grid.half_length:
        raise DomainError("initial-data support exceeds the torus")
    if support_radius / grid.spacing < 32.0:
        raise ResolutionError(f"bump under-resolved: {support_radius / grid.spacing:.1f} "
                              "points across support_radius (need >= 32)")


def sample_initial_data(data: InitialData, grid: Grid1D) -> GridFunction:
    return GridFunction(grid, np.asarray(data(_as_grid(grid).points), dtype=np.complex128))


def _linear_multiplier(params: NonlinearityParams, grid: Grid1D, dt: float) -> np.ndarray:
    return np.exp(-dt * np.exp(1j * params.theta) * laplacian_symbol(grid))


def _strang(params: NonlinearityParams, vals: np.ndarray, mult: np.ndarray,
            dt: float) -> np.ndarray:
    """Exact nonlinear half step, linear step by ``mult``, nonlinear half step.

    A blow-up in the second half step is reported from the start of the step."""
    half = 0.5 * dt
    vals = np.fft.fft(exact_flow(params, vals, half))
    vals *= mult
    vals = np.fft.ifft(vals)
    try:
        return exact_flow(params, vals, half)
    except BlowUpError as err:
        t_blow = half + err.time
        raise BlowUpError(f"blow-up {t_blow:.6g} after the start of the step",
                          time=t_blow) from None


@dataclass
class Trajectory:
    """Snapshots of the evolution, aligned with their time stamps."""

    params: NonlinearityParams
    grid: Grid1D
    times: np.ndarray
    values: np.ndarray  # [snapshot, y]
    dt: float
    blowup_time: float | None = None

    def __post_init__(self):
        if np.shape(self.values) != (len(self.times), _as_grid(self.grid).n_points):
            raise SizeMismatch(f"snapshots of shape {np.shape(self.values)} on "
                               f"{len(self.times)} times and {self.grid.n_points} points")
        if not (0.0 < self.dt < np.inf):
            raise DomainError(f"dt must be finite and positive, got {self.dt}")
        if not (np.all(np.isfinite(self.times)) and np.all(np.diff(self.times) > 0.0)):
            raise DomainError("time stamps must be finite and strictly increasing")

    @property
    def y_grid(self) -> Grid1D:
        """The grid, named for its one axis."""
        return self.grid

    def snapshot(self, i: int) -> GridFunction:
        return GridFunction(self.grid, self.values[i])

    def index_of_time(self, t: float) -> int:
        return _time_index(self.times, t, self.dt)


def solve(
    params: NonlinearityParams,
    phi: InitialData,
    grid: Grid1D,
    T: float,
    dt: float,
    snapshot_every: int = 1,
) -> Trajectory:
    """March the splitting scheme to time T, recording snapshots.

    The initial data and the result of every step are projected onto their odd part.
    T must be an integer multiple of dt (:class:`StepSizeError` otherwise).
    Records t = 0, every ``snapshot_every``-th step, and the final step, each
    written into one preallocated block that the trajectory returns.
    Raises :class:`BlowUpError` (with the truncated trajectory attached, which
    owns a copy of the rows recorded so far) when the sup norm exceeds
    ``_BLOWUP_FACTOR`` = 1e6 times its initial value or a nonlinear substep
    reaches its exact blow-up time.
    """
    if T <= 0 or dt <= 0:
        raise DomainError("T and dt must be positive")
    n_steps = step_count(T, dt)
    steps = snapshot_steps(n_steps, snapshot_every)
    grid = _as_grid(grid)
    check_support(phi.support_radius, grid)

    u = sample_initial_data(phi, grid)
    vals = odd_part(u.values)
    peak0 = float(np.max(np.abs(vals)))
    if peak0 == 0.0:
        raise DomainError("initial data is identically zero")

    times = dt * steps
    values = np.empty((steps.size, *vals.shape), dtype=np.complex128)
    values[0] = vals
    row = 1  # next row of values
    mult = _linear_multiplier(params, grid, dt)

    def blown_up(message, t_blow):
        partial = Trajectory(params, grid, times[:row].copy(), values[:row].copy(), dt,
                             blowup_time=t_blow)
        return BlowUpError(message, time=t_blow, partial=partial)

    for k in range(1, n_steps + 1):
        try:
            vals = _strang(params, vals, mult, dt)
        except BlowUpError as err:
            t_blow = min((k - 1) * dt + err.time, k * dt)
            raise blown_up(f"nonlinear substep blows up at t = {t_blow:.6g} (step {k})",
                           t_blow) from None
        vals = odd_part(vals)
        peak = float(np.max(np.abs(vals)))
        if not np.isfinite(peak) or peak > _BLOWUP_FACTOR * peak0:
            # the schedule ends at the last step, so the slot at row is still free
            if np.all(np.isfinite(vals)):
                times[row], values[row] = k * dt, vals
                row += 1
            raise blown_up(f"amplitude exceeded {_BLOWUP_FACTOR:.1g} x initial at t = {k * dt:.6g}",
                           k * dt)
        if steps[row] == k:
            values[row] = vals
            row += 1

    return Trajectory(params, grid, times, values, dt)


def dy_at_zero(traj: Trajectory, i: int):
    """Spectral d/dy of snapshot i at y = 0."""
    return spectral_derivative(traj.snapshot(i), order=1).values[traj.grid.zero_index]


@dataclass
class RemainderReport:
    """Decomposition |u|^a u = |eta y|^a eta y + w_tilde at one snapshot."""

    t: float
    w_tilde: GridFunction
    bound_max_ratio: float
    decay_fit: RegressionFit


def remainder_decomposition(traj: Trajectory, t: float, y_max: float) -> RemainderReport:
    """Split the nonlinearity into its leading odd-power part and remainder.

    Also verifies the Taylor bound |u - eta*y| <= C y^2 with
    C = 1/2 * sup |d^2_y u| measured spectrally, and fits the decay exponent
    of the remainder on a dyadic ladder (expected >= alpha + 2).
    """
    i = traj.index_of_time(t)
    u = traj.snapshot(i)
    alpha = traj.params.alpha
    grid = traj.grid
    y = grid.points
    eta = dy_at_zero(traj, i)

    linear_part = eta * y
    lead = np.abs(linear_part) ** alpha * linear_part
    nonlin = np.abs(u.values) ** alpha * u.values
    w_tilde = nonlin - lead

    d2 = spectral_derivative(u, order=2)
    bound_c = 0.5 * float(np.max(np.abs(d2.values)))
    w_lin = u.values - linear_part
    j0 = grid.zero_index
    mask = np.ones_like(y, dtype=bool)
    mask[j0] = False
    ratios = np.abs(w_lin[mask]) / (bound_c * y[mask] ** 2 + 1e-300)
    bound_max_ratio = float(np.max(ratios))

    # u, and so w_tilde, is exactly 0 at the node y = 0, so the increments are |w_tilde|
    _, _, decay_fit = ladder_increments(grid, w_tilde, y_max)
    return RemainderReport(
        t=float(traj.times[i]),
        w_tilde=GridFunction(traj.grid, w_tilde),
        bound_max_ratio=bound_max_ratio,
        decay_fit=decay_fit,
    )
