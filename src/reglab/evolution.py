"""Pseudospectral solver for u_t = e^{i theta} Delta u + lam |u|^alpha u.

Strang splitting on the periodic torus: half a nonlinear substep (the exact
pointwise ODE flow, so the non-smooth nonlinearity costs no splitting
order), a full linear substep (diagonal Fourier multiplier, exact), and a
second half nonlinear substep.  theta = 0 is the heat equation, |theta| =
pi/2 the Schroedinger equation, intermediate angles Ginzburg-Landau.

A step's second half flow and the next step's first are one exact flow of dt
(the semigroup law): after each linear substep the solver runs that flow, and
the half flow that ends the step only where a row is recorded, both from one
|u|^alpha.  A step near blow-up or the amplitude cap is replayed as two half
flows, which decide the blow-up and its reported time.

Anti-symmetric (odd-in-y) initial data is the interesting class: the flow
preserves oddness and pins u = 0 on the hyperplane y = 0.  The solver keeps
only the samples at y > 0.  The nonlinear substeps act on them alone, and the
linear substep transforms the odd field rebuilt from them by reflection, as
is every recorded row, so every row is exactly odd and exactly 0 at y = 0 and
y = -L.  Heat with real lam and real data stays real: that run transforms
with the real FFT pair and stores rows whose imaginary parts are exactly 0.
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
from .ode import NonlinearityParams, _flow_peak, _strang_factors, exact_flow

__all__ = [
    "InitialData",
    "Trajectory",
    "RemainderReport",
    "make_odd_bump",
    "check_support",
    "sample_initial_data",
    "solve",
    "linear_solution",
    "dy_at_zero",
    "remainder_decomposition",
]

_BLOWUP_FACTOR = 1e6  # sup-norm growth over the initial data that counts as blow-up
# within this relative distance below the cap a step is replayed, so that the array
# check decides wherever the scalar peak bound could round to the other side of it
_CAP_ROUNDOFF = 1e-9


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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(r_squared < 1.0, np.exp(-1.0 / (1.0 - r_squared)), 0.0)


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


def _initial_row(phi: InitialData, grid: Grid1D) -> np.ndarray:
    """The odd part of the sampled initial data, after the geometry checks of
    :func:`check_support`; :class:`DomainError` if it is identically zero."""
    check_support(phi.support_radius, grid)
    row = odd_part(sample_initial_data(phi, grid).values)
    if not np.any(row):
        raise DomainError("initial data is identically zero")
    return row


def _fill_odd(out: np.ndarray, half: np.ndarray) -> None:
    """Write into ``out`` the odd field whose samples at y > 0 are ``half``:
    u(-y) = -u(y), and u = 0 at y = 0 and at y = -L (the image of y = L)."""
    j0 = out.size // 2
    out[0] = out[j0] = 0.0
    out[j0 + 1:] = half
    np.negative(half[::-1], out=out[1:j0])


def _linear_step(half: np.ndarray, field: np.ndarray, mult: np.ndarray,
                 transforms) -> np.ndarray:
    """The linear step by ``mult`` of the odd field whose samples at y > 0 are ``half``:
    the field is rebuilt in the buffer ``field``, transformed with the (forward, inverse)
    ``transforms``, and its new samples at y > 0 are returned."""
    forward, inverse = transforms
    _fill_odd(field, half)
    spectrum = forward(field)
    spectrum *= mult
    return inverse(spectrum, field.size)[field.size // 2 + 1:]


def _linear_setup(params: NonlinearityParams, row0: np.ndarray, grid: Grid1D, dt: float):
    """The arguments (half, field, mult, transforms) of :func:`_linear_step` by dt from
    the odd row ``row0``: its samples at y > 0, a field buffer and the multiplier of dt,
    real with the rfft/irfft pair for theta = 0, real lam and real data, complex with
    fft/ifft otherwise."""
    half = row0[grid.zero_index + 1:]
    mult = _linear_multiplier(params, grid, dt)
    if params.theta == 0.0 and params.lam.imag == 0.0 and not np.any(half.imag):
        half, mult = half.real.copy(), mult[: grid.n_points // 2 + 1].real.copy()
        return half, np.empty(grid.n_points), mult, (np.fft.rfft, np.fft.irfft)
    return half, np.empty_like(row0), mult, (np.fft.fft, np.fft.ifft)


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
        if self.blowup_time is not None and not np.isfinite(self.blowup_time):
            raise DomainError(f"blowup_time must be finite or None, got {self.blowup_time}")
        if self.blowup_time is not None and len(self.times) and self.blowup_time < self.times[-1]:
            raise DomainError(f"blowup_time {self.blowup_time} precedes the last time stamp "
                              f"{self.times[-1]}")

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

    The initial data is projected onto its odd part, and only its samples at
    y > 0 are stepped; each recorded row is the odd field they define.  For
    theta = 0, real lam and real data the steps run in real arithmetic with
    the rfft/irfft pair, otherwise with fft/ifft.  The stepped state does not
    depend on the schedule: a recorded row is an extra half flow beside it.
    T must be an integer multiple of dt (:class:`StepSizeError` otherwise).
    Records t = 0, every ``snapshot_every``-th step, and the final step, each
    written into one preallocated block that the trajectory returns.
    Raises :class:`BlowUpError` (with the truncated trajectory attached, which
    owns a copy of the rows recorded so far) when the sup norm exceeds
    ``_BLOWUP_FACTOR`` = 1e6 times its initial value or a nonlinear substep
    reaches its exact blow-up time, each decided as if the step ran two half flows.
    """
    if T <= 0 or dt <= 0:
        raise DomainError("T and dt must be positive")
    n_steps = step_count(T, dt)
    steps = snapshot_steps(n_steps, snapshot_every)
    grid = _as_grid(grid)
    row0 = _initial_row(phi, grid)
    half, field, mult, transforms = _linear_setup(params, row0, grid, dt)
    cap = _BLOWUP_FACTOR * float(np.max(np.abs(half)))
    near_cap = (1.0 - _CAP_ROUNDOFF) * cap
    h = 0.5 * dt

    times = dt * steps
    values = np.empty((steps.size, grid.n_points), dtype=np.complex128)
    values[0] = row0
    row = 1  # next row of values

    def blown_up(message, t_blow):
        partial = Trajectory(params, grid, times[:row].copy(), values[:row].copy(), dt,
                             blowup_time=t_blow)
        return BlowUpError(message, time=t_blow, partial=partial)

    def half_flow(v, k, start):
        """The exact flow of dt/2 that starts ``start`` after the start of step k."""
        try:
            return exact_flow(params, v, h)
        except BlowUpError as err:
            t_blow = min((k - 1) * dt + (start + err.time), k * dt)
            raise blown_up(f"nonlinear substep blows up at t = {t_blow:.6g} (step {k})",
                           t_blow) from None

    def merged_factors(v, record):
        """The flow factors of dt and dt/2 at v, or None if the flow of dt blows up or
        the half flow's peak is not finite or within _CAP_ROUNDOFF of the cap."""
        mag_a = np.abs(v) ** params.alpha
        if not _flow_peak(params, float(mag_a.max()), h) <= near_cap:
            return None
        try:
            return _strang_factors(params, mag_a, dt, record)
        except BlowUpError:
            return None

    def replay(v, k):
        """Step k's second half flow from its linear substep's output v, its amplitude
        check and row, then step k + 1's first half flow: the unmerged step."""
        nonlocal row
        u = half_flow(v, k, h)
        if not np.abs(u).max() <= cap:  # past the cap, or not finite
            # the schedule ends at the last step, so the slot at row is still free
            if np.all(np.isfinite(u)):
                times[row] = k * dt
                _fill_odd(values[row], u)
                row += 1
            raise blown_up(f"amplitude exceeded {_BLOWUP_FACTOR:.1g} x initial at t = {k * dt:.6g}",
                           k * dt)
        if steps[row] == k:
            _fill_odd(values[row], u)
            row += 1
        return half_flow(u, k + 1, 0.0) if k < n_steps else u

    u = half_flow(half, 1, 0.0)
    for k in range(1, n_steps + 1):
        v = _linear_step(u, field, mult, transforms)
        record = steps[row] == k
        factors = merged_factors(v, record) if k < n_steps else None
        if factors is None:
            u = replay(v, k)
            continue
        full, factor = factors
        if record:
            _fill_odd(values[row], v * factor)
            row += 1
        u = v * full

    return Trajectory(params, grid, times, values, dt)


def linear_solution(params: NonlinearityParams, phi: InitialData, grid: Grid1D,
                    T: float) -> Trajectory:
    """The lam = 0 evolution in closed form: rows at t = 0 and t = T, the odd part of the
    sampled data and e^{-T e^{i theta} xi^2} applied to it by one linear step of
    :func:`solve`, so that both rows are exactly odd and heat rows exactly real.

    A lam = 0 :func:`solve` reaches the same row up to roundoff, since each of its
    linear steps is exact; the trajectory's one step is T.  :class:`DomainError`
    unless lam = 0 and T is finite and positive."""
    if params.lam != 0:
        raise DomainError(f"the linear solution needs lam = 0, got {params.lam}")
    if not (0.0 < T < np.inf):
        raise DomainError(f"T must be finite and positive, got {T}")
    grid = _as_grid(grid)
    row0 = _initial_row(phi, grid)
    row_t = np.empty_like(row0)
    _fill_odd(row_t, _linear_step(*_linear_setup(params, row0, grid, T)))
    return Trajectory(params, grid, np.array([0.0, T]), np.stack([row0, row_t]), T)


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
