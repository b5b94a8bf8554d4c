import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reglab import evolution
from reglab.diagnostics import third_derivative_holder_scan
from reglab.errors import BlowUpError, DomainError, ResolutionError, SizeMismatch, StepSizeError
from reglab.evolution import (
    InitialData,
    Trajectory,
    _fill_odd,
    _linear_multiplier,
    _linear_step,
    dy_at_zero,
    linear_solution,
    make_odd_bump,
    remainder_decomposition,
    sample_initial_data,
    solve,
)
from reglab.grids import Grid1D, GridFunction, odd_part, reflect_y
from reglab.numerics import adaptive_quadrature, loglog_fit
from reglab.ode import NonlinearityParams, _strang_factors, exact_flow, exact_solution


def heat_params(alpha=0.5, lam=1.0, theta=0.0):
    return NonlinearityParams(alpha=alpha, lam=lam, theta=theta)


def oracle_strang(params, vals, mult, dt):
    """The full-grid Strang step: exact nonlinear half step on every sample, linear
    step by ``mult`` through fft/ifft, nonlinear half step.  A blow-up in the second
    half step is reported from the start of the step."""
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


def oracle_solve(params, phi, grid, n_steps, dt, every=1):
    """Oracle of :func:`solve`: the full-grid step on complex samples, each step followed
    by the odd projection, under the solver's schedule and blow-up rules.  Returns
    (times, rows), or raises BlowUpError whose ``partial`` is the number of rows kept."""
    vals = odd_part(sample_initial_data(phi, grid).values)
    peak0 = np.max(np.abs(vals))
    mult = _linear_multiplier(params, grid, dt)
    times, rows = [0.0], [vals.copy()]
    for k in range(1, n_steps + 1):
        try:
            vals = odd_part(oracle_strang(params, vals, mult, dt))
        except BlowUpError as err:
            t_blow = min((k - 1) * dt + err.time, k * dt)
            raise BlowUpError(f"nonlinear substep blows up at t = {t_blow:.6g} (step {k})",
                              time=t_blow, partial=len(rows)) from None
        if not np.max(np.abs(vals)) <= 1e6 * peak0:
            kept = len(rows) + bool(np.all(np.isfinite(vals)))
            raise BlowUpError(f"amplitude exceeded 1e+06 x initial at t = {k * dt:.6g}",
                              time=k * dt, partial=kept)
        if k % every == 0 or k == n_steps:
            times.append(k * dt)
            rows.append(vals.copy())
    return np.array(times), np.array(rows)


ORACLE_BOUND = 5e-13  # of each row's sup norm


def assert_matches_oracle(traj, times, rows):
    assert traj.times.tobytes() == times.tobytes()
    assert traj.values.shape == rows.shape
    scale = np.max(np.abs(rows), axis=1)
    err = np.max(np.abs(traj.values - rows), axis=1)
    assert np.all(err <= ORACLE_BOUND * scale), np.max(err / scale)


def step_loop(params, phi, grid, n_steps, dt, every):
    """A list of copies of the solver's merged steps, on its transform pair (the storage
    reference of :func:`solve`): the first half flow, then per step the linear substep,
    the flow of dt into the next step and, where a row is recorded, the half flow from
    the same |u|^alpha that ends the step."""
    row = odd_part(sample_initial_data(phi, grid).values)
    half = row[grid.zero_index + 1:]
    mult = _linear_multiplier(params, grid, dt)
    field, transforms = np.empty_like(row), (np.fft.fft, np.fft.ifft)
    if params.theta == 0.0 and params.lam.imag == 0.0 and not np.any(half.imag):
        half, mult = half.real.copy(), mult[: grid.n_points // 2 + 1].real.copy()
        field, transforms = np.empty(grid.n_points), (np.fft.rfft, np.fft.irfft)
    times, snaps = [0.0], [row]
    u = exact_flow(params, half, 0.5 * dt)
    for k in range(1, n_steps + 1):
        v = _linear_step(u, field, mult, transforms)
        full, factor = _strang_factors(params, np.abs(v) ** params.alpha, dt, True)
        u = v * full
        if k % every == 0 or k == n_steps:
            times.append(k * dt)
            snaps.append(np.zeros(grid.n_points, dtype=np.complex128))
            _fill_odd(snaps[-1], v * factor)
    return np.array(times), np.array(snaps)


def linear_reference(u0_vals, grid, T, theta):
    """Exact solution of u_t = e^{i theta} Delta u on the torus (oracle)."""
    xi_sq = grid.wavenumbers**2
    return np.fft.ifft(np.fft.fft(u0_vals) * np.exp(-T * np.exp(1j * theta) * xi_sq))


class TestOddBump:
    def test_validation(self):
        with pytest.raises(DomainError):
            make_odd_bump(-1.0, 1.0)
        with pytest.raises(DomainError):
            make_odd_bump(1.0, 0.0)

    def test_origin_and_oddness(self):
        bump = make_odd_bump(1.0, 1.0)
        assert bump(np.array([0.0]))[0] == 0.0
        assert bump(np.array([0.5]))[0] == -bump(np.array([-0.5]))[0]

    def test_derivative_at_origin(self):
        bump = make_odd_bump(1.0, 1.0)
        expect = np.exp(-1.0)
        # finite-difference oracle
        h = 1e-6
        fd = (bump(np.array([h]))[0] - bump(np.array([-h]))[0]) / (2 * h)
        assert abs(fd - expect) <= 1e-8

    def test_compact_support(self):
        bump = make_odd_bump(2.0, 0.75)
        ys = np.array([0.75, 0.76, 5.0, -0.75])
        assert np.all(bump(ys) == 0.0)


def strang_step(params, grid, vals, dt):
    """One full-grid step of the oracle on the samples ``vals``."""
    return oracle_strang(params, vals, _linear_multiplier(params, grid, dt), dt)


class TestStep:
    """The oracle's full-grid step, and the plumbing of the solver's half-line step."""

    def test_linear_limit_on_fourier_mode(self):
        params = heat_params(lam=0.0)
        g = Grid1D(64, 2.0)
        xi = np.pi / g.half_length
        u = np.exp(1j * xi * g.points)
        dt = 0.01
        out = strang_step(params, g, u, dt)
        expect = np.exp(-dt * xi**2) * u
        assert np.max(np.abs(out - expect)) <= 1e-14

    def test_constant_field_matches_ode_flow(self):
        params = heat_params(alpha=0.5, lam=1.0 + 0.5j)
        g = Grid1D(32, 1.0)
        c = 0.3 - 0.2j
        out = strang_step(params, g, np.full(32, c), 0.01)
        expect = exact_solution(params, c, 0.01)
        assert np.max(np.abs(out - expect)) <= 1e-12

    def test_second_order_richardson(self):
        params = heat_params(alpha=0.5, lam=1.0)
        g = Grid1D(256, 4.0)
        bump = make_odd_bump(1.0, 1.0)
        u = sample_initial_data(bump, g).values
        dt = 1e-3

        def advance(u0, h, n):
            v = u0
            for _ in range(n):
                v = strang_step(params, g, v, h)
            return v

        full = advance(u, dt, 2)
        half = advance(u, dt / 2, 4)
        quarter = advance(u, dt / 4, 8)
        e1 = np.max(np.abs(full - quarter))
        e2 = np.max(np.abs(half - quarter))
        # second order: halving dt divides the error by about 4
        assert 2.5 <= e1 / e2 <= 6.5

    def test_linear_step_matches_fft_pair(self):
        # the solver's linear substep: the samples at y > 0 of the transform pair applied
        # to the odd field they define, bit for bit, complex and real alike
        rng = np.random.default_rng(11)
        g, j0 = Grid1D(1024, 4.0), 512
        v = rng.standard_normal(j0 - 1) + 1j * rng.standard_normal(j0 - 1)
        field = np.zeros(1024, dtype=np.complex128)
        field[j0 + 1:], field[1:j0] = v, -v[::-1]
        mult = _linear_multiplier(heat_params(theta=np.pi / 4), g, 1e-3)
        expect = np.fft.ifft(np.fft.fft(field) * mult)[j0 + 1:]
        got = _linear_step(v, np.empty(1024, dtype=np.complex128), mult,
                           (np.fft.fft, np.fft.ifft))
        assert got.tobytes() == expect.tobytes()
        mult = _linear_multiplier(heat_params(), g, 1e-3)[:j0 + 1].real.copy()
        expect = np.fft.irfft(np.fft.rfft(field.real) * mult, 1024)[j0 + 1:]
        got = _linear_step(v.real.copy(), np.empty(1024), mult, (np.fft.rfft, np.fft.irfft))
        assert got.dtype == np.float64 and got.tobytes() == expect.tobytes()


class TestSolve:
    @pytest.mark.parametrize("lam, theta", [
        (1.0, 0.0), (1.0, np.pi / 4), (1j, np.pi / 2),
    ], ids=["heat", "cgl", "nls"])
    def test_solve_is_repeated_step(self, lam, theta):
        params = heat_params(alpha=0.5, lam=lam, theta=theta)
        g = Grid1D(256, 4.0)
        bump = make_odd_bump(16.0, 2.0)
        dt, n = 2e-5, 20
        traj = solve(params, bump, g, T=n * dt, dt=dt)
        assert_matches_oracle(traj, *oracle_solve(params, bump, g, n, dt))

    def test_non_integral_horizon_rejected(self):
        params = heat_params()
        g = Grid1D(256, 4.0)
        bump = make_odd_bump(1.0, 1.0)
        with pytest.raises(StepSizeError):
            solve(params, bump, g, T=1.04e-3, dt=1e-4)

    def test_linear_heat_matches_exact(self):
        params = heat_params(lam=0.0)
        g = Grid1D(512, 4.0)
        bump = make_odd_bump(1.0, 1.0)
        traj = solve(params, bump, g, T=0.1, dt=1e-3, snapshot_every=20)
        expect = linear_reference(sample_initial_data(bump, g).values, g, 0.1, 0.0)
        assert np.max(np.abs(traj.values[-1] - expect)) <= 1e-8

    def test_schrodinger_l2_conservation(self):
        params = heat_params(alpha=0.5, lam=1j, theta=np.pi / 2)
        g = Grid1D(512, 4.0)
        bump = make_odd_bump(1.0, 1.0)
        traj = solve(params, bump, g, T=0.1, dt=5e-4, snapshot_every=40)
        norms = np.sqrt(np.sum(np.abs(traj.values) ** 2, axis=1) * g.spacing)
        drift = np.max(np.abs(norms - norms[0])) / norms[0]
        assert drift <= 1e-6

    def test_nonlinear_heat_runs(self):
        params = heat_params(alpha=0.5, lam=1.0)
        g = Grid1D(512, 4.0)
        bump = make_odd_bump(1.0, 1.0)
        traj = solve(params, bump, g, T=0.05, dt=5e-4, snapshot_every=10)
        assert np.all(np.isfinite(traj.values))
        assert traj.blowup_time is None
        assert traj.times[-1] == pytest.approx(0.05)

    BLOWUP_DT = 5e-3

    def blow_up(self):
        # a large amplitude at a small alpha: the sup norm passes 1e6 x its initial
        # value at step 257 (t = 1.285), between two scheduled rows
        params = heat_params(alpha=0.2, lam=1.0)
        bump = make_odd_bump(1e4, 2.0)
        with pytest.raises(BlowUpError, match="amplitude exceeded 1e\\+06") as err:
            solve(params, bump, Grid1D(512, 4.0), T=2.0, dt=self.BLOWUP_DT, snapshot_every=10)
        return err.value

    def test_blowup_detection(self):
        err = self.blow_up()
        assert round(err.time / self.BLOWUP_DT) == 257
        assert err.partial is not None
        assert err.partial.blowup_time == err.time

    def test_amplitude_blowup_partial_owns_its_rows(self):
        # the monitor trips at a step between two scheduled ones; that step is
        # recorded as the last row, in a copy that does not pin the solver's block
        dt = self.BLOWUP_DT
        err = self.blow_up()
        partial = err.partial
        assert round(err.time / dt) % 10 != 0
        assert len(partial.times) == len(partial.values)
        assert partial.times[-1] == err.time
        assert partial.times[:-1].tolist() == (dt * (10 * np.arange(len(partial.times) - 1))).tolist()
        assert np.all(np.isfinite(partial.values))
        assert partial.values.base is None and partial.times.base is None

    @pytest.mark.parametrize("ratio", [2.25, 2.4, 2.6, 2.75, 2.9])
    def test_blowup_time_in_either_half_step(self, ratio):
        # the exact blow-up time T* = 1/(alpha lam max|u0|^alpha) falls in the
        # first half of step 3 (ratio < 2.5) or in its second half
        params = heat_params(alpha=1.0, lam=1.0)
        g = Grid1D(256, 4.0)
        bump = make_odd_bump(1e4, 2.0)
        t_star = 1.0 / np.max(np.abs(odd_part(sample_initial_data(bump, g).values)))
        dt = t_star / ratio
        with pytest.raises(BlowUpError) as err:
            solve(params, bump, g, T=10 * dt, dt=dt)
        assert abs(err.value.time - t_star) <= 0.01 * dt
        assert err.value.partial.blowup_time == err.value.time
        assert err.value.partial.values.base is None
        assert f"t = {err.value.time:.6g}" in str(err.value)  # absolute, not per half step

    @pytest.mark.parametrize("T, dt", [
        (-1e-3, -1e-4), (0.0, 1e-4), (-1e-3, 1e-4), (1e-3, 0.0), (1e-3, -1e-4),
    ])
    def test_nonpositive_horizon_or_step_is_a_domain_error(self, T, dt):
        # step_count refuses one nonpositive value as a StepSizeError, and accepts
        # both negative (T/dt = 10): without solve's own check that run would step
        # backward in time until the Trajectory it builds refused the negative dt
        with pytest.raises(DomainError, match="T and dt must be positive"):
            solve(heat_params(), make_odd_bump(1.0, 1.0), Grid1D(256, 4.0), T=T, dt=dt)

    def test_under_resolved_bump(self):
        params = heat_params()
        g = Grid1D(64, 4.0)
        bump = make_odd_bump(1.0, 1.0)  # 8 points across the radius
        with pytest.raises(ResolutionError):
            solve(params, bump, g, T=0.01, dt=1e-4)

    def test_support_exceeds_torus(self):
        params = heat_params()
        g = Grid1D(512, 1.0)
        bump = make_odd_bump(1.0, 2.0)
        with pytest.raises(DomainError):
            solve(params, bump, g, T=0.01, dt=1e-4)

    def test_odd_symmetry_with_projection(self):
        params = heat_params(alpha=0.5, lam=1.0)
        g = Grid1D(256, 4.0)
        bump = make_odd_bump(1.0, 1.0)
        traj = solve(params, bump, g, T=0.02, dt=5e-4)
        final = traj.values[-1]
        asym = np.max(np.abs(final + reflect_y(final)))
        assert asym <= 1e-15 * np.max(np.abs(final))

    def test_comparison_principle_proxy(self):
        # odd data, nonnegative for y > 0: solution stays nonnegative there
        params = heat_params(alpha=0.5, lam=1.0)
        g = Grid1D(256, 4.0)
        bump = make_odd_bump(1.0, 1.0)
        traj = solve(params, bump, g, T=0.05, dt=5e-4, snapshot_every=10)
        j0 = g.zero_index
        positive_side = traj.values[:, j0 + 1 :].real
        assert np.min(positive_side) >= -1e-10
        assert np.max(np.abs(traj.values[:, j0 + 1 :].imag)) <= 1e-12

    def test_strang_global_order(self):
        g = Grid1D(256, 4.0)
        bump = make_odd_bump(1.0, 1.0)
        for theta in (0.0, np.pi / 4, np.pi / 2):
            lam = 1.0 if theta == 0.0 else 1j
            params = heat_params(alpha=0.5, lam=lam, theta=theta)
            T = 0.02
            dts = np.array([T / 20, T / 40, T / 80])
            ref = solve(params, bump, g, T=T, dt=T / (80 * 16), snapshot_every=10**9)
            errs = []
            for dt in dts:
                traj = solve(params, bump, g, T=T, dt=dt, snapshot_every=10**9)
                errs.append(np.max(np.abs(traj.values[-1] - ref.values[-1])))
            fit = loglog_fit(dts, np.array(errs))
            assert abs(fit.slope - 2.0) <= 0.2, f"theta={theta}: order {fit.slope}"

    @pytest.mark.parametrize("grid", [
        5, "abc", [Grid1D(256, 4.0)] * 3, (Grid1D(16, 4.0), Grid1D(256, 4.0)),
    ], ids=["int", "str", "three_grids", "pair"])
    def test_bad_grid_is_a_domain_error(self, grid):
        # a field lives on one Grid1D: anything else fails the one check in grids
        bump = make_odd_bump(1.0, 1.0)
        with pytest.raises(DomainError, match="grid must be a Grid1D"):
            GridFunction(grid, np.zeros(256))
        with pytest.raises(DomainError, match="grid must be a Grid1D"):
            sample_initial_data(bump, grid)
        with pytest.raises(DomainError, match="grid must be a Grid1D"):
            solve(heat_params(), bump, grid, T=1e-3, dt=1e-4)


class TestTrajectory:
    @pytest.mark.parametrize("times, dt", [
        ([0.0, 0.1, 0.2], float("nan")),
        ([0.0, 0.1, 0.2], float("inf")),
        ([0.0, 0.1, 0.2], 0.0),
        ([0.0, 0.1, 0.2], -0.1),
        ([float("nan"), 0.1, 0.2], 0.1),
        ([0.0, 0.1, float("inf")], 0.1),
        ([0.0, 0.1, 0.1], 0.1),
        ([0.0, 0.2, 0.1], 0.1),
    ], ids=["nan_dt", "infinite_dt", "zero_dt", "negative_dt", "nan_time",
            "infinite_time", "repeated_time", "decreasing_times"])
    def test_bad_dt_or_times_is_a_domain_error(self, times, dt):
        # index_of_time trusts dt and the order of the time stamps
        values = np.zeros((3, 8), dtype=np.complex128)
        with pytest.raises(DomainError):
            Trajectory(heat_params(), Grid1D(8, 1.0), np.array(times), values, dt)

    @pytest.mark.parametrize("blowup_time", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_blowup_time_is_a_domain_error(self, blowup_time):
        # a run that blew up did so at a time; the file format stores NaN for "did not"
        values = np.zeros((3, 8), dtype=np.complex128)
        with pytest.raises(DomainError):
            Trajectory(heat_params(), Grid1D(8, 1.0), np.array([0.0, 0.1, 0.2]), values, 0.1,
                       blowup_time)

    def test_blowup_time_before_the_last_stamp_is_a_domain_error(self):
        # solve records no row after the blow-up time, and a file saved from a
        # trajectory that did would not load
        values = np.zeros((3, 8), dtype=np.complex128)
        times = np.array([0.0, 0.1, 0.2])
        with pytest.raises(DomainError, match="precedes the last time stamp"):
            Trajectory(heat_params(), Grid1D(8, 1.0), times, values, 0.1, 0.15)
        traj = Trajectory(heat_params(), Grid1D(8, 1.0), times, values, 0.1, 0.2)
        assert traj.blowup_time == 0.2

    @pytest.mark.parametrize("shape", [(3, 16), (3, 4), (3,), (3, 8, 1), (4, 8)])
    def test_rows_of_the_wrong_length_are_a_size_mismatch(self, shape):
        # a row holds one value per grid point, checked when the trajectory is built
        times = np.array([0.0, 0.1, 0.2])
        with pytest.raises(SizeMismatch):
            Trajectory(heat_params(), Grid1D(8, 1.0), times, np.zeros(shape), 0.1)

    def test_snapshot_of_a_non_finite_row_is_a_domain_error(self):
        # a trajectory built in memory may hold any row; a field taken from it is finite
        values = np.ones((3, 8), dtype=np.complex128)
        values[1, 5] = np.nan
        traj = Trajectory(heat_params(), Grid1D(8, 1.0), np.array([0.0, 0.1, 0.2]), values, 0.1)
        assert traj.snapshot(0).values.tobytes() == values[0].tobytes()
        with pytest.raises(DomainError):
            traj.snapshot(1)


FAMILIES = [(0.0, 1.0), (np.pi / 4, 1.0), (np.pi / 2, 1j)]  # (theta, lam): heat, CGL, NLS


def imaginary_bump(amplitude, radius):
    """i times the odd bump: complex data, so even heat runs on the complex path."""
    bump = make_odd_bump(amplitude, radius)
    return InitialData(radius, lambda y: 1j * bump(y))


class TestSolveStorage:
    @pytest.mark.parametrize("every", [1, 3, 7, 20, 10**9])
    def test_matches_reference_loop_bit_for_bit(self, every):
        params = heat_params(alpha=0.5, lam=1.0, theta=np.pi / 4)
        grid = Grid1D(256, 4.0)
        bump = make_odd_bump(4.0, 2.0)
        dt, n_steps = 5e-4, 20
        traj = solve(params, bump, grid, T=n_steps * dt, dt=dt, snapshot_every=every)
        times, values = step_loop(params, bump, grid, n_steps, dt, every)
        assert traj.values.shape == values.shape
        assert traj.times.tobytes() == times.tobytes()
        assert traj.values.tobytes() == values.tobytes()

    def test_snapshot_block_is_held_once(self):
        # the snapshots are written into one block: no list of copies beside it
        params = heat_params(alpha=0.5, lam=1.0)
        g = Grid1D(256, 4.0)
        bump = make_odd_bump(16.0, 2.0)
        solve(params, bump, g, T=1e-4, dt=2.5e-5)  # first-call set-up stays outside the trace
        tracemalloc.start()
        try:
            traj = solve(params, bump, g, T=0.02, dt=2.5e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        field_bytes = g.n_points * 16
        assert peak <= 1.1 * traj.values.nbytes + 32 * field_bytes


    def test_real_path_matches_reference_loop_bit_for_bit(self):
        params = heat_params(alpha=1.5, lam=1.0)
        grid = Grid1D(256, 4.0)
        bump = make_odd_bump(4.0, 2.0)
        traj = solve(params, bump, grid, T=20 * 5e-4, dt=5e-4, snapshot_every=7)
        times, values = step_loop(params, bump, grid, 20, 5e-4, 7)
        assert traj.times.tobytes() == times.tobytes()
        assert traj.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("data", ["real", "imaginary"])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    @pytest.mark.parametrize("family", FAMILIES, ids=["heat", "cgl", "nls"])
    def test_rows_do_not_depend_on_the_schedule(self, family, alpha, data):
        # the flow of dt that carries a step into the next is the same whether or not
        # the step is recorded, so rows at common times agree to the bit
        theta, lam = family
        params = heat_params(alpha=alpha, lam=lam, theta=theta)
        grid = Grid1D(256, 4.0)
        bump = (make_odd_bump if data == "real" else imaginary_bump)(16.0, 2.0)
        dt, n_steps = 2e-5, 21
        every_step, *sparse = (solve(params, bump, grid, T=n_steps * dt, dt=dt, snapshot_every=every)
                               for every in (1, 7, 10**9))
        for traj in sparse:
            rows = np.rint(traj.times / dt).astype(int)
            assert every_step.times[rows].tobytes() == traj.times.tobytes()
            assert every_step.values[rows].tobytes() == traj.values.tobytes()


class TestOracle:
    """solve against the full-grid oracle, within ORACLE_BOUND of each row's sup norm."""

    @pytest.mark.parametrize("data", ["real", "imaginary"])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    @pytest.mark.parametrize("family", FAMILIES, ids=["heat", "cgl", "nls"])
    def test_every_row_matches(self, family, alpha, data):
        theta, lam = family
        params = heat_params(alpha=alpha, lam=lam, theta=theta)
        grid = Grid1D(512, 4.0)
        bump = (make_odd_bump if data == "real" else imaginary_bump)(16.0, 2.0)
        dt, n_steps = 2e-5, 200
        traj = solve(params, bump, grid, T=n_steps * dt, dt=dt)
        assert_matches_oracle(traj, *oracle_solve(params, bump, grid, n_steps, dt))
        assert np.array_equal(traj.values, -reflect_y(traj.values))  # exactly odd
        if theta == 0.0 and data == "real":
            assert not np.any(traj.values.imag)  # the real path

    def assert_same_blowup(self, params, bump, grid, n_steps, dt, every=1):
        with pytest.raises(BlowUpError) as oracle:
            oracle_solve(params, bump, grid, n_steps, dt, every)
        with pytest.raises(BlowUpError) as err:
            solve(params, bump, grid, T=n_steps * dt, dt=dt, snapshot_every=every)
        assert str(err.value) == str(oracle.value)
        assert err.value.time == oracle.value.time
        assert len(err.value.partial.times) == oracle.value.partial
        return err.value

    @pytest.mark.parametrize("family", FAMILIES, ids=["heat", "cgl", "nls"])
    def test_a_refused_merge_continues_from_the_replay(self, family, monkeypatch):
        # a merged flow that flags a blow-up the two half flows do not reproduce (at the
        # ulp boundary) costs a replay, not the run: with every merge refused, each step
        # runs as two half flows and the run still matches the oracle
        def refuse(*args):
            raise BlowUpError("refused", time=0.0)

        monkeypatch.setattr(evolution, "_strang_factors", refuse)
        theta, lam = family
        params = heat_params(alpha=0.5, lam=lam, theta=theta)
        grid, bump, dt = Grid1D(256, 4.0), make_odd_bump(16.0, 2.0), 2e-5
        traj = solve(params, bump, grid, T=20 * dt, dt=dt, snapshot_every=3)
        assert traj.blowup_time is None
        assert_matches_oracle(traj, *oracle_solve(params, bump, grid, 20, dt, every=3))

    def test_a_peak_just_under_the_cap_is_replayed(self, monkeypatch):
        # a half flow whose peak bound lies within _CAP_ROUNDOFF below the cap is not
        # merged: every step runs as two exact half flows, 1 + 10 + 9 calls in all
        params = heat_params(alpha=0.5)
        grid, bump, dt = Grid1D(256, 4.0), make_odd_bump(16.0, 2.0), 2e-5
        cap = evolution._BLOWUP_FACTOR * np.max(np.abs(sample_initial_data(bump, grid).values))
        peak = (1.0 - evolution._CAP_ROUNDOFF / 2) * cap
        monkeypatch.setattr(evolution, "_flow_peak", lambda *args: peak)
        calls = []

        def spy(*args):
            calls.append(args)
            return exact_flow(*args)

        monkeypatch.setattr(evolution, "exact_flow", spy)
        traj = solve(params, bump, grid, T=10 * dt, dt=dt)
        assert len(calls) == 20
        assert_matches_oracle(traj, *oracle_solve(params, bump, grid, 10, dt))

    def test_the_last_step_runs_no_extra_half_flow(self):
        # the exact blow-up time falls in step 3's first half flow: a run to step 2
        # ends at t = 2 dt without stepping into it, and a run to step 3 raises
        params = heat_params(alpha=1.0, lam=1.0)
        grid, bump = Grid1D(256, 4.0), make_odd_bump(1e4, 2.0)
        dt = 1.0 / np.max(np.abs(odd_part(sample_initial_data(bump, grid).values))) / 2.4
        traj = solve(params, bump, grid, T=2 * dt, dt=dt)
        assert traj.blowup_time is None and len(traj.times) == 3
        with pytest.raises(BlowUpError):
            solve(params, bump, grid, T=3 * dt, dt=dt)

    def test_amplitude_blowup_matches(self):
        # TestSolve.blow_up's run: the cap trips at step 257, between two scheduled rows
        err = self.assert_same_blowup(heat_params(alpha=0.2, lam=1.0), make_odd_bump(1e4, 2.0),
                                      Grid1D(512, 4.0), 400, 5e-3, every=10)
        assert "amplitude exceeded" in str(err)

    @pytest.mark.parametrize("ratio, every", [
        pytest.param(2.4, 1, id="2.4"), pytest.param(2.6, 1, id="2.6"),
        pytest.param(2.4, 2, id="2.4-every2"), pytest.param(2.6, 2, id="2.6-every2"),
        pytest.param(2.4, 3, id="2.4-every3"), pytest.param(2.6, 3, id="2.6-every3"),
    ])
    def test_substep_blowup_matches(self, ratio, every):
        # the exact blow-up time falls in the first (2.4) or second (2.6) half of step 3;
        # at every 2 step 2 is recorded before step 3's first half flow raises
        params = heat_params(alpha=1.0, lam=1.0)
        grid = Grid1D(256, 4.0)
        bump = make_odd_bump(1e4, 2.0)
        dt = 1.0 / np.max(np.abs(odd_part(sample_initial_data(bump, grid).values))) / ratio
        err = self.assert_same_blowup(params, bump, grid, 10, dt, every)
        assert "nonlinear substep blows up" in str(err)


class TestLinearSolution:
    """The closed-form lam = 0 run that third-derivative-scan takes as its control."""

    @pytest.mark.parametrize("theta", [0.0, np.pi / 4, np.pi / 2], ids=["heat", "cgl", "nls"])
    def test_matches_a_linear_solve(self, theta):
        # the README set-up, 1,000 steps of dt 2e-5: the full-grid oracle's lam = 0 run
        # (the control's stepped form until the control became closed form) reads within
        # 1e-13 of the sup norm, and solve, whose half-line steps round a little
        # differently, within the oracle bound
        params = heat_params(lam=0.0, theta=theta)
        grid = Grid1D(1024, 4.0)
        bump = make_odd_bump(16.0, 2.0)
        closed = linear_solution(params, bump, grid, 0.02)
        stepped = solve(params, bump, grid, T=0.02, dt=2e-5, snapshot_every=1000)
        times, rows = oracle_solve(params, bump, grid, 1000, 2e-5, every=1000)
        assert closed.times.tolist() == stepped.times.tolist() == times.tolist() == [0.0, 0.02]
        assert closed.dt == 0.02 and closed.index_of_time(0.02) == 1
        assert closed.values[0].tobytes() == stepped.values[0].tobytes()
        scale = np.max(np.abs(rows[1]))
        assert np.max(np.abs(closed.values[1] - rows[1])) <= 1e-13 * scale
        assert np.max(np.abs(closed.values[1] - stepped.values[1])) <= ORACLE_BOUND * scale

    def test_refuses_a_nonlinear_run_or_a_bad_horizon(self):
        grid, bump = Grid1D(256, 4.0), make_odd_bump(1.0, 1.0)
        with pytest.raises(DomainError, match="lam = 0"):
            linear_solution(heat_params(lam=1.0), bump, grid, 0.01)
        for T in (0.0, -0.01, float("inf"), float("nan")):
            with pytest.raises(DomainError):
                linear_solution(heat_params(lam=0.0), bump, grid, T)
        with pytest.raises(ResolutionError):
            linear_solution(heat_params(lam=0.0), bump, Grid1D(64, 4.0), 0.01)




def scaled_pair(alpha, mu, family, linear=False):
    """A run and its dilation by mu: u_mu(t, y) = mu^(2/alpha) u(mu^2 t, mu y) solves the
    same equation on [-L/mu, L/mu) from the bump dilated alike, stepped at dt/mu^2.
    ``linear`` takes the lam = 0 runs in closed form, with :func:`linear_solution`."""
    theta, lam = family
    params = heat_params(alpha=alpha, lam=0.0 if linear else lam, theta=theta)
    amplitude, radius, half_length, dt, T = 16.0, 2.0, 4.0, 2e-5, 2e-3

    def run(bump, grid, T, dt):
        if linear:
            return linear_solution(params, bump, grid, T)
        return solve(params, bump, grid, T=T, dt=dt, snapshot_every=25)

    # 256 points put 64 across the radius in either run
    base = run(make_odd_bump(amplitude, radius), Grid1D(256, half_length), T, dt)
    scaled = run(make_odd_bump(amplitude * mu ** (2 / alpha + 1), radius / mu),
                 Grid1D(256, half_length / mu), T / mu**2, dt / mu**2)
    assert np.array_equal(scaled.times * mu**2, base.times)
    return base, scaled


class TestScaling:
    @settings(deadline=None, database=None, max_examples=25)
    @given(alpha=st.sampled_from([1.0, 0.5, 0.25, 0.125]), mu=st.sampled_from([2.0, 4.0, 0.5]),
           family=st.sampled_from(FAMILIES))
    def test_dilation_is_bit_exact(self, alpha, mu, family):
        # with alpha = 2/k for k a power of two, every factor of the dilation is a power of
        # two, so the scaled run is the base run times mu^(2/alpha) to the bit (for other k
        # the Schroedinger phase |u|^alpha differs in the last bits)
        base, scaled = scaled_pair(alpha, mu, family)
        assert np.array_equal(scaled.values, mu ** (2 / alpha) * base.values)

    @settings(deadline=None, database=None, max_examples=25)
    @given(alpha=st.floats(0.05, 1.95), mu=st.sampled_from([2.0, 4.0, 0.5]),
           family=st.sampled_from(FAMILIES))
    def test_dilation_holds_for_any_alpha(self, alpha, mu, family):
        base, scaled = scaled_pair(alpha, mu, family)
        expect = mu ** (2 / alpha) * base.values
        assert np.max(np.abs(scaled.values - expect)) <= 1e-13 * np.max(np.abs(expect))

    @settings(deadline=None, database=None, max_examples=45)
    @given(alpha=st.sampled_from([1.0, 0.5, 0.25, 0.3, 1.5]), mu=st.sampled_from([2.0, 4.0, 0.5]),
           family=st.sampled_from(FAMILIES))
    def test_scan_is_dilation_covariant(self, alpha, mu, family):
        self.check_scan_covariance(*scaled_pair(alpha, mu, family), alpha, mu)

    @settings(deadline=None, database=None, max_examples=30)
    @given(alpha=st.sampled_from([1.0, 0.5, 0.25, 0.3, 1.5]), mu=st.sampled_from([2.0, 4.0, 0.5]),
           family=st.sampled_from(FAMILIES))
    def test_linear_control_is_dilation_covariant(self, alpha, mu, family):
        base, scaled = scaled_pair(alpha, mu, family, linear=True)
        expect = mu ** (2 / alpha) * base.values
        if alpha in (1.0, 0.5, 0.25):
            assert np.array_equal(scaled.values, expect)
        assert np.max(np.abs(scaled.values - expect)) <= 1e-13 * np.max(np.abs(expect))
        self.check_scan_covariance(base, scaled, alpha, mu)

    @staticmethod
    def check_scan_covariance(base, scaled, alpha, mu):
        # the dyadic ladder rounds y_k/spacing, which the dilation keeps, so the scan of the
        # scaled run at y_max/mu reads the base ladder over mu, each d^3 increment times
        # mu^(2/alpha + 3), and the same slope; bit for bit when 2/alpha is a power of two
        ref = third_derivative_holder_scan(base, base.times[-1], 1.0)
        got = third_derivative_holder_scan(scaled, scaled.times[-1], 1.0 / mu)
        assert ref.ys.size == 4 and np.array_equal(got.ys * mu, ref.ys)
        expect = mu ** (2 / alpha + 3) * ref.increments
        if alpha in (1.0, 0.5, 0.25):
            assert np.array_equal(got.increments, expect)
        assert np.all(np.abs(got.increments - expect) <= 1e-8 * np.abs(expect))
        assert abs(got.increment_fit.slope - ref.increment_fit.slope) <= 1e-8


class TestEtaTrack:
    """eta(t) = d/dy u(t, 0), per snapshot, as :func:`dy_at_zero` reads it."""

    def test_initial_value_matches_profile(self):
        params = heat_params(alpha=0.5, lam=1.0)
        g = Grid1D(1024, 4.0)
        bump = make_odd_bump(1.0, 1.0)
        traj = solve(params, bump, g, T=0.02, dt=5e-4, snapshot_every=10)
        assert abs(dy_at_zero(traj, 0) - np.exp(-1.0)) <= 1e-8

    def test_zero_slice_is_zero(self):
        params = heat_params(alpha=0.5, lam=1.0)
        g = Grid1D(256, 4.0)
        bump = make_odd_bump(1.0, 1.0)
        traj = solve(params, bump, g, T=0.02, dt=5e-4, snapshot_every=10)
        j0 = g.zero_index
        assert np.max(np.abs(traj.values[:, j0])) <= 1e-13

    def test_linear_heat_quadrature_oracle(self):
        # eta(t) = int G_t(y) phi'(y) dy with the real-line heat kernel
        params = heat_params(lam=0.0)
        g = Grid1D(1024, 4.0)
        bump = make_odd_bump(1.0, 1.0)
        T = 0.05
        traj = solve(params, bump, g, T=T, dt=1e-3, snapshot_every=10)

        def phi_prime(y):
            inside = np.abs(y) < 1.0
            out = np.zeros_like(y)
            yy = np.where(inside, y, 0.0)
            with np.errstate(divide="ignore", over="ignore"):
                window = np.exp(-1.0 / (1.0 - yy**2))
            grad = window * (1.0 - 2.0 * yy**2 / (1.0 - yy**2) ** 2)
            out[inside] = grad[inside]
            return out

        kernel = lambda y: np.exp(-(y**2) / (4 * T)) / np.sqrt(4 * np.pi * T)
        oracle = adaptive_quadrature(lambda y: kernel(y) * phi_prime(y), -1.0, 1.0, 1e-10)
        assert abs(dy_at_zero(traj, -1) - oracle) <= 1e-8 * abs(oracle)


class TestRemainderDecomposition:
    def make_traj(self, lam=1.0, n=1024):
        params = heat_params(alpha=0.5, lam=lam)
        g = Grid1D(n, 4.0)
        bump = make_odd_bump(1.0, 1.0)
        return solve(params, bump, g, T=0.02, dt=2e-4, snapshot_every=10)

    def test_zero_at_origin(self):
        traj = self.make_traj()
        rep = remainder_decomposition(traj, 0.02, y_max=0.25)
        j0 = traj.y_grid.zero_index
        assert abs(rep.w_tilde.values[j0]) <= 1e-13

    def test_decay_exponent(self):
        traj = self.make_traj()
        rep = remainder_decomposition(traj, 0.02, y_max=0.25)
        assert rep.decay_fit.slope >= 0.5 + 2.0 - 0.1

    def test_quadratic_bound(self):
        traj = self.make_traj()
        rep = remainder_decomposition(traj, 0.02, y_max=0.25)
        assert rep.bound_max_ratio <= 1.0 + 1e-6

    def test_linear_trajectory_bound_holds(self):
        traj = self.make_traj(lam=0.0)
        rep = remainder_decomposition(traj, 0.02, y_max=0.25)
        assert rep.bound_max_ratio <= 1.0 + 1e-6
        assert rep.decay_fit.slope >= 0.5 + 2.0 - 0.1
