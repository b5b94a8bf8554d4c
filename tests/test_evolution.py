import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reglab.errors import BlowUpError, DomainError, ResolutionError, SizeMismatch, StepSizeError
from reglab.evolution import (
    Trajectory,
    _linear_multiplier,
    _strang,
    dy_at_zero,
    make_odd_bump,
    remainder_decomposition,
    sample_initial_data,
    solve,
)
from reglab.grids import Grid1D, GridFunction, odd_part, reflect_y
from reglab.numerics import adaptive_quadrature, loglog_fit
from reglab.ode import NonlinearityParams, exact_solution


def heat_params(alpha=0.5, lam=1.0, theta=0.0):
    return NonlinearityParams(alpha=alpha, lam=lam, theta=theta)


def reference_solve(params, phi, grid, n_steps, dt, every):
    """Oracle of :func:`solve`: a list of copies of the odd-projected Strang steps."""
    vals = odd_part(sample_initial_data(phi, grid).values)
    mult = _linear_multiplier(params, grid, dt)
    times, snaps = [0.0], [vals.copy()]
    for k in range(1, n_steps + 1):
        vals = odd_part(_strang(params, vals, mult, dt))
        if k % every == 0 or k == n_steps:
            times.append(k * dt)
            snaps.append(vals.copy())
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
    """One Strang step of the solver's kernel on the samples ``vals``."""
    return _strang(params, vals, _linear_multiplier(params, grid, dt), dt)


class TestStep:
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
        # lam = 0 leaves only the linear step, which must equal the fft pair bit for bit
        params = heat_params(lam=0.0, theta=np.pi / 4)
        rng = np.random.default_rng(11)
        v = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        mult = _linear_multiplier(params, Grid1D(1024, 4.0), 1e-3)
        expect = np.fft.ifft(np.fft.fft(v) * mult)
        assert _strang(params, v, mult, 1e-3).tobytes() == expect.tobytes()


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
        u = odd_part(sample_initial_data(bump, g).values)
        for _ in range(n):
            u = odd_part(strang_step(params, g, u, dt))
        assert traj.values[-1].tobytes() == u.tobytes()

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


class TestSolveStorage:
    @pytest.mark.parametrize("every", [1, 3, 7, 20, 10**9])
    def test_matches_reference_loop_bit_for_bit(self, every):
        params = heat_params(alpha=0.5, lam=1.0, theta=np.pi / 4)
        grid = Grid1D(256, 4.0)
        bump = make_odd_bump(4.0, 2.0)
        dt, n_steps = 5e-4, 20
        traj = solve(params, bump, grid, T=n_steps * dt, dt=dt, snapshot_every=every)
        times, values = reference_solve(params, bump, grid, n_steps, dt, every)
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


FAMILIES = [(0.0, 1.0), (np.pi / 4, 1.0), (np.pi / 2, 1j)]  # (theta, lam): heat, CGL, NLS


def scaled_pair(alpha, mu, family):
    """A run and its dilation by mu: u_mu(t, y) = mu^(2/alpha) u(mu^2 t, mu y) solves the
    same equation on [-L/mu, L/mu) from the bump dilated alike, stepped at dt/mu^2."""
    theta, lam = family
    params = heat_params(alpha=alpha, lam=lam, theta=theta)
    amplitude, radius, half_length, dt, T = 16.0, 2.0, 4.0, 2e-5, 2e-3
    # 256 points put 64 across the radius in either run
    base = solve(params, make_odd_bump(amplitude, radius), Grid1D(256, half_length),
                 T=T, dt=dt, snapshot_every=25)
    scaled = solve(params, make_odd_bump(amplitude * mu ** (2 / alpha + 1), radius / mu),
                   Grid1D(256, half_length / mu), T=T / mu**2, dt=dt / mu**2,
                   snapshot_every=25)
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
