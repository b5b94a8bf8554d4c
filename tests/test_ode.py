import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reglab.errors import BlowUpError, DegenerateInput, DomainError, SizeMismatch, StepSizeError
from reglab.grids import Grid1D
from reglab.ode import (
    NonlinearityParams,
    _conj_factor,
    _flow_factor,
    exact_first_derivative,
    exact_flow,
    exact_second_derivative,
    exact_solution,
    holder_defect,
    integrate_perturbed,
    integrating_factor,
    representation_check,
)


def rk4_reference(lam, alpha, w0, t_final, rel_tol=1e-11):
    """Step-doubling RK4 oracle for w' = lam*|w|^alpha*w (test-local)."""

    def f(w):
        return lam * abs(w) ** alpha * w

    def step(w, h):
        k1 = f(w)
        k2 = f(w + 0.5 * h * k1)
        k3 = f(w + 0.5 * h * k2)
        k4 = f(w + h * k3)
        return w + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    n = 64
    while True:
        h = t_final / n
        w = complex(w0)
        for _ in range(n):
            w = step(w, h)
        h2 = t_final / (2 * n)
        w2 = complex(w0)
        for _ in range(2 * n):
            w2 = step(w2, h2)
        if abs(w - w2) <= rel_tol * (1.0 + abs(w2)) or n > 300_000:
            return w2
        n *= 2


def fd_stencil(func, x, h):
    """Fourth-order central first/second derivatives of a scalar callable."""
    f = func
    d1 = (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
    d2 = (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)) / (
        12 * h * h
    )
    return d1, d2


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            NonlinearityParams(alpha=2.5, lam=1.0)
        with pytest.raises(DomainError):
            NonlinearityParams(alpha=0.5, lam=1.0, theta=2.0)
        p = NonlinearityParams(alpha=0.5, lam=0.0)  # linear-control limit
        assert p.lam == 0.0


class TestExactSolution:
    def test_doubling_example(self):
        params = NonlinearityParams(alpha=1.0, lam=1.0)
        val = exact_solution(params, 1.0, 0.5)
        assert abs(val - 2.0) <= 1e-12
        oracle = rk4_reference(1.0, 1.0, 1.0, 0.5)
        assert abs(val - oracle) <= 1e-9

    def test_initial_condition(self):
        for lam in (1.0, -2.0, 1j, 0.5 - 0.25j):
            params = NonlinearityParams(alpha=0.7, lam=lam)
            assert exact_solution(params, 0.3 + 0.1j, 0.0) == 0.3 + 0.1j

    def test_modulus_preserved_for_imaginary_lambda(self):
        params = NonlinearityParams(alpha=0.5, lam=1j)
        rng = np.random.default_rng(0)
        for x in rng.uniform(-1.0, 1.0, size=10):
            for t in (0.1, 1.0, 5.0):
                w = exact_solution(params, x, t)
                assert abs(abs(w) - abs(x)) <= 1e-15 * max(abs(x), 1.0)

    @pytest.mark.parametrize("lam", [0.8, 1.0 + 0.5j, 2.0 - 1.0j])
    def test_against_rk4_oracle(self, lam):
        params = NonlinearityParams(alpha=0.5, lam=lam)
        for w0 in (1.0, 0.3 - 0.4j):
            val = exact_solution(params, w0, 0.4)
            oracle = rk4_reference(lam, 0.5, w0, 0.4)
            assert abs(val - oracle) <= 1e-8 * (1.0 + abs(oracle))

    def test_negative_real_lambda_decays(self):
        params = NonlinearityParams(alpha=1.0, lam=-1.0)
        w = exact_solution(params, 1.0, 10.0)
        assert abs(w) < 1.0
        oracle = rk4_reference(-1.0, 1.0, 1.0, 10.0)
        assert abs(w - oracle) <= 1e-8

    def test_blowup(self):
        params = NonlinearityParams(alpha=1.0, lam=1.0)
        # critical time for phi = 1 is 1/(alpha*|phi|^alpha*Re lam) = 1
        with pytest.raises(BlowUpError) as err:
            exact_solution(params, 1.0, 1.5)
        assert abs(err.value.time - 1.0) <= 1e-12

    def test_zero_initial_value(self):
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        assert exact_solution(params, 0.0, 3.0) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.floats(0.05, 1.95),
        lam_re=st.one_of(st.just(0.0), st.floats(0.1, 2.0), st.floats(-2.0, -0.1),
                         st.floats(-12.0, -1.0, exclude_max=True).map(lambda e: 10.0**e),
                         st.floats(-12.0, -1.0, exclude_max=True).map(lambda e: -(10.0**e))),
        lam_im=st.floats(-2.0, 2.0),
        values=st.lists(st.complex_numbers(min_magnitude=1e-6, max_magnitude=10.0),
                        min_size=1, max_size=8),
        s_frac=st.floats(0.0, 0.45),
        t_frac=st.floats(0.0, 0.45),
    )
    def test_semigroup_law(self, alpha, lam_re, lam_im, values, s_frac, t_frac):
        # flow(flow(v, s), t) == flow(v, s + t); for Re lam > 0 both times are
        # fractions of the blow-up time 1/(alpha Re lam max|v|^alpha), so
        # s + t stays below it
        params = NonlinearityParams(alpha=alpha, lam=complex(lam_re, lam_im))
        v = np.array(values, dtype=complex)
        horizon = 1.0
        if lam_re > 0:
            horizon = 1.0 / (alpha * lam_re * np.max(np.abs(v)) ** alpha)
            if lam_re < 0.1:  # the phase turns by ~1/Re lam radians over that horizon
                horizon = min(horizon, 1.0)
        s, t = s_frac * horizon, t_frac * horizon
        composed = exact_flow(params, exact_flow(params, v, s), t)
        np.testing.assert_allclose(composed, exact_flow(params, v, s + t), rtol=1e-10)

    def test_small_real_part_keeps_digits(self):
        # log(1 - alpha t Re(lam) |v|^alpha) lost ~1e-5 here; the log1p does not
        alpha, lam, t = 0.5, 1e-12 + 1j, 0.3
        got = exact_flow(NonlinearityParams(alpha=alpha, lam=lam), np.array([1.0 + 0j]), t)[0]
        # base^(-lam/(alpha Re lam)) = exp(lam t (1 + alpha t Re(lam)/2 + O(Re(lam)^2)))
        expect = np.exp(lam * t * (1.0 + 0.5 * alpha * t * lam.real))
        assert abs(got - expect) <= 1e-15

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.floats(0.05, 1.95),
        lam_im=st.floats(-2.0, 2.0),
        values=st.lists(st.complex_numbers(min_magnitude=1e-6, max_magnitude=10.0),
                        min_size=1, max_size=8),
        t=st.floats(0.0, 10.0),
    )
    def test_modulus_conserved_for_imaginary_lambda(self, alpha, lam_im, values, t):
        # Re lam = 0: the flow only rotates the phase, so |w(t)| = |w(0)|
        params = NonlinearityParams(alpha=alpha, lam=complex(0.0, lam_im))
        v = np.array(values, dtype=complex)
        np.testing.assert_allclose(np.abs(exact_flow(params, v, t)), np.abs(v), rtol=1e-14)


class TestFlowFactor:
    """The real (Im lam = 0) and cos/sin (Re lam = 0) factors against the
    complex exp they replace."""

    @pytest.mark.parametrize("lam", [1.0, 0.3, -2.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_real_factor_matches_general_formula(self, alpha, lam):
        params = NonlinearityParams(alpha=alpha, lam=lam)
        mag_a = np.abs(np.random.default_rng(3).standard_normal(1024)) ** alpha
        t = 0.9 / (alpha * abs(lam) * np.max(mag_a))  # 90% of the blow-up time
        base, factor = _flow_factor(params, mag_a, t)
        assert factor.dtype == np.float64
        growth = alpha * t * params.lam.real * mag_a
        general = np.exp(-params.lam / (alpha * params.lam.real) * np.log1p(-growth))
        np.testing.assert_allclose(factor, general, rtol=1e-15, atol=0.0)
        np.testing.assert_array_equal(base, 1.0 - growth)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_real_factor_blowup_branch(self, alpha):
        params = NonlinearityParams(alpha=alpha, lam=1.0)
        mag_a = np.array([0.25, 2.0, 1.0])
        critical = 1.0 / (alpha * 2.0)
        with pytest.raises(BlowUpError) as err:
            _flow_factor(params, mag_a, critical * (1.0 + 1e-12))
        assert err.value.time == pytest.approx(critical, rel=1e-15)
        _, factor = _flow_factor(params, mag_a, critical * (1.0 - 1e-9))
        assert np.all(np.isfinite(factor))

    @pytest.mark.parametrize("lam_im", [1.0, -0.7])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_cos_sin_factor_matches_complex_exp(self, alpha, lam_im):
        params = NonlinearityParams(alpha=alpha, lam=complex(0.0, lam_im))
        mag_a = np.abs(np.random.default_rng(4).standard_normal(1024) * 30.0) ** alpha
        for t in (1e-5, 0.3, 10.0):
            base, factor = _flow_factor(params, mag_a, t)
            assert base == 1.0
            expect = np.exp(1j * (t * mag_a * lam_im))
            assert np.max(np.abs(factor - expect)) <= 1e-15

    def test_cos_sin_factor_has_no_blowup_branch(self):
        # Re lam = 0 never blows up: far past 1/(alpha |lam| max|w|^alpha) the
        # factor is still a unit rotation
        params = NonlinearityParams(alpha=1.0, lam=1j)
        mag_a = np.array([0.5, 2.0, 1e3])
        _, factor = _flow_factor(params, mag_a, 1e3)
        np.testing.assert_allclose(np.abs(factor), 1.0, rtol=1e-15)
        # a scalar |w|^alpha, as the closed-form derivatives pass it
        _, scalar = _flow_factor(params, 2.0, 0.1)
        assert abs(complex(scalar) - np.exp(0.2j)) <= 1e-15


class TestExactDerivatives:
    def test_time_zero(self):
        params = NonlinearityParams(alpha=0.5, lam=1.0 + 1.0j)
        assert abs(exact_first_derivative(params, 0.3, 0.0) - 1.0) <= 1e-14
        assert abs(exact_second_derivative(params, 0.3, 0.0)) <= 1e-14

    def test_x_zero_rejected(self):
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        with pytest.raises(DomainError):
            exact_second_derivative(params, 0.0, 0.1)

    def test_imaginary_lambda_magnitude_formula(self):
        alpha, t, x = 0.5, 1.0, 0.1
        params = NonlinearityParams(alpha=alpha, lam=1j)
        wxx = exact_second_derivative(params, x, t)
        expect = (
            alpha * t * abs(x) ** (alpha - 1.0)
            * abs(1.0 + alpha + 1j * alpha * t * abs(x) ** alpha)
        )
        assert abs(abs(wxx) - expect) <= 1e-12 * expect

    @pytest.mark.parametrize("lam", [1j, 1.0, 1.0 + 0.5j, -0.5 + 2.0j])
    def test_against_finite_differences(self, lam):
        # Oracle: 4th-order central differences of exact_solution in x.
        params = NonlinearityParams(alpha=0.5, lam=lam)
        t = 0.3

        def w_of_x(x):
            return exact_solution(params, x, t)

        for x in (0.1, 0.45, -0.3):
            d1, d2 = fd_stencil(w_of_x, x, 1e-4)
            w1 = exact_first_derivative(params, x, t)
            w2 = exact_second_derivative(params, x, t)
            assert abs(w1 - d1) <= 1e-6 * (1.0 + abs(w1))
            assert abs(w2 - d2) <= 1e-6 * (1.0 + abs(w2))

    def test_second_derivative_scaling_near_zero(self):
        # |w_xx| ~ |x|^(alpha-1): slope of log|w_xx| vs log|x| is alpha - 1.
        from reglab.numerics import loglog_fit

        alpha = 0.5
        params = NonlinearityParams(alpha=alpha, lam=1.0)
        t = 0.05
        xs = 2.0 ** -np.arange(4, 15, dtype=float)
        mags = np.array([abs(exact_second_derivative(params, x, t)) for x in xs])
        fit = loglog_fit(xs, mags)
        assert abs(fit.slope - (alpha - 1.0)) <= 0.01
        # scaled combination stays bounded
        scaled = mags * xs / xs**alpha
        assert np.max(scaled) <= 10.0 * np.min(scaled[scaled > 0])


def unit_slope(y):
    """phi0' of phi0(y) = y."""
    return np.ones_like(y, dtype=complex)


class TestIntegratePerturbed:
    def grid(self, n=256):
        return Grid1D(n, 1.0)

    def test_matches_exact_solution_unforced(self):
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        grid = self.grid()
        run = integrate_perturbed(
            params, lambda y: y.astype(complex), None, T=0.1, grid=grid, dt=1e-4,
            phi0_prime=lambda y: np.ones_like(y, dtype=complex),
        )
        y = grid.points
        it = -1
        expect = np.array([exact_solution(params, yy, 0.1) for yy in y])
        assert np.max(np.abs(run.w[it] - expect)) <= 1e-8

    def test_forcing_only_short_time(self):
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        grid = self.grid(64)
        run = integrate_perturbed(
            params, lambda y: np.zeros_like(y, dtype=complex),
            lambda t, y: y.astype(complex), T=0.01, grid=grid, dt=1e-5,
            phi0_prime=lambda y: np.zeros_like(y, dtype=complex),
            h_y=lambda t, y: np.ones_like(y, dtype=complex),
        )
        y = grid.points
        j = grid.zero_index + 8
        t = run.times[-1]
        ratio = run.w[-1, j] / (t * y[j])
        assert abs(ratio - 1.0) <= 1e-3

    def test_step_size_contract(self):
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        with pytest.raises(StepSizeError):
            integrate_perturbed(params, lambda y: y.astype(complex), None,
                                T=0.1, grid=self.grid(64), dt=1e-3, phi0_prime=unit_slope)

    def test_non_integral_horizon_rejected(self):
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        with pytest.raises(StepSizeError):
            integrate_perturbed(params, lambda y: y.astype(complex), None,
                                T=0.01, grid=self.grid(64), dt=3e-6, phi0_prime=unit_slope)

    def test_zero_column_pinned(self):
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        grid = self.grid(64)
        run = integrate_perturbed(
            params, lambda y: y.astype(complex),
            lambda t, y: np.sin(y) * t, T=0.05, grid=grid, dt=5e-5,
            phi0_prime=lambda y: np.ones_like(y, dtype=complex), h_y=lambda t, y: np.cos(y) * t,
        )
        assert np.all(run.w[:, grid.zero_index] == 0.0)

    def test_oddness_preserved(self):
        params = NonlinearityParams(alpha=0.5, lam=1.0 + 0.3j)
        grid = self.grid(128)
        run = integrate_perturbed(
            params, lambda y: np.sin(np.pi * y).astype(complex),
            lambda t, y: t * y**3, T=0.05, grid=grid, dt=5e-5,
            phi0_prime=lambda y: (np.pi * np.cos(np.pi * y)).astype(complex),
            h_y=lambda t, y: 3.0 * t * y**2,
        )
        w = run.w[-1]
        n = grid.n_points
        refl = w[(-np.arange(n)) % n]
        scale = np.max(np.abs(w))
        # index 0 (y = -L) is self-paired on the torus and has no +L mirror
        assert np.max(np.abs((w + refl)[1:])) <= 1e-13 * scale

    def test_blowup_trigger_time(self):
        # Exact blow-up at t* = 1/(alpha*|y|^alpha*Re lam) for the largest |y|.
        alpha = 0.5
        params = NonlinearityParams(alpha=alpha, lam=1.0)
        for L in (1.0, 0.75, 0.5):
            grid = Grid1D(8, L)
            t_star = 1.0 / (alpha * L**alpha)
            T = 1.2 * t_star
            dt = 1e-3 * T
            with pytest.raises(BlowUpError) as err:
                integrate_perturbed(
                    params, lambda y: y.astype(complex), None,
                    T=T, grid=grid, dt=dt,
                    phi0_prime=lambda y: np.ones_like(y, dtype=complex),
                )
            assert abs(err.value.time - t_star) <= 2.0 * dt
            assert err.value.partial is not None

    def count_h_calls(self, n, h_y):
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        calls = []

        def h(t, y):
            calls.append(t)
            return t * y**3

        integrate_perturbed(params, lambda y: y.astype(complex), h, T=0.01,
                            grid=self.grid(64), dt=0.01 / n,
                            phi0_prime=lambda y: np.ones_like(y, dtype=complex), h_y=h_y)
        return len(calls)

    def test_one_rk4_step_per_time_step(self):
        # the forcing once per time level (t_k and t_k + dt/2)
        n = 1000
        assert self.count_h_calls(n, lambda t, y: 3.0 * t * y**2) == 2 * n + 1

    def test_forcing_without_h_y_is_refused_before_any_step(self):
        # h_y comes with h_forcing: either one alone is refused before h is called
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        calls = []
        h = lambda t, y: calls.append(t) or t * y**3
        for forcing, h_y in ((h, None), (None, lambda t, y: 3.0 * t * y**2)):
            with pytest.raises(DomainError, match="h_y"):
                integrate_perturbed(params, lambda y: y.astype(complex), forcing, T=0.01,
                                    grid=self.grid(64), dt=1e-5,
                                    phi0_prime=lambda y: np.ones_like(y, dtype=complex),
                                    h_y=h_y)
        assert calls == []

    def test_linear_control_closed_form(self):
        # lam = 0: w_t = t y^3, v_t = 3 t y^2; RK4 is exact for these
        # polynomials in t
        grid = self.grid(64)
        run = integrate_perturbed(
            NonlinearityParams(alpha=0.5, lam=0.0), lambda y: y.astype(complex),
            lambda t, y: t * y**3, T=0.1, grid=grid, dt=1e-4,
            phi0_prime=lambda y: np.ones_like(y, dtype=complex),
            h_y=lambda t, y: 3.0 * t * y**2,
        )
        t, y = run.times[:, None], grid.points[None, :]
        assert np.max(np.abs(run.w - (y + 0.5 * t**2 * y**3))) <= 1e-14
        assert np.max(np.abs(run.v - (1.0 + 1.5 * t**2 * y**2))) <= 1e-14

    def test_forcing_checked_at_zero_every_step(self):
        # h(t, 0) = 0 at t = 0 and t = T only; h(T/2, 0) = 1
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        T = 0.01
        with pytest.raises(DomainError):
            integrate_perturbed(params, lambda y: y.astype(complex),
                                lambda t, y: np.sin(np.pi * t / T) * (1.0 + y),
                                T=T, grid=self.grid(64), dt=1e-5, phi0_prime=unit_slope,
                                h_y=lambda t, y: np.sin(np.pi * t / T) * np.ones_like(y))
        # a scalar forcing is broadcast over the grid
        run = integrate_perturbed(params, lambda y: y.astype(complex),
                                  lambda t, y: 0.0, T=T, grid=self.grid(64), dt=1e-5,
                                  phi0_prime=unit_slope, h_y=lambda t, y: 0.0)
        assert run.w.shape == (1001, 64)

    @pytest.mark.parametrize("grid", [5, "abc", (Grid1D(16, 1.0), Grid1D(64, 1.0))],
                             ids=["int", "str", "two-axes"])
    def test_grid_must_be_one_axis(self, grid):
        with pytest.raises(DomainError, match="grid must be a Grid1D"):
            integrate_perturbed(NonlinearityParams(alpha=0.5, lam=1.0),
                                lambda y: y.astype(complex), None,
                                T=0.01, grid=grid, dt=1e-5, phi0_prime=unit_slope)

    def test_wrong_shape_initial_data(self):
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        short = lambda y: y[:4].astype(complex)
        with pytest.raises(SizeMismatch):
            integrate_perturbed(params, short, None, T=0.01, grid=self.grid(64), dt=1e-5,
                                phi0_prime=lambda y: np.ones_like(y, dtype=complex))

    def test_wrong_shape_initial_derivative(self):
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        with pytest.raises(SizeMismatch):
            integrate_perturbed(params, lambda y: y.astype(complex), None,
                                T=0.01, grid=self.grid(64), dt=1e-5,
                                phi0_prime=lambda y: np.ones(4, dtype=complex))

    def test_wrong_shape_forcing(self):
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        with pytest.raises(SizeMismatch):
            integrate_perturbed(params, lambda y: y.astype(complex), lambda t, y: np.zeros(3),
                                T=0.01, grid=self.grid(64), dt=1e-5, phi0_prime=unit_slope,
                                h_y=lambda t, y: 3.0 * t * y**2)

    def test_wrong_shape_forcing_derivative(self):
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        with pytest.raises(SizeMismatch):
            integrate_perturbed(params, lambda y: y.astype(complex), lambda t, y: t * y**3,
                                T=0.01, grid=self.grid(64), dt=1e-5, phi0_prime=unit_slope,
                                h_y=lambda t, y: np.zeros(3))

    def test_phi_zero_requirement(self):
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        with pytest.raises(DomainError):
            integrate_perturbed(params, lambda y: y + 1.0, None,
                                T=0.1, grid=self.grid(64), dt=1e-4, phi0_prime=unit_slope)

    def test_v_consistent_with_differences_of_w(self):
        # away from the y = 0 kink, v agrees with centered differences of w
        # to O(spacing^2)
        # phi(y) = y vanishes only at the origin, so w is smooth in y away
        # from the single kink there
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        errs = []
        for n in (128, 256):
            grid = Grid1D(n, 1.0)
            run = integrate_perturbed(
                params, lambda y: y.astype(complex), None,
                T=0.05, grid=grid, dt=5e-5,
                phi0_prime=lambda y: np.ones_like(y, dtype=complex),
            )
            w = run.w[-1]
            fd = (w[2:] - w[:-2]) / (2.0 * grid.spacing)
            diff = np.abs(run.v[-1][1:-1] - fd)
            mask = np.abs(grid.points[1:-1]) > 0.1  # exclude the kink region
            errs.append(float(np.max(diff[mask])))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
        assert errs[1] <= 1e-2


def conj_factor_mask(w, alpha):
    """|w|^(alpha-2) w^2 through a boolean mask of w != 0 (reference)."""
    mag = np.abs(w)
    out = np.zeros_like(w)
    nz = mag > 0.0
    out[nz] = (w[nz] / mag[nz]) ** 2 * mag[nz] ** alpha
    return out


# exact zeros, subnormals and normal floats up to 1e300 (|w| stays finite)
_subnormal_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308]),
    st.floats(-2.2e-308, 2.2e-308),
)
_parts = st.one_of(_subnormal_parts, st.floats(-1e300, 1e300))
_alphas = st.floats(0.0, 2.0, exclude_min=True, exclude_max=True)
_TINY = np.finfo(float).tiny


class TestConjFactor:
    @settings(deadline=None, database=None, max_examples=200)
    @given(alpha=_alphas, parts=st.lists(st.tuples(_parts, _parts), min_size=1, max_size=64))
    def test_matches_mask_formula_bit_for_bit(self, alpha, parts):
        # where |w| is 0 or normal; the mask formula overflows for a subnormal |w|
        w = np.array([complex(a, b) for a, b in parts])
        mag = np.abs(w)
        keep = (mag == 0.0) | (mag >= _TINY)
        # |w|^alpha overflows for |w| near 1e300, under both formulas alike
        with np.errstate(over="ignore", invalid="ignore"):
            new = _conj_factor(w, mag, mag**alpha)[keep]
            old = conj_factor_mask(w[keep], alpha)
        assert new.tobytes() == old.tobytes()

    @settings(deadline=None, database=None, max_examples=200)
    @given(alpha=_alphas,
           parts=st.lists(st.tuples(_subnormal_parts, _subnormal_parts), min_size=1, max_size=64))
    @example(alpha=0.5, parts=[(1e-310, 0.0), (5e-324, 5e-324), (0.0, -3e-320)])
    def test_subnormal_modulus(self, alpha, parts):
        # |(w/|w|)^2 |w|^alpha| = |w|^alpha, with no overflow on the way
        w = np.array([complex(a, b) for a, b in parts])
        mag = np.abs(w)
        mag_a = mag**alpha
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = _conj_factor(w, mag, mag_a)
        assert np.all(np.isfinite(out))
        # a subnormal |w|^alpha carries only the absolute resolution 2^-1074
        assert np.all(np.abs(np.abs(out) - mag_a) <= 1e-12 * np.maximum(mag_a, _TINY))


class TestIntegratingFactor:
    def test_zero_run(self):
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        grid = Grid1D(64, 1.0)
        run = integrate_perturbed(
            params, lambda y: np.zeros_like(y, dtype=complex), None,
            T=0.05, grid=grid, dt=5e-5, phi0_prime=lambda y: np.zeros_like(y, dtype=complex),
        )
        A = integrating_factor(run)
        assert np.max(np.abs(A)) == 0.0

    def test_zero_column_and_initial_row(self):
        params = NonlinearityParams(alpha=0.5, lam=2.0 - 1.0j)
        grid = Grid1D(64, 1.0)
        run = integrate_perturbed(params, lambda y: y.astype(complex), None,
                                  T=0.05, grid=grid, dt=5e-5, phi0_prime=unit_slope)
        A = integrating_factor(run)
        assert np.max(np.abs(A[0])) == 0.0
        assert np.max(np.abs(A[:, grid.zero_index])) == 0.0

    def test_imaginary_lambda_closed_form(self):
        # |w| is constant in time, so A(t,y) = lam*(alpha+2)/2 * t * |y|^alpha.
        alpha = 0.5
        params = NonlinearityParams(alpha=alpha, lam=1j)
        grid = Grid1D(128, 1.0)
        run = integrate_perturbed(
            params, lambda y: y.astype(complex), None, T=0.05, grid=grid, dt=5e-5,
            phi0_prime=lambda y: np.ones_like(y, dtype=complex),
        )
        A = integrating_factor(run)
        y = grid.points
        expect = 1j * (alpha + 2.0) / 2.0 * run.times[:, None] * np.abs(y[None, :]) ** alpha
        assert np.max(np.abs(A - expect)) <= 1e-10


class TestRepresentationCheck:
    def run_for(self, dt, h=None, h_y=None, T=0.1):
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        grid = Grid1D(128, 1.0)
        return integrate_perturbed(
            params, lambda y: y.astype(complex), h, T=T, grid=grid, dt=dt,
            phi0_prime=lambda y: np.ones_like(y, dtype=complex), h_y=h_y,
        )

    def test_identity_residual_small(self):
        run = self.run_for(1e-4)
        res = representation_check(run, integrating_factor(run))
        assert res <= 1e-6

    def test_zero_run_zero_residual(self):
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        grid = Grid1D(64, 1.0)
        run = integrate_perturbed(
            params, lambda y: np.zeros_like(y, dtype=complex), None,
            T=0.05, grid=grid, dt=5e-5, phi0_prime=lambda y: np.zeros_like(y, dtype=complex),
        )
        assert representation_check(run, integrating_factor(run)) == 0.0

    def test_residual_order_under_refinement(self):
        run1 = self.run_for(1e-4)
        run2 = self.run_for(5e-5)
        r1 = representation_check(run1, integrating_factor(run1))
        r2 = representation_check(run2, integrating_factor(run2))
        assert r1 / r2 >= 3.5

    def test_with_forcing(self):
        run = self.run_for(1e-4, h=lambda t, y: t * y**3,
                           h_y=lambda t, y: 3.0 * t * y**2)
        res = representation_check(run, integrating_factor(run))
        assert res <= 1e-6

    def test_scalar_h_y_is_broadcast_over_the_columns(self):
        # integrate_perturbed accepts a scalar h_y; the check must read it as a row
        def run_with(h_y):
            return integrate_perturbed(
                NonlinearityParams(0.5, 1.0), lambda y: y.astype(complex),
                lambda t, y: 0.0, T=0.01, grid=Grid1D(64, 1.0), dt=1e-5,
                phi0_prime=unit_slope, h_y=h_y,
            )

        scalar = run_with(lambda t, y: 0.0)
        array = run_with(lambda t, y: np.zeros_like(y, dtype=complex))
        assert (representation_check(scalar, integrating_factor(scalar))
                == representation_check(array, integrating_factor(array)))


class TestSnapshotThinning:
    def run_every(self, every, T=0.01, dt=1e-5, **kwargs):
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        return integrate_perturbed(
            params, lambda y: y.astype(complex), None, T=T, grid=Grid1D(128, 1.0), dt=dt,
            phi0_prime=lambda y: np.ones_like(y, dtype=complex),
            snapshot_every=every, **kwargs,
        )

    def test_kept_rows_equal_the_full_track(self):
        full = self.run_every(1)
        for every, kept in ((200, [0, 200, 400, 600, 800, 1000]), (300, [0, 300, 600, 900, 1000])):
            run = self.run_every(every)
            assert np.array_equal(run.times, full.times[kept])
            assert np.array_equal(run.w, full.w[kept])
            assert np.array_equal(run.v, full.v[kept])

    def test_defect_at_kept_time_matches_full_track(self):
        full, thin = self.run_every(1), self.run_every(200)
        for t in (0.004, 0.01):
            a, b = holder_defect(full, t), holder_defect(thin, t)
            assert a.t == b.t
            assert np.array_equal(a.increments, b.increments)

    def test_validation(self):
        with pytest.raises(DomainError):
            self.run_every(0)
        run = self.run_every(10)
        with pytest.raises(DegenerateInput):
            representation_check(run, integrating_factor(run))

    def test_blowup_partial_ends_at_the_failing_step(self):
        # phi0 = y blows up at t* = 2 at y = -1, so the run to T = 2.5 passes the cap
        with pytest.raises(BlowUpError) as err:
            self.run_every(7, T=2.5, dt=1e-3)
        partial = err.value.partial
        assert np.all(np.diff(partial.times[:-1]) == pytest.approx(7e-3))
        assert partial.times[-1] == pytest.approx(err.value.time)
        assert partial.w.shape == (partial.times.size, 128)


class TestColumnRestriction:
    """A run restricted to some grid columns is those columns of the full run."""

    GRID = Grid1D(32, 1.0)

    @staticmethod
    def run_on(columns, alpha=0.5, lam=1.0, forced=False, every=1, **kwargs):
        h, h_y = (lambda t, y: t * y**3, lambda t, y: 3.0 * t * y**2) if forced else (None, None)
        return integrate_perturbed(
            NonlinearityParams(alpha=alpha, lam=lam),
            lambda y: (y * np.exp(-y * y)).astype(complex), h, T=0.01,
            grid=TestColumnRestriction.GRID, dt=1e-5,
            phi0_prime=lambda y: ((1.0 - 2.0 * y * y) * np.exp(-y * y)).astype(complex),
            h_y=h_y, snapshot_every=every, columns=columns, **kwargs,
        )

    @settings(max_examples=12, deadline=None)
    @given(
        subset=st.sets(st.integers(0, 31), max_size=12),
        alpha=st.floats(0.05, 1.95),
        lam=st.sampled_from([1.0, 1j, 0.3 + 0.7j, 0.0]),
        forced=st.booleans(),
        every=st.sampled_from([1, 7]),
    )
    def test_restricted_run_is_bit_identical_to_its_columns(
            self, subset, alpha, lam, forced, every):
        columns = np.array(sorted(subset | {self.GRID.zero_index}))
        opts = dict(alpha=alpha, lam=lam, forced=forced, every=every)
        full, part = self.run_on(None, **opts), self.run_on(columns, **opts)
        assert np.array_equal(part.columns, columns)
        assert np.array_equal(part.times, full.times)
        assert part.w.tobytes() == np.ascontiguousarray(full.w[:, columns]).tobytes()
        assert part.v.tobytes() == np.ascontiguousarray(full.v[:, columns]).tobytes()
        assert part.z0 == full.z0

    @pytest.mark.parametrize("columns", [
        [3, 5, 20],          # no zero index
        [16, 32],            # out of range
        [-1, 16],            # negative
        [20, 16],            # unsorted
        [16, 16, 20],        # repeated
        [16.0, 20.0],        # not indices
    ])
    def test_bad_columns_are_domain_errors(self, columns):
        with pytest.raises(DomainError):
            self.run_on(columns)

    def test_every_column_is_the_full_width_run(self):
        # None stands for every column; the run stores the indices, not None
        run, full = self.run_on(np.arange(32)), self.run_on(None)
        assert np.array_equal(full.columns, np.arange(32)) and run.w.shape == (1001, 32)
        assert run.w.tobytes() == full.w.tobytes() and run.v.tobytes() == full.v.tobytes()

    def test_representation_check_uses_the_run_points(self):
        columns = np.array([4, 10, 16, 17, 29])
        full = self.run_on(None, forced=True)
        part = self.run_on(columns, forced=True)
        res_part = representation_check(part, integrating_factor(part))
        assert 0.0 < res_part <= representation_check(full, integrating_factor(full))

    def test_holder_defect_needs_the_ladder_columns(self):
        grid = Grid1D(256, 1.0)
        ladder = grid.zero_index + np.array([0, 4, 8, 16, 32, 64])
        params = NonlinearityParams(alpha=0.5, lam=1.0)

        def run_on(columns):
            return integrate_perturbed(
                params, lambda y: y.astype(complex), None, T=0.01, grid=grid, dt=1e-5,
                phi0_prime=lambda y: np.ones_like(y, dtype=complex), columns=columns,
            )

        full, part = run_on(None), run_on(ladder)
        a, b = holder_defect(full, 0.01), holder_defect(part, 0.01)
        assert np.array_equal(a.increments, b.increments)
        assert a.increment_fit.slope == b.increment_fit.slope
        with pytest.raises(DegenerateInput, match="did not integrate"):
            holder_defect(run_on(np.delete(ladder, 2)), 0.01)
        with pytest.raises(DegenerateInput, match="did not integrate"):
            holder_defect(part, 0.01, y_max=0.75)

    def test_blowup_check_sees_only_the_integrated_columns(self):
        # phi0 = y blows up first at |y| = 1, at t* = 2; at |y| <= 1/16, t* >= 8, so
        # columns near 0 stay far below the cap up to T = 2.5
        near_zero = Grid1D(32, 1.0).zero_index + np.arange(-1, 2)
        kwargs = dict(T=2.5, grid=Grid1D(32, 1.0), dt=1e-3,
                      phi0_prime=lambda y: np.ones_like(y, dtype=complex))
        params = NonlinearityParams(alpha=0.5, lam=1.0)
        with pytest.raises(BlowUpError):
            integrate_perturbed(params, lambda y: y.astype(complex), None, **kwargs)
        run = integrate_perturbed(params, lambda y: y.astype(complex), None,
                                  columns=near_zero, **kwargs)
        assert run.w.shape == (2501, 3)


class TestHolderDefect:
    def make_run(self, alpha, lam, h=None, h_y=None, n=1024, dt=5e-5, T=0.05):
        params = NonlinearityParams(alpha=alpha, lam=lam)
        grid = Grid1D(n, 1.0)
        return integrate_perturbed(
            params, lambda y: y.astype(complex), h, T=T, grid=grid, dt=dt,
            phi0_prime=lambda y: np.ones_like(y, dtype=complex), h_y=h_y,
        )

    def test_unperturbed_slope_matches_alpha(self):
        alpha = 0.5
        run = self.make_run(alpha, 1.0)
        report = holder_defect(run, 0.05)
        assert abs(report.increment_fit.slope - alpha) <= 0.05
        # Oracle: increments of the closed-form first derivative.
        from reglab.ode import exact_first_derivative

        params = run.params
        qs = np.array([
            abs(exact_first_derivative(params, y, 0.05)
                - exact_first_derivative(params, 0.0, 0.05))
            for y in report.ys
        ])
        assert np.max(np.abs(qs - report.increments)) <= 1e-6 * np.max(qs)
        assert report.liminf_proxy > 0.0
        assert report.theory_lower_bound > 0.0

    def test_smooth_perturbation_keeps_defect(self):
        alpha = 0.5
        run = self.make_run(alpha, 1.0, h=lambda t, y: t * y**3,
                            h_y=lambda t, y: 3.0 * t * y**2)
        report = holder_defect(run, 0.05)
        assert abs(report.increment_fit.slope - alpha) <= 0.05

    def test_linear_control_no_defect(self):
        run = self.make_run(0.5, 0.0, h=lambda t, y: t * y**3,
                            h_y=lambda t, y: 3.0 * t * y**2)
        report = holder_defect(run, 0.05)
        assert report.increment_fit.slope >= 0.99

    def test_degenerate_ladder(self):
        run = self.make_run(0.5, 1.0, n=64, dt=5e-5)
        with pytest.raises(DegenerateInput):
            holder_defect(run, 0.05, y_max=0.5)

    def test_bad_time(self):
        run = self.make_run(0.5, 1.0, n=256)
        with pytest.raises(DomainError):
            holder_defect(run, 0.4)
