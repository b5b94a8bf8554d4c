import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from reglab.errors import DegenerateInput, DomainError, NonConvergence, StepSizeError
from reglab.numerics import (
    _GAUSS_W,
    _KRONROD_W,
    _MAX_DEPTH,
    _NODES,
    adaptive_quadrature,
    central_difference,
    gaussian_moment,
    loglog_fit,
    snapshot_steps,
    step_count,
    trapezoid_weights,
)

SQRT_PI = math.sqrt(math.pi)


def depth_first_gk15(f, a, b, rel_tol=1e-10):
    """Reference: recursive depth-first GK15 bisection, one call of f per panel.

    Same panel rule and verdicts as :func:`adaptive_quadrature`; returns the
    total (accepted panels summed left to right) and the deepest level reached.
    """

    def panel(lo, hi):
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        x = mid + half * _NODES
        fx = np.broadcast_to(np.asarray(f(x), complex), x.shape)
        kronrod = half * np.sum(_KRONROD_W * fx)
        return complex(kronrod), abs(kronrod - half * np.sum(_GAUSS_W * fx))

    coarse, _ = panel(a, b)
    scale = 1.0 + abs(coarse)

    def bisect(lo, hi, tol, depth):
        value, err = panel(lo, hi)
        if err <= tol or err <= 1e-16 * scale:
            return [value], depth
        if depth >= _MAX_DEPTH:
            raise NonConvergence(f"unresolved on [{lo}, {hi}] at depth {depth}")
        mid = 0.5 * (lo + hi)
        left, d_left = bisect(lo, mid, 0.5 * tol, depth + 1)
        right, d_right = bisect(mid, hi, 0.5 * tol, depth + 1)
        return left + right, max(d_left, d_right)

    values, deepest = bisect(a, b, rel_tol * scale, 0)
    total = 0.0 + 0.0j
    for value in values:
        total += value
    return total, deepest


def kinked(y):
    return np.abs(y) ** 0.5 * y * np.exp(-y**2)


REFERENCE_CASES = {
    "gaussian": (lambda y: np.exp(-y**2), -10.0, 10.0, 1e-12),
    "constant": (lambda y: 1.0, 0.0, 1.0, 1e-10),
    "cubed_moment": (lambda y: np.exp(-y**2) * np.abs(y) ** 3, -12.0, 12.0, 1e-12),
    "complex": (lambda y: np.exp(1j * y), 0.0, np.pi, 1e-12),
    "power_0.5": (lambda y: np.exp(-y**2) * np.abs(y) ** 0.5, -12.0, 12.0, 1e-10),
    "power_6.5": (lambda y: np.exp(-y**2) * np.abs(y) ** 6.5, -12.0, 12.0, 1e-10),
    "kinked_wide": (kinked, -2.0, 5.0, 1e-10),
    "kinked_offset": (kinked, -1.0, 3.0, 1e-12),
}


class TestAdaptiveQuadrature:
    def test_gaussian_integral(self):
        val = adaptive_quadrature(lambda y: np.exp(-y**2), -10.0, 10.0, 1e-12)
        assert abs(val - SQRT_PI) <= 1e-10 * SQRT_PI

    def test_constant(self):
        assert abs(adaptive_quadrature(lambda y: 1.0, 0.0, 1.0) - 1.0) <= 1e-12

    def test_gaussian_cubed_moment_vs_gamma_and_midpoint(self):
        # Oracle 1: gamma identity, integral e^{-y^2}|y|^3 = Gamma(2) = 1.
        # Oracle 2: midpoint rule at 1e7 points.
        f = lambda y: np.exp(-y**2) * np.abs(y) ** 3
        val = adaptive_quadrature(f, -12.0, 12.0, 1e-12)
        assert abs(val - 1.0) <= 1e-9
        n = 10_000_000
        h = 24.0 / n
        mids = -12.0 + h * (np.arange(n) + 0.5)
        brute = float(np.sum(f(mids)) * h)
        assert abs(val - brute) <= 1e-8

    def test_complex_integrand(self):
        val = adaptive_quadrature(lambda y: np.exp(1j * y), 0.0, np.pi, 1e-12)
        expect = complex(0.0, -(math.cos(math.pi) - 1.0))
        assert abs(val - 2j) <= 1e-12
        assert abs(val - expect) <= 1e-12

    def test_nonconvergence_on_strong_singularity(self):
        with pytest.raises(NonConvergence):
            adaptive_quadrature(lambda y: np.abs(y) ** -0.999, 0.0, 1.0, 1e-10)

    def test_invalid_interval_and_tolerance(self):
        with pytest.raises(DomainError):
            adaptive_quadrature(lambda y: y, 1.0, 0.0)
        with pytest.raises(DomainError):
            adaptive_quadrature(lambda y: y, 0.0, 1.0, rel_tol=0.5)
        with pytest.raises(DomainError):
            adaptive_quadrature(lambda y: y, 0.0, 1.0, rel_tol=1e-15)

    def test_integrand_error_propagates(self):
        # the integrand is called once, on the 15 nodes of the whole interval,
        # and its error is not retried point by point
        shapes = []

        def broken(y):
            shapes.append(np.shape(y))
            raise ValueError("integrand failure")

        with pytest.raises(ValueError, match="integrand failure"):
            adaptive_quadrature(broken, -1.0, 1.0)
        assert shapes == [(15,)]

    def test_agrees_with_closed_forms_for_power_integrands(self):
        for beta in (0.5, 1.0, 2.5, 4.0, 6.5):
            f = lambda y, b=beta: np.exp(-y**2) * np.abs(y) ** b
            val = adaptive_quadrature(f, -12.0, 12.0, 1e-10)
            expect = gaussian_moment(beta)
            assert abs(val - expect) <= 1e-10 * (1.0 + abs(expect))


class TestLevelBatching:
    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_matches_depth_first_reference(self, case):
        f, a, b, tol = REFERENCE_CASES[case]
        expect, _ = depth_first_gk15(f, a, b, tol)
        val = adaptive_quadrature(f, a, b, tol)
        assert abs(val - expect) <= 1e-14 * abs(expect)

    def test_singularity_fails_under_both(self):
        f = lambda y: np.abs(y) ** -0.999
        with pytest.raises(NonConvergence):
            depth_first_gk15(f, 0.0, 1.0, 1e-10)
        with pytest.raises(NonConvergence):
            adaptive_quadrature(f, 0.0, 1.0, 1e-10)

    def test_one_integrand_call_per_level(self):
        calls = []

        def gaussian(y):
            calls.append(y.size)
            return np.exp(-y**2)

        val = adaptive_quadrature(gaussian, -12.0, 12.0, 1e-12)
        _, deepest = depth_first_gk15(lambda y: np.exp(-y**2), -12.0, 12.0, 1e-12)
        assert abs(val - SQRT_PI) <= 1e-12 * SQRT_PI
        assert deepest >= 3
        assert len(calls) <= deepest + 1
        assert sum(calls) % 15 == 0 and sum(calls) > 15 * len(calls)

    def test_never_converging_integrand_stays_bounded(self):
        # NaN everywhere: no interval is ever accepted, so every level is
        # full; the work must stay near max_depth batches, not 2^max_depth
        points = []

        def nowhere(y):
            points.append(y.size)
            return np.full(y.shape, np.nan)

        with pytest.raises(NonConvergence):
            adaptive_quadrature(nowhere, 0.0, 1.0)
        assert sum(points) <= (_MAX_DEPTH + 1) * 1024 * 15
        assert max(points) <= 1024 * 15


class TestGammaAndMoments:
    def test_moment_beta0(self):
        assert abs(gaussian_moment(0.0) - SQRT_PI) <= 1e-13

    def test_moment_beta2_vs_quadrature(self):
        # Independent oracle: adaptive quadrature of e^{-y^2} y^2.
        quad = adaptive_quadrature(lambda y: np.exp(-y**2) * y**2, -12.0, 12.0, 1e-12)
        expect = SQRT_PI / 2.0
        assert abs(gaussian_moment(2.0) - expect) <= 1e-13
        assert abs(quad.real - expect) <= 1e-11

    def test_recursion_single(self):
        lhs = gaussian_moment(0.5)
        rhs = (2.0 / 1.5) * gaussian_moment(2.5)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_recursion_property_random_beta(self):
        rng = np.random.default_rng(2024)
        for beta in rng.uniform(0.0, 8.0, size=50):
            lhs = gaussian_moment(beta)
            rhs = (2.0 / (beta + 1.0)) * gaussian_moment(beta + 2.0)
            assert abs(lhs - rhs) <= 1e-11 * abs(lhs)

    def test_moment_domain(self):
        with pytest.raises(DomainError):
            gaussian_moment(-0.1)


class TestLoglogFit:
    def test_exact_square_law(self):
        xs = np.linspace(1.0, 9.0, 12)
        fit = loglog_fit(xs, xs**2)
        assert abs(fit.slope - 2.0) <= 1e-12

    def test_negative_power_with_prefactor(self):
        xs = np.geomspace(0.01, 100.0, 9)
        fit = loglog_fit(xs, 5.0 * xs**-0.75)
        assert abs(fit.slope + 0.75) <= 1e-12
        assert abs(fit.intercept - math.log(5.0)) <= 1e-12

    def test_noisy_synthetic_slope(self):
        rng = np.random.default_rng(11)
        xs = np.geomspace(0.1, 10.0, 40)
        ys = xs**1.3 * (1.0 + 0.01 * rng.standard_normal(40))
        fit = loglog_fit(xs, ys)
        assert abs(fit.slope - 1.3) <= 0.02

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInput):
            loglog_fit([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DegenerateInput):
            loglog_fit([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
        with pytest.raises(DegenerateInput):
            loglog_fit([0.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_constant_y(self):
        fit = loglog_fit([1.0, 2.0, 4.0], [3.0, 3.0, 3.0])
        assert abs(fit.slope) <= 1e-14
        assert abs(fit.intercept - math.log(3.0)) <= 1e-14


class TestTimeStepping:
    @settings(deadline=None, database=None)
    @given(
        st.floats(-100.0, 100.0),
        st.lists(st.floats(1e-3, 10.0), min_size=0, max_size=40),
        st.floats(-10.0, 10.0),
        st.floats(-10.0, 10.0),
    )
    def test_trapezoid_weights_exact_on_affine(self, t0, steps, a, b):
        times = t0 + np.concatenate([[0.0], np.cumsum(steps)])
        weights = trapezoid_weights(times)
        span = times[-1] - times[0]
        n = len(times)
        assert abs(np.sum(weights) - span) <= 1e-13 * n * (np.max(np.abs(times)) + span)
        exact = a * span + b * (0.5 * span * (times[-1] + times[0]))
        scale = np.sum(weights * (abs(a) + abs(b) * np.abs(times)))
        # a subnormal product rounds by up to one absolute ulp, which the
        # weights then scale
        underflow = (span + 2 * n) * np.finfo(float).smallest_subnormal
        assert abs(weights @ (a + b * times) - exact) <= 1e-13 * n * scale + underflow

    def test_central_difference_exact_on_quartics(self):
        y = np.linspace(-1.0, 1.0, 9)
        d = central_difference(lambda q: 3.0 * q**4 - q**3 + 2.0, y, step=0.125)
        assert np.max(np.abs(d - (12.0 * y**3 - 3.0 * y**2))) <= 1e-12

    def test_step_count_integral_ratios(self):
        assert step_count(0.02, 2e-5) == 1000
        assert step_count(0.02, 2.5e-5) == 800
        assert step_count(4e-4, 2e-5) == 20
        assert step_count(1.0, 1.0) == 1

    @pytest.mark.parametrize("T, dt", [
        (1.04e-3, 1e-4), (0.01, 3e-4), (1e-5, 1e-4), (float("inf"), 1e-3),
        (float("nan"), 1e-3),
    ])
    def test_step_count_rejects_non_integral(self, T, dt):
        with pytest.raises(StepSizeError):
            step_count(T, dt)

    def test_snapshot_steps_match_the_modulo_rule(self):
        # 0, every k-th step and the last, including strides longer than the run
        for n in range(1, 26):
            for every in list(range(1, 31)) + [10**9]:
                steps = snapshot_steps(n, every)
                assert steps.tolist() == [k for k in range(n + 1) if k % every == 0 or k == n]

    @pytest.mark.parametrize("every", [0, -3])
    def test_snapshot_steps_reject_a_stride_below_one(self, every):
        with pytest.raises(DomainError):
            snapshot_steps(10, every)
