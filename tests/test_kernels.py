import math

import numpy as np
import pytest

from reglab.errors import DegenerateInput, DomainError
from reglab.kernels import (
    KernelProbe,
    _graded_rule,
    c_alpha,
    fifth_derivative_at_zero,
    gaussian_smooth,
    graded_fifth_derivatives,
    odd_power_probe,
)
from reglab.numerics import adaptive_quadrature, gaussian_moment

SQRT_PI = math.sqrt(math.pi)


def fd5(func, h, npts=9):
    """Central finite-difference fifth derivative at 0 (stencil via Vandermonde)."""
    half = npts // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    rows = np.array([offsets**m / math.factorial(m) for m in range(npts)])
    rhs = np.zeros(npts)
    rhs[5] = 1.0
    weights = np.linalg.solve(rows, rhs)
    vals = np.array([func(k * h) for k in offsets])
    return np.sum(weights * vals) / h**5


class TestKernelProbe:
    def test_validation(self):
        with pytest.raises(DomainError):
            KernelProbe(psi=lambda y: y, sigma=0.0)
        with pytest.raises(DomainError):
            KernelProbe(psi=lambda y: y, sigma=1.0, m=-1.0)

    def test_growth_sanity(self):
        # quadratic declared as bounded -> rejected at the sampling check
        with pytest.raises(DomainError):
            KernelProbe(psi=lambda y: y**4, sigma=1.0, m=0.0)
        KernelProbe(psi=lambda y: y**4, sigma=1.0, m=4.0)

    def test_growth_breach_only_at_largest_radius(self):
        psi = lambda y: np.where(np.abs(y) > 50.0, 1e9, 1.0)
        with pytest.raises(DomainError, match=r"\|x\|=100\.0"):
            KernelProbe(psi=psi, sigma=1.0, m=0.0)
        steep = lambda y: y**4
        with pytest.raises(DomainError, match=r"m=1\.0 at \|x\|=10\.0"):
            KernelProbe(psi=steep, sigma=1.0, m=1.0)

    def test_growth_check_calls_psi_once(self):
        calls = []

        def psi(y):
            calls.append(np.array(y))
            return y

        KernelProbe(psi=psi, sigma=1.0, m=1.0)
        assert len(calls) == 1
        assert sorted(calls[0]) == [-100.0, -10.0, -1.0, 1.0, 10.0, 100.0]
        KernelProbe(psi=lambda y: 2.0, sigma=1.0, m=0.0)  # constant psi still works


class TestGaussianSmooth:
    def test_unit_mass(self):
        for sigma in (0.01, 1.0, 25.0):
            probe = KernelProbe(psi=lambda y: np.ones_like(y), sigma=sigma, m=0.0)
            for x in (0.0, 1.7, -3.0):
                assert abs(gaussian_smooth(probe, x) - 1.0) <= 1e-9

    def test_first_moment_preserved(self):
        probe = KernelProbe(psi=lambda y: y.astype(complex), sigma=2.0, m=1.0)
        for x in (0.0, 0.5, -2.5):
            assert abs(gaussian_smooth(probe, x) - x) <= 1e-9 * (1 + abs(x))

    def test_second_moment(self):
        # smoothing time sigma/4 adds variance sigma/2 at the origin
        probe = KernelProbe(psi=lambda y: y**2, sigma=1.0, m=2.0)
        assert abs(gaussian_smooth(probe, 0.0) - 0.5) <= 1e-9

    def test_affine_functions_fixed(self):
        probe = KernelProbe(psi=lambda y: 3.0 * y - 2.0, sigma=0.7, m=1.0)
        for x in (-1.0, 0.3):
            expect = 3.0 * x - 2.0
            assert abs(gaussian_smooth(probe, x) - expect) <= 1e-9 * (1 + abs(expect))


class TestFifthDerivative:
    def test_cubic_vanishes(self):
        probe = KernelProbe(psi=lambda y: y**3, sigma=1.0, m=3.0)
        assert abs(fifth_derivative_at_zero(probe)) <= 1e-10

    def test_odd_power_closed_form(self):
        for alpha, sigma in [(0.5, 1.0), (0.5, 0.1), (1.0, 1.0), (1.5, 4.0)]:
            val = fifth_derivative_at_zero(odd_power_probe(alpha, sigma))
            expect = -c_alpha(alpha) * sigma ** (-2.0 + alpha / 2.0)
            assert abs(val.imag) <= 1e-12 * abs(val.real)
            assert abs(val.real - expect) <= 1e-8 * abs(expect)

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_against_finite_differences(self, sigma):
        # Oracle: 7-point stencil over gaussian_smooth at spacing 1e-2*sqrt(sigma)
        probe = KernelProbe(psi=lambda y: y**3 * np.exp(-(y**2)), sigma=sigma, m=3.0)
        direct = fifth_derivative_at_zero(probe)
        h = 1e-2 * math.sqrt(sigma)
        approx = fd5(lambda x: gaussian_smooth(probe, x), h)
        assert abs(direct - approx) <= 1e-4 * abs(direct)

    def test_odd_power_against_finite_differences(self):
        probe = odd_power_probe(0.5, 1.0)
        direct = fifth_derivative_at_zero(probe)
        approx = fd5(lambda x: gaussian_smooth(probe, x), 1e-2)
        assert abs(direct - approx) <= 1e-4 * abs(direct)

    def test_alpha_one_value(self):
        val = fifth_derivative_at_zero(odd_power_probe(1.0, 1.0))
        expect = -8.0 / SQRT_PI
        assert abs(val.real - expect) <= 1e-8 * abs(expect)

    def test_even_probe_vanishes(self):
        # the kernel is odd, so an even psi has no fifth derivative at 0
        probe = KernelProbe(psi=lambda y: np.abs(y) ** 1.5, sigma=1.0, m=1.5)
        assert abs(fifth_derivative_at_zero(probe)) < 1e-9


def odd_difference(psi):
    """The graded rule's argument for psi: y -> psi(y) - psi(-y)."""
    return lambda y: psi(y) - psi(-y)


class TestGradedRule:
    def test_odd_power_closed_form(self):
        sigmas = np.geomspace(1e-4, 10.0, 6)
        for alpha in (0.1, 0.5, 1.0, 1.5, 1.9):
            vals = graded_fifth_derivatives(odd_difference(lambda y: np.abs(y) ** alpha * y),
                                            sigmas)
            expect = -c_alpha(alpha) * sigmas ** (-2.0 + alpha / 2.0)
            assert np.max(np.abs(vals - expect) / np.abs(expect)) <= 1e-11

    def test_matches_adaptive_quadrature_without_symmetry(self):
        # psi with odd and even parts, complex, and a kink at 0: only the odd
        # part survives the odd kernel, for the rule as for the quadrature
        def psi(y):
            return np.sin(3.0 * y) + np.cos(y) + 1j * np.abs(y) ** 0.5 * y + y**2

        sigmas = [1e-3, 0.1, 2.0]
        vals = graded_fifth_derivatives(odd_difference(psi), sigmas)
        for sigma, val in zip(sigmas, vals):
            ref = fifth_derivative_at_zero(KernelProbe(psi=psi, sigma=sigma, m=2.0), rel_tol=1e-12)
            assert abs(val - ref) <= 1e-10 * abs(ref)

    def test_one_call_of_psi_with_one_row_per_sigma(self):
        calls = []

        def odd(y):
            calls.append(y.copy())
            return y

        graded_fifth_derivatives(odd, [0.1, 0.2, 0.3])
        assert len(calls) == 1
        assert calls[0].shape == (3, _graded_rule()[0].size)
        assert np.all(calls[0] >= 0.0)

    @pytest.mark.parametrize("sigmas", [[-1.0, 0.1], [0.0, 0.1], [np.nan, 0.1],
                                        [0.1, np.inf], [-1.0, 0.0, np.nan, 0.1]])
    def test_rejects_bad_sigma(self, sigmas):
        with pytest.raises(DomainError):
            graded_fifth_derivatives(odd_difference(np.sin), sigmas)

    def test_rejects_empty_sigmas(self):
        with pytest.raises(DegenerateInput):
            graded_fifth_derivatives(odd_difference(np.sin), [])


class TestCAlpha:
    def test_zero_at_two(self):
        assert c_alpha(2.0) == 0.0

    def test_alpha_one_closed_form(self):
        expect = 8.0 / SQRT_PI
        assert abs(c_alpha(1.0) - expect) <= 1e-10 * expect

    def test_alpha_half_vs_quadrature(self):
        # Independent oracle: quadrature of the defining moment integral.
        moment = adaptive_quadrature(
            lambda y: np.exp(-(y**2)) * np.abs(y) ** 6.5, -12.0, 12.0, 1e-12
        ).real
        expect = (32.0 * 0.5 * 1.5 / (3.5 * 5.5)) * moment / SQRT_PI
        assert abs(c_alpha(0.5) - expect) <= 1e-9 * expect

    def test_positive_on_open_interval(self):
        for alpha in np.linspace(0.05, 1.95, 20):
            assert c_alpha(alpha) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            c_alpha(0.0)
        with pytest.raises(DomainError):
            c_alpha(2.5)


class TestScalingProperties:
    def test_sigma_independence_of_scaled_value(self):
        alpha = 0.75
        sigmas = np.geomspace(1e-2, 10.0, 7)
        scaled = []
        for sigma in sigmas:
            val = fifth_derivative_at_zero(odd_power_probe(alpha, sigma))
            scaled.append(val.real * sigma ** (2.0 - alpha / 2.0))
        scaled = np.array(scaled)
        ref = np.mean(scaled)
        assert np.max(np.abs(scaled - ref)) <= 1e-8 * abs(ref)

    def test_bracket_identity_random_alpha(self):
        # quadrature of the bracket polynomial against |y|^(alpha+2) equals
        # 4*alpha*(alpha-2)/((alpha+3)(alpha+5)) * moment(alpha+6)
        rng = np.random.default_rng(42)
        for alpha in rng.uniform(0.01, 1.99, size=20):
            quad = adaptive_quadrature(
                lambda y, a=alpha: np.exp(-(y**2))
                * (15.0 - 20.0 * y**2 + 4.0 * y**4)
                * np.abs(y) ** (a + 2.0),
                -12.0, 12.0, 1e-12,
            ).real
            expect = (
                4.0 * alpha * (alpha - 2.0) / ((alpha + 3.0) * (alpha + 5.0))
                * gaussian_moment(alpha + 6.0)
            )
            assert abs(quad - expect) <= 1e-10 * abs(expect)
