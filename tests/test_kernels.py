import math

import numpy as np
import pytest

from reglab.errors import DegenerateInput, DomainError
from reglab.grids import Grid1D
from reglab.kernels import (
    KernelProbe,
    _graded_rule,
    c_alpha,
    fifth_derivative_at_zero,
    graded_fifth_derivatives,
    odd_power_probe,
)
from reglab.numerics import adaptive_quadrature, gaussian_moment

SQRT_PI = math.sqrt(math.pi)


def fd5(samples, h):
    """Central finite-difference fifth derivative at the middle of equispaced samples."""
    half = len(samples) // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    rows = np.array([offsets**m / math.factorial(m) for m in range(len(samples))])
    rhs = np.zeros(len(samples))
    rhs[5] = 1.0
    return np.sum(np.linalg.solve(rows, rhs) * samples) / h**5


class TestKernelProbe:
    def test_validation(self):
        for sigma in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(DomainError):
                KernelProbe(psi=lambda y: y, sigma=sigma)
        with pytest.raises(DomainError):
            odd_power_probe(0.5, np.inf)


class TestFifthDerivative:
    def test_cubic_vanishes(self):
        probe = KernelProbe(psi=lambda y: y**3, sigma=1.0)
        assert abs(fifth_derivative_at_zero(probe)) <= 1e-10

    def test_odd_power_closed_form(self):
        for alpha, sigma in [(0.5, 1.0), (0.5, 0.1), (1.0, 1.0), (1.5, 4.0)]:
            val = fifth_derivative_at_zero(odd_power_probe(alpha, sigma))
            expect = -c_alpha(alpha) * sigma ** (-2.0 + alpha / 2.0)
            assert abs(val.imag) <= 1e-12 * abs(val.real)
            assert abs(val.real - expect) <= 1e-8 * abs(expect)

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_against_finite_differences(self, sigma):
        # Oracle: psi smoothed spectrally on L 16, N 4096, whose fifth derivative at 0 is
        # ifft((i xi)^5 e^(-sigma xi^2/4) fft(psi)); a 9-point stencil over the smoothed
        # samples checks that oracle's conventions
        psi = lambda y: y**3 * np.exp(-(y**2))
        direct = fifth_derivative_at_zero(KernelProbe(psi=psi, sigma=sigma))
        g = Grid1D(4096, 16.0)
        smoothed = np.fft.fft(psi(g.points)) * np.exp(-sigma * g.wavenumbers**2 / 4.0)
        spectral = np.fft.ifft((1j * g.wavenumbers) ** 5 * smoothed)[g.zero_index]
        assert abs(direct - spectral) <= 1e-13 * abs(spectral)
        window = np.fft.ifft(smoothed)[g.zero_index - 4 : g.zero_index + 5]
        assert abs(fd5(window, g.spacing) - spectral) <= 1e-4 * abs(spectral)

    def test_alpha_one_value(self):
        val = fifth_derivative_at_zero(odd_power_probe(1.0, 1.0))
        expect = -8.0 / SQRT_PI
        assert abs(val.real - expect) <= 1e-8 * abs(expect)

    def test_even_probe_vanishes(self):
        # the kernel is odd, so an even psi has no fifth derivative at 0
        for psi in (lambda y: np.abs(y) ** 1.5, lambda y: 2.0):
            assert abs(fifth_derivative_at_zero(KernelProbe(psi=psi, sigma=1.0))) < 1e-9


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

    def test_matches_closed_form_without_symmetry(self):
        # psi with odd and even parts, complex, and a kink at 0: only the odd part
        # sin(3y) + i |y|^0.5 y survives the odd kernel, and its smoothed fifth
        # derivative at 0 is 243 e^(-9 sigma/4) - i c_0.5 sigma^(-7/4)
        def psi(y):
            return np.sin(3.0 * y) + np.cos(y) + 1j * np.abs(y) ** 0.5 * y + y**2

        sigmas = np.array([1e-3, 0.1, 2.0])
        vals = graded_fifth_derivatives(odd_difference(psi), sigmas)
        expect = 243.0 * np.exp(-9.0 * sigmas / 4.0) - 1j * c_alpha(0.5) * sigmas**-1.75
        assert np.all(np.abs(vals - expect) <= 1e-12 * np.abs(expect))

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
