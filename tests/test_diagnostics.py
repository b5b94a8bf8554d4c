import math
import tracemalloc

import numpy as np
import pytest

from reglab.diagnostics import (
    DuhamelProbe,
    InequalityCheck,
    ScalingParams,
    SobolevIndex,
    appendix_inequality_checks,
    duhamel_fifth_derivative_rate,
    hs_norm,
    illposedness_exponent_report,
    scaling_transform,
    synthetic_slice_check,
    third_derivative_holder_scan,
    _fit_divergence_law,
)
from reglab.errors import (
    DegenerateInput,
    DomainError,
    InsufficientSnapshots,
    ResolutionError,
)
from reglab.evolution import Trajectory, make_odd_bump, solve
from reglab.grids import (
    Grid1D,
    GridFunction,
    TrigInterpolant,
    derivative_multiplier,
    laplacian_symbol,
)
from reglab.kernels import KernelProbe, fifth_derivative_at_zero, graded_fifth_derivatives
from reglab.numerics import adaptive_quadrature, trapezoid_weights
from reglab.ode import NonlinearityParams


class TestHsNorm:
    def test_s0_matches_discrete_l2(self):
        rng = np.random.default_rng(3)
        g = Grid1D(128, 2.0)
        vals = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        u = GridFunction(g, vals)
        l2 = math.sqrt(np.sum(np.abs(vals) ** 2) * g.spacing)
        assert abs(hs_norm(u, SobolevIndex(s=0.0)) - l2) <= 1e-12 * l2

    def test_gaussian_vs_quadrature(self):
        g = Grid1D(512, 8.0)
        u = GridFunction(g, np.exp(-g.points**2).astype(complex))
        val = hs_norm(u, SobolevIndex(s=0.0))
        oracle = adaptive_quadrature(lambda y: np.exp(-2 * y**2), -8.0, 8.0, 1e-12)
        assert abs(val - math.sqrt(oracle.real)) <= 1e-10

    def test_single_mode_multiplier(self):
        g = Grid1D(128, 4.0)
        xi1 = np.pi / g.half_length
        u = GridFunction(g, np.exp(1j * xi1 * g.points))
        for s in (0.5, 1.0, 2.5):
            ratio = hs_norm(u, SobolevIndex(s=s)) / hs_norm(u, SobolevIndex(s=0.0))
            assert abs(ratio - (1 + xi1**2) ** (s / 2)) <= 1e-12

    def test_s1_matches_derivative_quadrature(self):
        g = Grid1D(512, 8.0)
        u = GridFunction(g, np.exp(-g.points**2).astype(complex))
        val = hs_norm(u, SobolevIndex(s=1.0)) ** 2
        norm_sq = adaptive_quadrature(lambda y: np.exp(-2 * y**2), -8.0, 8.0, 1e-12).real
        grad_sq = adaptive_quadrature(
            lambda y: 4 * y**2 * np.exp(-2 * y**2), -8.0, 8.0, 1e-12
        ).real
        assert abs(val / (norm_sq + grad_sq) - 1.0) <= 1e-8

    def test_monotone_in_s(self):
        rng = np.random.default_rng(5)
        g = Grid1D(128, 2.0)
        u = GridFunction(g, rng.standard_normal(128) + 1j * rng.standard_normal(128))
        norms = [hs_norm(u, SobolevIndex(s=s)) for s in (0.0, 0.5, 1.0, 2.0)]
        assert all(norms[i] <= norms[i + 1] for i in range(3))


def standard_run(alpha=0.5, lam=1.0, n=1024, T=0.02, dt=2e-5, snapshot_every=100,
                 amplitude=16.0, radius=2.0):
    params = NonlinearityParams(alpha=alpha, lam=lam, theta=0.0)
    g = Grid1D(n, 4.0)
    bump = make_odd_bump(amplitude, radius)
    return solve(params, bump, g, T=T, dt=dt, snapshot_every=snapshot_every)


class TestThirdDerivativeScan:
    def test_nonlinear_run_exponent(self):
        traj = standard_run()
        rep = third_derivative_holder_scan(traj, 0.02, y_max=0.5)
        assert abs(rep.increment_fit.slope - 0.5) <= 0.1

    def test_linear_control(self):
        traj = standard_run(lam=0.0)
        rep = third_derivative_holder_scan(traj, 0.02, y_max=0.5)
        assert rep.increment_fit.slope >= 0.99

    def test_resolution_error(self):
        traj = standard_run(n=1024)
        with pytest.raises(ResolutionError):
            third_derivative_holder_scan(traj, 0.02, y_max=0.05)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        # a NaN time must not fall back to the t = 0 snapshot
        traj = standard_run(n=512, T=0.002, snapshot_every=20)
        with pytest.raises(DomainError):
            third_derivative_holder_scan(traj, t, y_max=0.5)


class TestDuhamelIntegral:
    def single_mode_trajectory(self, alpha=0.5, n=256, L=4.0, T=0.01, n_snaps=101):
        # synthetic linear-heat trajectory of a single Fourier mode
        g = Grid1D(n, L)
        xi = np.pi / L
        times = np.linspace(0.0, T, n_snaps)
        A = 0.4
        snaps = np.array([
            A * np.exp(-t * xi**2) * np.exp(1j * xi * g.points) for t in times
        ])
        params = NonlinearityParams(alpha=alpha, lam=0.0)
        return Trajectory(params=params, grid=g, times=times, values=snaps,
                          dt=times[1] - times[0]), A, xi

    def test_single_mode_closed_form(self):
        # |u|^alpha u of a single mode is A^(1+alpha) e^{-(1+alpha) s xi^2} e^{i xi y}, so
        # d^5_y NH(t, tau) at y = 0 is i xi^5 A^(1+alpha) e^{-tau xi^2} times
        # int_0^t e^{-alpha s xi^2} ds = (1 - e^{-alpha t xi^2}) / (alpha xi^2)
        alpha, t = 0.5, 0.01
        traj, A, xi = self.single_mode_trajectory(alpha=alpha)
        gaps = np.geomspace(4e-4, 1.2e-2, 6)
        rate = duhamel_fifth_derivative_rate(DuhamelProbe(traj=traj, t=t, tau_ladder=t + gaps))
        expect = xi**5 * A ** (1 + alpha) * np.exp(-rate.taus * xi**2) \
            * (1.0 - np.exp(-alpha * t * xi**2)) / (alpha * xi**2)
        assert np.max(np.abs(rate.magnitudes / expect - 1.0)) <= 1e-7
        assert np.max(np.abs(rate.spectral_magnitudes / expect - 1.0)) <= 1e-7

    def test_insufficient_snapshots(self):
        # snapshots 0.0025 apart cannot resolve tau - t = 1e-4
        traj, _, _ = self.single_mode_trajectory(n_snaps=5)
        probe = DuhamelProbe(traj=traj, t=0.01, tau_ladder=0.01 + np.geomspace(1e-4, 3e-3, 6))
        with pytest.raises(InsufficientSnapshots):
            duhamel_fifth_derivative_rate(probe)
        # a cutoff at the first stored time leaves a single snapshot
        traj, _, _ = self.single_mode_trajectory()
        probe = DuhamelProbe(traj=traj, t=0.0, tau_ladder=np.geomspace(1e-4, 3e-3, 6))
        with pytest.raises(InsufficientSnapshots):
            duhamel_fifth_derivative_rate(probe)

    def test_tau_validation(self):
        traj, _, _ = self.single_mode_trajectory()
        with pytest.raises(DomainError):
            DuhamelProbe(traj=traj, t=0.01, tau_ladder=[0.005])

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_cutoff_rejected(self, t):
        traj, _, _ = self.single_mode_trajectory()
        with pytest.raises(DomainError):
            DuhamelProbe(traj=traj, t=t, tau_ladder=[0.012])

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_non_finite_tau_rejected(self, tau):
        traj, _, _ = self.single_mode_trajectory()
        with pytest.raises(DomainError):
            DuhamelProbe(traj=traj, t=0.01, tau_ladder=[0.012, tau])


class TestDivergenceLawFit:
    def test_recovers_exponent_from_synthetic_law(self):
        t = 0.02
        gaps = np.geomspace(1e-4, 3e-3, 8)
        rng = np.random.default_rng(1)
        for beta in (0.75, 0.25):
            mags = 3.0 * (gaps**-beta - (t + gaps) ** -beta)
            mags *= 1.0 + 0.01 * rng.standard_normal(8)
            beta_hat, at_edge = _fit_divergence_law(gaps, mags, t)
            assert abs(beta_hat - beta) <= 0.02
            assert not at_edge

    def test_flags_optimum_on_bracket_edge(self):
        # the scan brackets b in [0.02, 1.5]: a law outside it is clipped to an
        # edge, which the fit must flag instead of passing off as a measurement
        t = 0.02
        gaps = np.geomspace(1e-4, 3e-3, 8)
        for beta, edge in ((0.01, 0.02), (1.8, 1.5)):
            mags = 3.0 * (gaps**-beta - (t + gaps) ** -beta)
            beta_hat, at_edge = _fit_divergence_law(gaps, mags, t)
            assert at_edge
            assert abs(beta_hat - edge) <= 0.01

    def test_edge_flag_reaches_the_rate_report(self, monkeypatch):
        # the verdict it fails is made by the CLI (tests/test_cli.py)
        import reglab.diagnostics as diagnostics

        traj = standard_run(n=512, dt=2.5e-5, snapshot_every=1)
        taus = 0.02 + np.geomspace(1e-4, 3e-3, 6)
        fit = diagnostics._fit_divergence_law
        monkeypatch.setattr(diagnostics, "_fit_divergence_law",
                            lambda *args: (fit(*args)[0], True))
        rate = duhamel_fifth_derivative_rate(DuhamelProbe(traj, 0.02, taus))
        assert rate.law_fit_at_edge


def rate_slices(traj, t, taus):
    """(tau, snapshot indices, trapezoid weights) of each tau, by decreasing tau: the
    rate's snapshot subsampling, spacing at most (tau - t)/4, the slice s = t kept."""
    times = traj.times[: traj.index_of_time(t) + 1]
    max_gap = float(np.max(np.diff(times)))
    for tau in np.sort(taus)[::-1]:
        stride = max(1, int((tau - t) / 4.0 / max_gap))
        sub = list(range(0, len(times) - 1, stride)) + [len(times) - 1]
        yield tau, sub, trapezoid_weights(times[sub])


def adaptive_rate_values(traj, t, taus, rel_tol=1e-10):
    """Per-tau D5 by one adaptive GK15 quadrature per slice: the slow oracle of
    the fixed-rule rate, on the same snapshot subsampling and trapezoid weights."""
    alpha = traj.params.alpha
    out = []
    for tau, sub, weights in rate_slices(traj, t, taus):
        total = 0.0
        for w, i in zip(weights, sub):
            interp = TrigInterpolant(traj.snapshot(i))

            def psi(pts, interp=interp):
                vals = interp(pts)
                return np.abs(vals) ** alpha * vals

            probe = KernelProbe(psi=psi, sigma=4.0 * (tau - traj.times[i]))
            total += w * fifth_derivative_at_zero(probe, rel_tol=rel_tol)
        out.append(total)
    return np.array(out)


def plain_loop_rate_values(traj, t, taus):
    """Per-tau D5 with one single-row interpolant and one graded-rule call per slice:
    the plain oracle of the rate's block evaluation, on the same rule and weights."""
    alpha = traj.params.alpha
    out = []
    for tau, sub, weights in rate_slices(traj, t, taus):
        slices = []
        for i in sub:
            interp = TrigInterpolant(traj.snapshot(i))

            def odd(pts, interp=interp):
                vals = interp(pts, mirrored=True)
                nonlin = np.abs(vals) ** alpha * vals
                return nonlin[0] - nonlin[1]

            slices.append(graded_fifth_derivatives(odd, 4.0 * (tau - traj.times[i]))[0])
        out.append(np.sum(weights * np.array(slices)))
    return np.array(out)


def reference_rule():
    """A refined graded rule: 24 Gauss-Legendre nodes on each of 10 panels graded by 0.3
    toward the kink below y = 1 and of 22 half-unit panels up to y = 12, with the
    weights of the rule in kernels (768 nodes, 8 times its count)."""
    edges = np.r_[0.0, 0.3 ** np.arange(9, 0, -1), np.arange(1.0, 12.25, 0.5)]
    x, w = np.polynomial.legendre.leggauss(24)
    lo, hi = edges[:-1, None], edges[1:, None]
    y = (0.5 * (lo + hi) + 0.5 * (hi - lo) * x).ravel()
    kernel = 8.0 / math.sqrt(math.pi) * np.exp(-(y**2)) * (15.0 - 20.0 * y**2 + 4.0 * y**4) * y
    return y, (0.5 * (hi - lo) * w).ravel() * kernel


def one_shot_spectral(traj, t, taus, strides):
    """The rate's spectral cross-check as one (S, n) expression per tau: the oracle
    of the streamed sum, on the same strides and trapezoid weights."""
    times = traj.times[: traj.index_of_time(t) + 1]
    snaps = traj.values[: len(times)]
    g = traj.y_grid
    alpha = traj.params.alpha
    hats = np.stack([np.fft.fft(np.abs(s) ** alpha * s) for s in snaps])
    xi_sq = laplacian_symbol(g)
    mult5 = derivative_multiplier(g, 5) * g.phase() / g.n_points
    out = []
    for tau, stride in zip(taus, strides):
        sub = list(range(0, len(times) - 1, stride)) + [len(times) - 1]
        weights = trapezoid_weights(times[sub])
        out.append(np.sum(weights[:, None] * hats[sub]
                          * np.exp(-(tau - times[sub])[:, None] * xi_sq[None, :])
                          * mult5[None, :]))
    return np.abs(np.array(out))


class TestRateStorage:
    def test_streamed_spectral_sum_matches_one_shot(self):
        traj = standard_run(alpha=0.5, n=256, T=0.004, dt=2.5e-5, snapshot_every=1,
                            amplitude=4.0)
        taus = 0.004 + np.geomspace(1e-4, 3e-3, 4)
        rate = duhamel_fifth_derivative_rate(DuhamelProbe(traj=traj, t=0.004, tau_ladder=taus))
        # the stride-1 tau reads all 161 snapshots, each transformed once for every tau
        assert 1 in rate.strides and rate.spectral_transforms == 161
        oracle = one_shot_spectral(traj, 0.004, rate.taus, rate.strides)
        assert np.all(np.abs(rate.spectral_magnitudes - oracle) <= 1e-13 * oracle)

    def test_snapshot_sized_arrays_are_held_once(self):
        # above the trajectory the rate holds no snapshot-sized array: the
        # cross-check streams one transformed snapshot at a time
        taus = 0.02 + np.geomspace(4e-4, 1.2e-2, 4)
        warm = standard_run(n=1024, T=0.004, dt=2.5e-5, snapshot_every=1)
        duhamel_fifth_derivative_rate(DuhamelProbe(traj=warm, t=0.004, tau_ladder=taus - 0.016))
        traj = standard_run(n=1024, T=0.02, dt=2.5e-5, snapshot_every=1)
        probe = DuhamelProbe(traj=traj, t=0.02, tau_ladder=taus)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            duhamel_fifth_derivative_rate(probe)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * traj.values.nbytes


class TestFixedRuleRate:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5, 1.9])
    def test_matches_adaptive_oracle_per_tau(self, alpha):
        traj = standard_run(alpha=alpha, n=256, T=0.004, dt=1e-4, snapshot_every=1,
                            amplitude=4.0)
        taus = 0.004 + np.geomspace(5e-4, 1.5e-2, 4)
        rate = duhamel_fifth_derivative_rate(DuhamelProbe(traj=traj, t=0.004, tau_ladder=taus))
        oracle = adaptive_rate_values(traj, 0.004, taus)
        assert np.all(np.abs(rate.values - oracle) <= 1e-7 * np.abs(oracle))

    def test_interpolant_calls_take_few_rows_of_nonnegative_points(self, monkeypatch):
        # each slice is evaluated at +-y from the powers of +y alone
        import reglab.diagnostics as diagnostics

        calls = []

        class Spy(TrigInterpolant):
            def __call__(self, points, mirrored=False):
                calls.append((np.array(points), mirrored))
                return super().__call__(points, mirrored)

        monkeypatch.setattr(diagnostics, "TrigInterpolant", Spy)
        traj = standard_run(alpha=0.5, n=256, T=0.004, dt=1e-4, snapshot_every=1,
                            amplitude=4.0)
        taus = 0.004 + np.geomspace(5e-4, 1.5e-2, 4)
        rate = duhamel_fifth_derivative_rate(DuhamelProbe(traj=traj, t=0.004, tau_ladder=taus))
        assert calls
        for points, mirrored in calls:
            assert mirrored
            assert points.ndim == 2 and points.shape[0] <= 8
            assert np.all(points >= 0.0)
        assert rate.slices == sum(len(points) for points, _ in calls)

    def test_each_read_snapshot_is_transformed_once(self, monkeypatch):
        # blocks of at most 8 snapshots, each transformed once for every slice that reads it
        import reglab.diagnostics as diagnostics

        built = []

        class Spy(TrigInterpolant):
            def __init__(self, grid, rows):
                built.append(np.array(rows))
                super().__init__(grid, rows)

        monkeypatch.setattr(diagnostics, "TrigInterpolant", Spy)
        traj = standard_run(alpha=0.5, n=256, T=0.004, dt=1e-4, snapshot_every=1,
                            amplitude=4.0)
        taus = 0.004 + np.geomspace(5e-4, 1.5e-2, 4)
        rate = duhamel_fifth_derivative_rate(DuhamelProbe(traj=traj, t=0.004, tau_ladder=taus))
        assert all(len(rows) <= 8 for rows in built)
        transformed = np.concatenate(built)
        # the stride-1 tau reads all 41 snapshots
        assert transformed.tobytes() == traj.values.tobytes()
        assert len(transformed) == rate.spectral_transforms == 41

    def test_matches_a_plain_loop_over_slices(self):
        traj = standard_run(alpha=0.5, n=256, T=0.004, dt=2.5e-5, snapshot_every=1,
                            amplitude=4.0)
        taus = 0.004 + np.geomspace(1e-4, 3e-3, 4)
        rate = duhamel_fifth_derivative_rate(DuhamelProbe(traj=traj, t=0.004, tau_ladder=taus))
        oracle = plain_loop_rate_values(traj, 0.004, taus)
        assert np.all(np.abs(rate.values - oracle) <= 1e-13 * np.abs(oracle))

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.5])
    @pytest.mark.parametrize("dt, gaps, bound", [
        (2.5e-5, (1e-4, 3e-3), 5e-11),  # the gaps of the README run
        # long gaps on a coarse grid: the rule sees the field's top modes at sqrt(sigma) y,
        # which panels 1.5-2.5 wide from y = 2 up (edges 2, 3.5, 5.5, 8) miss by 4e-8
        (1e-4, (5e-4, 1.5e-2), 1e-9),
    ], ids=["readme_gaps", "long_gaps"])
    def test_matches_a_refined_rule(self, monkeypatch, alpha, dt, gaps, bound):
        import reglab.kernels as kernels

        traj = standard_run(alpha=alpha, n=256, T=0.004, dt=dt, snapshot_every=1,
                            amplitude=4.0)
        probe = DuhamelProbe(traj=traj, t=0.004, tau_ladder=0.004 + np.geomspace(*gaps, 4))
        values = duhamel_fifth_derivative_rate(probe).values
        monkeypatch.setattr(kernels, "_graded_rule", reference_rule)
        reference = duhamel_fifth_derivative_rate(probe).values
        assert np.all(np.abs(values - reference) <= bound * np.abs(reference))


class TestRateCovariance:
    """u_mu(t, y) = mu^(2/alpha) u(mu^2 t, mu y) solves the heat equation with lam = 1
    when u does, so at mu = 2 the run on the half-length grid, with dt/4 and the bump
    dilated, is the base run times 2^(2/alpha) bit for bit (2/alpha is an integer), and
    d^5_y of its Duhamel term at gaps/4 is 2^(2/alpha + 5) times the base one."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_dilated_run_scales_the_rate_exactly(self, alpha):
        params = NonlinearityParams(alpha=alpha, lam=1.0, theta=0.0)
        dt, T, mu_power = 2.5e-5, 4e-3, 2.0 ** (2.0 / alpha)
        base = solve(params, make_odd_bump(4.0, 2.0), Grid1D(256, 4.0), T=T, dt=dt)
        scaled = solve(params, make_odd_bump(4.0 * 2.0 * mu_power, 1.0), Grid1D(256, 2.0),
                       T=T / 4, dt=dt / 4)
        assert np.array_equal(scaled.values, mu_power * base.values)
        gaps = np.geomspace(1e-4, 3e-3, 8)
        rate = duhamel_fifth_derivative_rate(DuhamelProbe(base, T, T + gaps))
        dilated = duhamel_fifth_derivative_rate(DuhamelProbe(scaled, T / 4, T / 4 + gaps / 4))
        assert np.array_equal(dilated.magnitudes, 32.0 * mu_power * rate.magnitudes)
        assert dilated.strides == rate.strides
        assert abs(dilated.law_exponent - rate.law_exponent) <= 1e-13


class TestSyntheticSliceCheck:
    def test_constant_eta_reproduces_closed_form(self):
        sigmas = 4.0 * np.geomspace(1e-4, 3e-3, 6)
        for alpha in (0.5, 1.5):
            worst = synthetic_slice_check(alpha, np.exp(-1.0), sigmas)
            assert worst <= 1e-6

    def test_complex_eta(self):
        worst = synthetic_slice_check(0.75, 0.3 + 0.4j, [0.01, 0.1])
        assert worst <= 1e-6

    @pytest.mark.parametrize("sigmas", [[0.0, 0.1], [-1.0, 0.1], [np.nan, 0.1]])
    def test_rejects_bad_sigma(self, sigmas):
        with pytest.raises(DomainError):
            synthetic_slice_check(0.5, 1.0, sigmas)

    def test_rejects_empty_sigmas(self):
        with pytest.raises(DegenerateInput):
            synthetic_slice_check(0.5, 1.0, [])

    def test_rejects_zero_eta0(self):
        # the closed form vanishes at eta0 = 0, so a relative error would be 0/0 = NaN
        with pytest.raises(DomainError):
            synthetic_slice_check(0.5, 0.0, [0.01, 0.1])

    def test_runs_the_fixed_rule(self, monkeypatch):
        # the closed-form oracle must check the rule the rate uses, in one call
        import reglab.diagnostics as diagnostics
        import reglab.kernels as kernels

        calls = []
        rule = diagnostics.graded_fifth_derivatives

        def spy(psi, sigmas):
            calls.append(np.array(sigmas))
            return rule(psi, sigmas)

        def refuse(*args, **kwargs):
            raise AssertionError("adaptive quadrature called")

        monkeypatch.setattr(diagnostics, "graded_fifth_derivatives", spy)
        monkeypatch.setattr(kernels, "adaptive_quadrature", refuse)
        sigmas = [0.01, 0.1, 1.0]
        assert synthetic_slice_check(0.75, 0.3 + 0.4j, sigmas) <= 1e-6
        assert len(calls) == 1
        assert np.array_equal(calls[0], sigmas)


class TestScalingTransform:
    def test_identity_at_mu_one(self):
        g = Grid1D(256, 4.0)
        u = GridFunction(g, np.exp(-g.points**2).astype(complex))
        out = scaling_transform(u, ScalingParams(mu=1.0, alpha=1.0))
        np.testing.assert_array_equal(out.values, u.values)

    def test_sup_norm_factor_exact(self):
        g = Grid1D(1024, 4.0)
        u = GridFunction(g, np.exp(-g.points**2).astype(complex))
        sup0 = np.max(np.abs(u.values))
        for mu in (2.0, 4.0, 8.0):
            out = scaling_transform(u, ScalingParams(mu=mu, alpha=1.0))
            factor = np.max(np.abs(out.values)) / sup0
            assert abs(factor - mu**2) <= 1e-12 * mu**2

    def test_argmax_position_scales(self):
        g = Grid1D(1024, 4.0)
        x0 = 0.5  # 64 grid spacings, divisible by mu = 8
        u = GridFunction(g, np.exp(-((g.points - x0) ** 2) * 8).astype(complex))
        for mu in (2.0, 4.0, 8.0):
            out = scaling_transform(u, ScalingParams(mu=mu, alpha=1.0))
            j = int(np.argmax(np.abs(out.values)))
            assert g.points[j] == pytest.approx(x0 / mu, abs=1e-12)

    def test_hs_norm_bound(self):
        g = Grid1D(1024, 4.0)
        u = GridFunction(g, np.exp(-g.points**2).astype(complex))
        alpha, s = 1.0, 1.0
        base = hs_norm(u, SobolevIndex(s=s))
        for mu in (1.0, 2.0, 4.0, 8.0):
            out = scaling_transform(u, ScalingParams(mu=mu, alpha=alpha))
            ratio = hs_norm(out, SobolevIndex(s=s)) / base
            bound = mu ** (2.0 / alpha + s - 0.5)
            assert ratio <= bound * (1.0 + 1e-6)

    def test_mu_below_one_rejected(self):
        with pytest.raises(DomainError):
            ScalingParams(mu=0.5, alpha=1.0)

    def test_non_integer_mu_rejected(self):
        # mu*x_j is a grid node only for integer mu
        for mu in (1.5, 2.25, float("inf")):
            with pytest.raises(DomainError):
                ScalingParams(mu=mu, alpha=1.0)


class TestIllposednessReport:
    def test_mechanism_applies(self):
        rep = illposedness_exponent_report(1.0, 16, 5.5)
        assert rep.exponent == pytest.approx(-0.5)
        assert rep.verdict == "applies"
        assert rep.dimension_condition  # 16 > 15

    def test_mechanism_does_not_apply(self):
        rep = illposedness_exponent_report(1.0, 2, 1.0)
        assert rep.exponent == pytest.approx(2.0)
        assert rep.verdict == "does not apply"

    def test_boundary_inconclusive(self):
        rep = illposedness_exponent_report(1.0, 8, 2.0)
        assert rep.exponent == 0.0
        assert rep.verdict == "inconclusive"


class TestScanRateConsistency:
    def test_scan_and_rate_agree_on_real_run(self):
        # one trajectory, two exponents: the increment exponent of d^3_y u near
        # alpha, the divergence law of the smoothed d^5_y near -(2 - alpha)/2
        traj = standard_run(n=512, dt=2.5e-5, snapshot_every=1)
        taus = 0.02 + np.geomspace(1e-4, 3e-3, 6)
        scan = third_derivative_holder_scan(traj, 0.02, y_max=0.5)
        rate = duhamel_fifth_derivative_rate(DuhamelProbe(traj, 0.02, taus))
        assert abs(scan.increment_fit.slope - 0.5) <= 0.1
        assert abs(rate.law_exponent + 0.75) <= 0.1
        assert not rate.law_fit_at_edge


class TestDuhamelRateMiddleAlpha:
    def test_alpha_one_law_exponent(self):
        from reglab.diagnostics import duhamel_fifth_derivative_rate

        traj = standard_run(alpha=1.0, n=512, dt=2.5e-5, snapshot_every=1)
        taus = 0.02 + np.geomspace(1e-4, 3e-3, 6)
        probe = DuhamelProbe(traj=traj, t=0.02, tau_ladder=taus)
        rate = duhamel_fifth_derivative_rate(probe)
        assert abs(rate.law_exponent + 0.5) <= 0.1


class TestAppendixInequalities:
    def test_all_pass_small(self):
        rep = appendix_inequality_checks(seed=7)
        assert rep.all_passed
        names = [c.name for c in rep.checks]
        assert set(names) == {
            "modulus_power_difference",
            "nonlinearity_gradient_formula",
            "gradient_interpolation_bound",
        }

    def test_passed_is_the_ratio_against_its_threshold(self):
        assert InequalityCheck("bound", 10, 2.0, 2.0).passed
        assert not InequalityCheck("bound", 10, 2.5, 2.0).passed

    def test_gradient_check_counts_the_points_it_compares(self, monkeypatch):
        # points near a zero of u are masked out, so fewer than the 16 per field drawn
        import reglab.diagnostics as diagnostics

        compared = []
        difference = diagnostics.central_difference

        def spy(func, pts):
            compared.append(np.size(pts))
            return difference(func, pts)

        monkeypatch.setattr(diagnostics, "central_difference", spy)
        rep = appendix_inequality_checks(seed=7)
        grad = next(c for c in rep.checks if c.name == "nonlinearity_gradient_formula")
        assert grad.n_samples == sum(compared) < 16 * len(compared)

    def test_modulus_power_equality_case(self):
        # z2 = 0 gives ratio exactly 1
        alpha = 0.7
        z1 = 0.3 + 0.4j
        ratio = abs(abs(z1) ** alpha - 0.0) / abs(z1 - 0.0) ** alpha
        assert ratio == pytest.approx(1.0, abs=1e-15)

    def test_gradient_formula_real_positive_reduction(self):
        # for real positive u both terms combine to lam*(alpha+1)*u^alpha*u'
        alpha, lam = 0.6, 1.3
        u, du = 0.8, 0.35
        full = lam * (alpha + 2) / 2 * u**alpha * du \
            + lam * alpha / 2 * u ** (alpha - 2) * u**2 * du
        reduced = lam * (alpha + 1) * u**alpha * du
        assert full == pytest.approx(reduced, rel=1e-14)

    def test_interpolation_ratio_sine_mode(self):
        # u = sin(kx) gives ratio exactly 1 when the grid hits the peaks
        g = Grid1D(256, np.pi)
        k = 4
        u = np.sin(k * g.points)
        du = k * np.cos(k * g.points)
        d2u = -k**2 * np.sin(k * g.points)
        ratio = np.max(np.abs(du)) / math.sqrt(np.max(np.abs(d2u)) * np.max(np.abs(u)))
        assert ratio == pytest.approx(1.0, abs=1e-12)
