"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one `[acceptance] criterion NN ... PASS/FAIL` line (run
pytest with -s to see them).  The standard 1D run shared by the PDE
criteria is: 1024 points, L = 4, lambda = 1, theta = 0, bump amplitude 16
with support radius 2, evolved to t = 0.02.
"""

import json
import math
import time

import numpy as np
import pytest

from reglab.cli import main as cli_main
from reglab.diagnostics import (
    DuhamelProbe,
    ScalingParams,
    SobolevIndex,
    appendix_inequality_checks,
    duhamel_fifth_derivative_rate,
    hs_norm,
    illposedness_exponent_report,
    scaling_transform,
    synthetic_slice_check,
    third_derivative_holder_scan,
)
from reglab.evolution import make_odd_bump, remainder_decomposition, solve
from reglab.grids import Grid1D, GridFunction, reflect_y
from reglab.kernels import c_alpha, fifth_derivative_at_zero, odd_power_probe
from reglab.numerics import gaussian_moment, loglog_fit
from reglab.ode import (
    NonlinearityParams,
    holder_defect,
    integrate_perturbed,
    integrating_factor,
    representation_check,
)
from reglab.trajio import load_trajectory, save_trajectory

SQRT_PI = math.sqrt(math.pi)

AMPLITUDE = 16.0
RADIUS = 2.0
T_STD = 0.02
L_STD = 4.0


def announce(number, name, passed, detail="", clock=None):
    if clock is not None:
        passed = passed and clock.ok
        detail = f"{detail} [runtime {clock.elapsed:.1f}s < {clock.limit:.0f}s]"
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number:02d} ({name}): {status} {detail}")
    return passed


class budget:
    """Wall-clock budget for one criterion; exceeding it is a failure."""

    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    @property
    def elapsed(self):
        return time.perf_counter() - self.start

    @property
    def ok(self):
        return self.elapsed < self.limit


def standard_solve(alpha, lam=1.0, n=1024, dt=2.5e-5, snapshot_every=1):
    params = NonlinearityParams(alpha=alpha, lam=lam, theta=0.0)
    grid = Grid1D(n, L_STD)
    bump = make_odd_bump(AMPLITUDE, RADIUS)
    return solve(params, bump, grid, T=T_STD, dt=dt,
                 snapshot_every=snapshot_every)


@pytest.fixture(scope="module")
def run_std_05():
    return standard_solve(0.5)


@pytest.fixture(scope="module")
def run_std_15():
    return standard_solve(1.5)


def test_criterion_01_kernel_closed_form():
    clock = budget(10.0)
    worst = 0.0
    for alpha in (0.25, 0.5, 1.0, 1.5):
        for sigma in (1e-2, 1e-1, 1.0, 10.0):
            val = fifth_derivative_at_zero(odd_power_probe(alpha, sigma))
            expect = -c_alpha(alpha) * sigma ** (-2.0 + alpha / 2.0)
            worst = max(worst, abs(val.real - expect) / abs(expect))
            worst = max(worst, abs(val.imag) / abs(expect))
    passed = worst <= 1e-8
    passed = announce(1, "smoothed odd-power fifth derivative", passed,
             f"max rel err {worst:.2e} (tol 1e-8)",
             clock=clock)
    assert passed


def test_criterion_02_c_alpha_special_values():
    clock = budget(1.0)
    zero_ok = c_alpha(2.0) == 0.0
    expect = 8.0 / SQRT_PI
    one_err = abs(c_alpha(1.0) - expect) / expect
    passed = zero_ok and one_err <= 1e-10
    passed = announce(2, "c_alpha special values", passed,
             f"c(2)={c_alpha(2.0)}, rel err at 1: {one_err:.2e}",
             clock=clock)
    assert passed


def test_criterion_03_moment_recursion():
    clock = budget(5.0)
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for beta in rng.uniform(0.0, 8.0, size=50):
        lhs = gaussian_moment(beta)
        rhs = 2.0 / (beta + 1.0) * gaussian_moment(beta + 2.0)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    passed = worst <= 1e-11
    passed = announce(3, "Gaussian moment recursion", passed,
             f"max rel err {worst:.2e} (tol 1e-11)",
             clock=clock)
    assert passed


def test_criterion_04_ode_defect_exponent():
    clock = budget(60.0)
    grid = Grid1D(1024, 1.0)
    T, dt = 0.05, 5e-5
    results = []
    h_forced = lambda t, y: t * y**3
    h_forced_y = lambda t, y: 3.0 * t * y**2
    for alpha in (0.25, 0.5, 0.75):
        params = NonlinearityParams(alpha=alpha, lam=1.0)
        for h, h_y in ((None, None), (h_forced, h_forced_y)):
            run = integrate_perturbed(
                params, lambda y: y.astype(complex), h, T=T, grid=grid, dt=dt,
                phi0_prime=lambda y: np.ones_like(y, dtype=complex), h_y=h_y,
            )
            rep = holder_defect(run, T)
            results.append((alpha, "t*y^3" if h else "0",
                            rep.increment_fit.slope))
    control = integrate_perturbed(
        NonlinearityParams(alpha=0.5, lam=0.0), lambda y: y.astype(complex),
        h_forced, T=T, grid=grid, dt=dt,
        phi0_prime=lambda y: np.ones_like(y, dtype=complex), h_y=h_forced_y,
    )
    control_slope = holder_defect(control, T).increment_fit.slope
    defect_ok = all(abs(slope - alpha) <= 0.05 for alpha, _, slope in results)
    control_ok = control_slope >= 0.99
    passed = defect_ok and control_ok
    detail = ", ".join(f"a={a} h={h}: {s:.3f}" for a, h, s in results)
    passed = announce(4, "perturbed-ODE defect exponent", passed,
             f"{detail}; control {control_slope:.3f}",
             clock=clock)
    assert passed


def test_criterion_05_representation_identity():
    clock = budget(30.0)
    grid = Grid1D(128, 1.0)
    params = NonlinearityParams(alpha=0.5, lam=1.0)

    def residual(dt):
        run = integrate_perturbed(
            params, lambda y: y.astype(complex), None, T=0.1, grid=grid, dt=dt,
            phi0_prime=lambda y: np.ones_like(y, dtype=complex),
        )
        return representation_check(run, integrating_factor(run))

    r1 = residual(1e-4)
    r2 = residual(5e-5)
    passed = r1 <= 1e-6 and r1 / r2 >= 3.5
    passed = announce(5, "integrating-factor representation", passed,
             f"residual {r1:.2e} (tol 1e-6), refinement ratio {r1 / r2:.2f} (need >= 3.5)",
             clock=clock)
    assert passed


def test_criterion_06_third_derivative_exponent():
    clock = budget(300.0)
    y_max = 0.25 * RADIUS
    dt = 2e-5
    final_only = int(round(T_STD / dt))
    run_1024 = standard_solve(0.5, dt=dt, snapshot_every=final_only)
    scan_1024 = third_derivative_holder_scan(run_1024, T_STD, y_max=y_max)
    run_2048 = standard_solve(0.5, n=2048, dt=dt, snapshot_every=final_only)
    scan_2048 = third_derivative_holder_scan(run_2048, T_STD, y_max=y_max)
    control = standard_solve(0.5, lam=0.0, dt=dt, snapshot_every=final_only)
    scan_ctrl = third_derivative_holder_scan(control, T_STD, y_max=y_max)

    s1, s2 = scan_1024.increment_fit.slope, scan_2048.increment_fit.slope
    exponent_ok = abs(s1 - 0.5) <= 0.1
    control_ok = scan_ctrl.increment_fit.slope >= 0.99
    stability_ok = abs(s1 - s2) < 0.05
    passed = exponent_ok and control_ok and stability_ok
    passed = announce(6, "PDE third-derivative Hoelder exponent", passed,
             f"slope {s1:.3f} (0.5 +/- 0.1), doubling shift {abs(s1 - s2):.3f} (< 0.05), "
             f"control {scan_ctrl.increment_fit.slope:.3f} (>= 0.99)",
             clock=clock)
    assert passed


def test_criterion_07_duhamel_divergence_rate(run_std_05, run_std_15):
    clock = budget(600.0)
    taus = T_STD + np.geomspace(1e-4, 3e-3, 8)
    details = []
    rate_ok = True
    for traj, alpha in ((run_std_05, 0.5), (run_std_15, 1.5)):
        probe = DuhamelProbe(traj=traj, t=T_STD, tau_ladder=taus)
        rate = duhamel_fifth_derivative_rate(probe)
        expected = -(2.0 - alpha) / 2.0
        rate_ok = rate_ok and abs(rate.law_exponent - expected) <= 0.1
        details.append(
            f"a={alpha}: law {rate.law_exponent:.3f} raw {rate.raw_fit.slope:.3f} "
            f"(expect {expected:.3f})"
        )
    sigmas = 4.0 * np.geomspace(1e-4, 3e-3, 5)
    synth = max(synthetic_slice_check(a, AMPLITUDE * math.exp(-1.0), sigmas)
                for a in (0.5, 1.5))
    synth_ok = synth <= 1e-6
    passed = rate_ok and synth_ok
    passed = announce(7, "Duhamel fifth-derivative divergence rate", passed,
             "; ".join(details) + f"; synthetic slice rel err {synth:.2e} (tol 1e-6)",
             clock=clock)
    assert passed


def test_criterion_08_remainder_bound(run_std_05):
    clock = budget(60.0)
    rep = remainder_decomposition(run_std_05, T_STD, y_max=0.25 * RADIUS)
    slope = rep.decay_fit.slope
    passed = slope >= 0.5 + 2.0 - 0.1 and rep.bound_max_ratio <= 1.0 + 1e-6
    passed = announce(8, "nonlinearity remainder decay", passed,
             f"decay slope {slope:.3f} (need >= 2.4), "
             f"quadratic bound ratio {rep.bound_max_ratio:.3f} (<= 1)",
             clock=clock)
    assert passed


def test_criterion_09_scaling_law():
    clock = budget(10.0)
    grid = Grid1D(1024, 4.0)
    phi = GridFunction(grid, np.exp(-grid.points**2).astype(complex))
    alpha, s = 1.0, 1.0
    base_hs = hs_norm(phi, SobolevIndex(s=s))
    base_sup = float(np.max(np.abs(phi.values)))
    hs_ok, sup_ok = True, True
    for mu in (1.0, 2.0, 4.0, 8.0):
        out = scaling_transform(phi, ScalingParams(mu=mu, alpha=alpha))
        ratio = hs_norm(out, SobolevIndex(s=s)) / base_hs
        hs_ok = hs_ok and ratio <= mu ** (2.0 / alpha + s - 0.5) * (1.0 + 1e-6)
        factor = float(np.max(np.abs(out.values))) / base_sup
        sup_ok = sup_ok and abs(factor - mu**2) <= 1e-12 * mu**2
    rows = [
        (1.0, 16, 5.5, "applies"),
        (1.0, 2, 1.0, "does not apply"),
        (1.0, 8, 2.0, "inconclusive"),
    ]
    verdicts_ok = all(
        illposedness_exponent_report(a, n, sv).verdict == expect
        for a, n, sv, expect in rows
    )
    passed = hs_ok and sup_ok and verdicts_ok
    passed = announce(9, "dilation scaling law", passed,
             f"hs bound {hs_ok}, sup factor exact {sup_ok}, verdicts {verdicts_ok}",
             clock=clock)
    assert passed


def test_criterion_10_conservation_symmetry_order():
    clock = budget(120.0)
    grid = Grid1D(512, 4.0)
    bump = make_odd_bump(1.0, 1.0)

    nls = NonlinearityParams(alpha=0.5, lam=1j, theta=np.pi / 2)
    traj = solve(nls, bump, grid, T=0.1, dt=5e-4, snapshot_every=20)
    norms = np.sqrt(np.sum(np.abs(traj.values) ** 2, axis=1) * grid.spacing)
    drift = float(np.max(np.abs(norms - norms[0])) / norms[0])
    conservation_ok = drift <= 1e-6

    heat = NonlinearityParams(alpha=0.5, lam=1.0, theta=0.0)
    traj_h = solve(heat, bump, grid, T=0.02, dt=5e-4)
    final = traj_h.values[-1]
    asym = float(np.max(np.abs(final + reflect_y(final))) / np.max(np.abs(final)))
    symmetry_ok = asym <= 1e-13

    order_ok = True
    order_detail = []
    small = Grid1D(256, 4.0)
    for theta in (0.0, np.pi / 4, np.pi / 2):
        lam = 1.0 if theta == 0.0 else 1j
        params = NonlinearityParams(alpha=0.5, lam=lam, theta=theta)
        T = 0.02
        ref = solve(params, bump, small, T=T, dt=T / 1280, snapshot_every=10**9)
        dts, errs = [], []
        for divisor in (20, 40, 80):
            dt = T / divisor
            out = solve(params, bump, small, T=T, dt=dt, snapshot_every=10**9)
            dts.append(dt)
            errs.append(np.max(np.abs(out.values[-1] - ref.values[-1])))
        fit = loglog_fit(np.array(dts), np.array(errs))
        order_ok = order_ok and abs(fit.slope - 2.0) <= 0.2
        order_detail.append(f"theta={theta:.2f}: {fit.slope:.2f}")

    passed = conservation_ok and symmetry_ok and order_ok
    passed = announce(10, "conservation, symmetry, splitting order", passed,
             f"L2 drift {drift:.2e} (tol 1e-6), asymmetry {asym:.2e} (tol 1e-13), "
             f"order {', '.join(order_detail)} (2.0 +/- 0.2)",
             clock=clock)
    assert passed


def test_criterion_11_appendix_inequalities():
    clock = budget(30.0)
    rep = appendix_inequality_checks(seed=20260810)
    byname = {c.name: c for c in rep.checks}
    grad = byname["nonlinearity_gradient_formula"]
    detail = ", ".join(f"{c.name}={c.max_ratio:.3g}" for c in rep.checks)
    passed = rep.all_passed and grad.max_ratio <= 1e-6
    passed = announce(11, "elementary inequality suite", passed, detail,
                      clock=clock)
    assert passed


def test_criterion_12_reproducibility(tmp_path):
    out = tmp_path / "out"
    blobs = []
    for _ in range(2):
        code = cli_main([
            "--experiment", "verify-kernel", "--alpha", "0.5",
            "--seed", "99", "--out-dir", str(out),
        ])
        assert code == 0
        blobs.append((out / "verify-kernel.json").read_text())

    def strip_timing(text):
        d = json.loads(text)
        d.pop("timing")
        return json.dumps(d, indent=2, sort_keys=True, separators=(",", ": "))

    reports_ok = strip_timing(blobs[0]) == strip_timing(blobs[1])

    params = NonlinearityParams(alpha=0.5, lam=1.0)
    grid = Grid1D(256, 4.0)
    bump = make_odd_bump(1.0, 1.0)
    traj = solve(params, bump, grid, T=0.01, dt=1e-3, snapshot_every=2)
    path = tmp_path / "traj.rglb"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    traj_ok = (back.values.tobytes() == traj.values.tobytes()
               and back.times.tobytes() == traj.times.tobytes())
    passed = reports_ok and traj_ok
    passed = announce(12, "reproducibility", passed,
                      f"reports byte-identical {reports_ok}, "
                      f"trajectory bit-exact {traj_ok}")
    assert passed
