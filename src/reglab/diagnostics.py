"""Regularity measurements and loss-of-smoothness illustrations.

Everything here is a pure function of trajectories or grid functions:
Fourier H^s norms (p = 2 only), the increment exponent of the third
y-derivative at y = 0, the smoothed Duhamel integral with its
fifth-derivative divergence rate, the dilation transform behind the
ill-posedness scaling argument, and randomized checks of the three
elementary inequalities used by the regularity bootstrap.

Divergence statements are always illustrated as finite-window power-law
fits with stated exponents; no check ever claims to verify an actual
infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInput,
    DomainError,
    InsufficientSnapshots,
    ResolutionError,
)
from .evolution import Trajectory, dy_at_zero
from .grids import (
    Grid1D,
    GridFunction,
    TrigInterpolant,
    forward_transform,
    ladder_increments,
    laplacian_symbol,
    spectral_derivative,
)
from .kernels import c_alpha, graded_fifth_derivatives
from .numerics import RegressionFit, central_difference, loglog_fit, trapezoid_weights

__all__ = [
    "SobolevIndex",
    "DuhamelProbe",
    "ScalingParams",
    "ScanReport",
    "DuhamelRateReport",
    "ScalingVerdict",
    "InequalityReport",
    "hs_norm",
    "third_derivative_holder_scan",
    "duhamel_fifth_derivative_rate",
    "synthetic_slice_check",
    "scaling_transform",
    "illposedness_exponent_report",
    "appendix_inequality_checks",
]


# ---------------------------------------------------------------------------
# Sobolev norm (p = 2)


@dataclass(frozen=True)
class SobolevIndex:
    s: float

    def __post_init__(self):
        if self.s < 0:
            raise DomainError(f"s must be >= 0, got {self.s}")


def hs_norm(u: GridFunction, idx: SobolevIndex) -> float:
    """Plancherel evaluation of the (1 + xi^2)^(s/2) multiplier norm.

    Normalized so that s = 0 reproduces the discrete L^2 norm
    sqrt(spacing * sum |u_j|^2).
    """
    g = u.grid
    coeffs = forward_transform(u)
    total = np.sum((1.0 + laplacian_symbol(g)) ** idx.s * np.abs(coeffs) ** 2)
    return float(np.sqrt(2.0 * g.half_length * total))


# ---------------------------------------------------------------------------
# Third-derivative increment scan


@dataclass
class ScanReport:
    """Increment exponent of the third y-derivative at y = 0."""

    t: float
    ys: np.ndarray
    increments: np.ndarray
    increment_fit: RegressionFit


def third_derivative_holder_scan(traj: Trajectory, t: float, y_max: float) -> ScanReport:
    """Fit |d^3_y u(t, y) - d^3_y u(t, 0)| against y on a dyadic ladder.

    The increment exponent is expected to equal alpha for the nonlinear
    run, so q(y)/y^beta fits with slope alpha - beta and every beta-seminorm
    with beta > alpha diverges as the window shrinks; a smooth control run
    fits >= 1.
    """
    i = traj.index_of_time(t)
    u = traj.snapshot(i)
    d3 = spectral_derivative(u, order=3).values
    try:
        ys, q, increment_fit = ladder_increments(traj.grid, d3, y_max)
    except DegenerateInput as err:
        raise ResolutionError(str(err)) from None
    return ScanReport(t=float(traj.times[i]), ys=ys, increments=q, increment_fit=increment_fit)


# ---------------------------------------------------------------------------
# Duhamel integral and its fifth-derivative divergence rate


@dataclass
class DuhamelProbe:
    """A trajectory, a cutoff time t, and a ladder of smoothing times tau > t."""

    traj: Trajectory
    t: float
    tau_ladder: np.ndarray

    def __post_init__(self):
        self.tau_ladder = np.asarray(self.tau_ladder, dtype=float)
        if self.tau_ladder.size == 0:
            raise DegenerateInput("tau_ladder is empty")
        if not (math.isfinite(self.t) and np.all(np.isfinite(self.tau_ladder))):
            raise DomainError("t and every tau must be finite")
        if np.any(self.tau_ladder <= self.t):
            raise DomainError("every tau must exceed t")
        if self.t < 0 or self.t > self.traj.times[-1] + 1e-12:
            raise DomainError("t must lie within the trajectory horizon")
        # sort by decreasing gap tau - t
        self.tau_ladder = np.sort(self.tau_ladder)[::-1].copy()


def _snapshots_upto(traj: Trajectory, t: float, gap: float):
    """Times, snapshots and widest spacing up to t; :class:`InsufficientSnapshots`
    unless there are at least 2 of them, spaced at most gap/4 apart."""
    i = traj.index_of_time(t)
    times = traj.times[: i + 1]
    if times.size < 2:
        raise InsufficientSnapshots("need at least 2 snapshots up to t")
    max_gap = float(np.max(np.diff(times)))
    if max_gap > gap / 4.0 + 1e-15:
        raise InsufficientSnapshots(
            f"snapshot spacing {max_gap:.3g} exceeds (tau - t)/4 = {gap / 4.0:.3g}"
        )
    return times, traj.values[: i + 1], max_gap


def _fit_empirical_constants(gaps: np.ndarray, mags: np.ndarray, beta: float):
    """Linear least squares for |D5| ~ a*(tau-t)^-beta - A at the theory exponent.

    The divergence statement only asserts that such constants a, A > 0
    exist; they are fitted empirically, never assigned theory values.
    """
    design = np.column_stack([gaps**-beta, -np.ones_like(gaps)])
    coeffs, *_ = np.linalg.lstsq(design, mags, rcond=None)
    return float(coeffs[0]), float(coeffs[1])


def _fit_divergence_law(gaps: np.ndarray, mags: np.ndarray, t: float):
    """(b, at_edge) from profile least squares in log space for
    |D5| = A*((tau-t)^-b - tau^-b), A profiled out; at_edge when the best b of the scan is an
    end of its bracket [0.02, 1.5], so b is that edge and not a measurement.

    This is the exact shape of the divergence law including its finite-tau
    second term; over a window where tau - t is not vanishingly small
    compared to t, the naive log-log slope is offset by that term while the
    law exponent is not.  Deterministic: a dense scan, then bisection on the sign of the
    objective's analytic derivative between the scan's neighbours of its best b, down to
    adjacent floats.  Comparing objective values instead would resolve b only to about
    the square root of roundoff.
    """
    logm = np.log(mags)
    log_near, log_far = np.log(gaps), np.log(t + gaps)

    def residuals(beta):
        """Residuals of log|D5| about the profiled fit, and d/db of the log shape."""
        near, far = gaps**-beta, (t + gaps) ** -beta
        r = logm - np.log(near - far)
        return r - np.mean(r), (far * log_far - near * log_near) / (near - far)

    def objective(beta):
        return float(np.sum(residuals(beta)[0] ** 2))

    def rising(beta):  # the objective's derivative, -2 sum r dg/db, is positive
        r, dg = residuals(beta)
        return float(np.dot(r, dg)) < 0.0

    betas = np.linspace(0.02, 1.5, 149)
    errs = np.array([objective(b) for b in betas])
    k = int(np.argmin(errs))
    lo, hi = betas[max(k - 1, 0)], betas[min(k + 1, betas.size - 1)]
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if rising(mid):
            hi = mid
        else:
            lo = mid
    return mid, k in (0, betas.size - 1)


@dataclass
class DuhamelRateReport:
    """Divergence of the fifth y-derivative of NH(t, tau) as tau -> t."""

    t: float
    taus: np.ndarray
    gaps: np.ndarray
    values: np.ndarray            # complex D5 per tau (graded rule)
    magnitudes: np.ndarray
    raw_fit: RegressionFit        # log|D5| vs log(tau - t)
    law_exponent: float           # -beta from the two-term law fit
    law_fit_at_edge: bool         # the law fit's optimum is an end of its beta bracket
    empirical_a: float            # fitted constants of a*(tau-t)^-beta - A
    empirical_A: float
    predicted_amplitude: float    # 2/(2-alpha) * C_alpha * 4^(alpha/2-2) * |eta0|^(alpha+1)
    eta0: complex
    strides: tuple[int, ...]      # snapshot stride per tau
    slices: int                   # time slices evaluated over all taus
    transforms: int               # snapshots transformed: each one some tau reads, once
    odd_transforms: int           # of those, the snapshots evaluated as a pure sine series


def duhamel_fifth_derivative_rate(probe: DuhamelProbe) -> DuhamelRateReport:
    """Measure the rate at which d^5_y NH(t, tau)|_{y=0} grows as tau -> t.

    Per time slice the fifth derivative is the heat-kernel formula with sigma =
    4(tau - s) on the fixed graded Gauss rule, with the field interpolated at +-y for
    its nonnegative nodes y and the nonlinearity applied there (no FFT of the kinked
    profile).  The snapshots some tau reads are transformed once each, 8 at a time, and
    every slice that reads such a block is evaluated from it, at most 8 slices per call.
    The time integral is a trapezoid over the stored snapshots, subsampled per tau so the
    spacing stays below (tau - t)/4, summed per tau in snapshot order.
    The expected slope of log|D5| vs log(tau - t) is -(2 - alpha)/2; the
    empirical constants of a*(tau-t)^(-(2-alpha)/2) - A are fitted as well.
    """
    traj = probe.traj
    gaps = probe.tau_ladder - probe.t
    if np.max(gaps) / np.min(gaps) < 29.9:
        raise DegenerateInput("tau - t must span at least ~1.5 decades")
    times, snaps, max_gap = _snapshots_upto(traj, probe.t, float(np.min(gaps)))
    alpha = traj.params.alpha
    grid = traj.grid

    n_stored = len(times)
    strides, subs = [], []
    # trapezoid weight of snapshot s in the integral of tau j; 0 where tau j skips s
    trap = np.zeros((len(gaps), n_stored))
    for j, gap in enumerate(gaps):
        # subsample so spacing <= gap/4, always keeping the final slice s = t
        stride = max(1, int(gap / 4.0 / max_gap))
        sub = list(range(0, n_stored - 1, stride)) + [n_stored - 1]
        strides.append(stride)
        subs.append(sub)
        trap[j, sub] = trapezoid_weights(times[sub])
    read = np.flatnonzero(np.any(trap, axis=0))

    chunk = 8  # snapshots per transform, rows per call: a product of about 0.8 MB at n = 1024
    slice_values = np.zeros(trap.shape, dtype=complex)
    odd_transforms = 0
    for k in range(0, len(read), chunk):
        block = read[k:k + chunk]
        interp = TrigInterpolant(grid, snaps[block])
        odd_transforms += len(block) if interp.odd else 0
        js, cols = np.nonzero(trap[:, block])  # every slice that reads the block
        for m in range(0, len(js), chunk):
            j, s = js[m:m + chunk], block[cols[m:m + chunk]]
            rows = interp.take(cols[m:m + chunk])

            def odd(pts):  # F(u(y)) - F(u(-y)), F(u) = |u|^alpha u
                vals = rows(pts, mirrored=True)
                nonlin = np.abs(vals) ** alpha * vals
                return nonlin[0] - nonlin[1]

            sigmas = 4.0 * (probe.tau_ladder[j] - times[s])
            slice_values[j, s] = graded_fifth_derivatives(odd, sigmas)
    values = np.array([complex(np.sum(trap[j, sub] * slice_values[j, sub]))
                       for j, sub in enumerate(subs)])
    mags = np.abs(values)
    raw_fit = loglog_fit(gaps, mags)
    beta_hat, at_edge = _fit_divergence_law(gaps, mags, probe.t)
    emp_a, emp_A = _fit_empirical_constants(gaps, mags, (2.0 - alpha) / 2.0)

    eta0 = complex(dy_at_zero(traj, 0))
    predicted = (
        2.0 / (2.0 - alpha) * c_alpha(alpha) * 4.0 ** (alpha / 2.0 - 2.0)
        * abs(eta0) ** (alpha + 1.0)
    )
    return DuhamelRateReport(
        t=probe.t, taus=probe.tau_ladder.copy(), gaps=gaps, values=values,
        magnitudes=mags, raw_fit=raw_fit, law_exponent=-beta_hat,
        law_fit_at_edge=at_edge, empirical_a=emp_a, empirical_A=emp_A,
        predicted_amplitude=predicted, eta0=eta0,
        strides=tuple(strides), slices=sum(map(len, subs)), transforms=len(read),
        odd_transforms=odd_transforms,
    )


def synthetic_slice_check(alpha: float, eta0: complex, sigmas) -> float:
    """Max relative error of the per-slice rule against the closed form.

    With the nonlinearity replaced by its pure leading term
    psi(y) = |eta0 y|^alpha eta0 y (constant eta), each slice value must be
    -c_alpha(alpha) * sigma^(alpha/2 - 2) * |eta0|^alpha * eta0.
    """
    if eta0 == 0:
        raise DomainError("synthetic_slice_check needs eta0 != 0: the closed form "
                          "vanishes there, so the relative error is 0/0")
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    # psi is odd, so psi(y) - psi(-y) = 2 psi(y)
    vals = graded_fifth_derivatives(lambda y: 2.0 * np.abs(eta0 * y) ** alpha * (eta0 * y),
                                    sigmas)
    expect = -c_alpha(alpha) * sigmas ** (alpha / 2.0 - 2.0) * abs(eta0) ** alpha * eta0
    return float(np.max(np.abs(vals - expect) / np.abs(expect)))


# ---------------------------------------------------------------------------
# Scaling transform and the ill-posedness exponent


@dataclass(frozen=True)
class ScalingParams:
    mu: float
    alpha: float

    def __post_init__(self):
        if not (self.mu >= 1.0 and float(self.mu).is_integer()):
            raise DomainError(f"mu must be an integer >= 1, got {self.mu}")
        if not (self.alpha > 0):
            raise DomainError(f"alpha must be positive, got {self.alpha}")


def scaling_transform(phi: GridFunction, params: ScalingParams) -> GridFunction:
    """Dilation phi^mu(x) = mu^(2/alpha) phi(mu x) by exact sample lookup.

    For integer mu, mu*x_j is the node x_k with k = mu*j - (mu-1)*n/2, so the
    sup-norm factor mu^(2/alpha) is exact to roundoff.
    """
    g = phi.grid
    n, mu = g.n_points, int(params.mu)
    k = mu * np.arange(n) - (mu - 1) * (n // 2)
    # the dilation of a profile supported in the fundamental domain vanishes
    # where mu*x leaves [-L, L); without this cut the torus would tile images
    vals = np.where((k >= 0) & (k < n), phi.values[k.clip(0, n - 1)], 0.0)
    return GridFunction(g, params.mu ** (2.0 / params.alpha) * vals)


@dataclass(frozen=True)
class ScalingVerdict:
    """Sign arithmetic of the dilation exponent 2/alpha + s - N/2."""

    exponent: float
    verdict: str       # "applies" | "does not apply" | "inconclusive"
    dimension_condition: bool  # N > 11 + 4/alpha


def illposedness_exponent_report(alpha: float, N: int, s: float) -> ScalingVerdict:
    """Pure arithmetic: does the dilation shrink the data norm while it
    shrinks the blow-up time (T -> T/mu^2)?"""
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    exponent = 2.0 / alpha + s - N / 2.0
    if abs(exponent) < 1e-12:
        verdict = "inconclusive"
    elif exponent < 0:
        verdict = "applies"
    else:
        verdict = "does not apply"
    return ScalingVerdict(exponent=exponent, verdict=verdict,
                          dimension_condition=bool(N > 11.0 + 4.0 / alpha))


# ---------------------------------------------------------------------------
# Appendix inequality suite


@dataclass
class InequalityCheck:
    name: str
    n_samples: int
    max_ratio: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_ratio <= self.threshold


@dataclass
class InequalityReport:
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _band_limited_field(rng, grid, modes: int) -> np.ndarray:
    coeffs = np.zeros(grid.n_points, dtype=np.complex128)
    k = np.arange(1, modes + 1)
    amp = rng.standard_normal((2, modes)) + 1j * rng.standard_normal((2, modes))
    coeffs[k] = amp[0] / k
    coeffs[-k] = amp[1] / k
    coeffs[0] = rng.standard_normal() + 0.0j
    return np.fft.ifft(coeffs * grid.n_points)


_SEED_COUNT = 1000  # samples of check (a); (b) and (c) draw 1/64 and 1/16 as many fields


def appendix_inequality_checks(seed: int) -> InequalityReport:
    """Randomized verification of the three elementary estimates.

    (a) | |z1|^a - |z2|^a | <= |z1 - z2|^a for a in (0, 1], with constant 1;
    (b) the gradient formula for |u|^a u against finite differences, away
        from zeros of u, to 1e-6 relative;
    (c) the interpolation bound sup|u'| <= 2 sqrt(sup|u''| sup|u|)
        (sharp constant sqrt(2) on the line, plus margin).
    """
    rng = np.random.default_rng(seed)
    checks = []

    # (a) modulus-power difference bound
    alphas = rng.uniform(0.01, 1.0, size=_SEED_COUNT)
    z1 = (rng.standard_normal(_SEED_COUNT) + 1j * rng.standard_normal(_SEED_COUNT)) \
        * 10.0 ** rng.uniform(-3, 3, size=_SEED_COUNT)
    z2 = (rng.standard_normal(_SEED_COUNT) + 1j * rng.standard_normal(_SEED_COUNT)) \
        * 10.0 ** rng.uniform(-3, 3, size=_SEED_COUNT)
    num = np.abs(np.abs(z1) ** alphas - np.abs(z2) ** alphas)
    den = np.abs(z1 - z2) ** alphas
    ratios = num / np.where(den > 0, den, 1.0)
    max_a = float(np.max(ratios))
    checks.append(InequalityCheck("modulus_power_difference", _SEED_COUNT, max_a,
                                  1.0 + 1e-12))

    # (b) gradient of the nonlinearity vs finite differences
    grid = Grid1D(256, np.pi)
    n_fields = _SEED_COUNT // 64
    worst_b = 0.0
    compared_b = 0  # the points away from zeros of u, of 16 drawn per field
    for _ in range(n_fields):
        alpha = float(rng.uniform(0.1, 1.9))
        lam = complex(rng.standard_normal(), rng.standard_normal())
        u_vals = _band_limited_field(rng, grid, modes=8)
        u = GridFunction(grid, u_vals)
        pts = rng.uniform(-np.pi, np.pi, size=16)
        interp = TrigInterpolant(u)
        u_p = interp(pts)
        mask = np.abs(u_p) >= 0.1 * np.max(np.abs(u_vals))
        if not np.any(mask):
            continue
        pts = pts[mask]
        u_p = u_p[mask]
        compared_b += pts.size
        du_p = TrigInterpolant(spectral_derivative(u, 1))(pts)
        formula = (
            lam * (alpha + 2.0) / 2.0 * np.abs(u_p) ** alpha * du_p
            + lam * alpha / 2.0 * np.abs(u_p) ** (alpha - 2.0) * u_p**2 * np.conj(du_p)
        )

        def f_of(x):
            v = interp(x)
            return lam * np.abs(v) ** alpha * v

        fd = central_difference(f_of, pts)
        rel = np.max(np.abs(formula - fd) / np.abs(formula))
        worst_b = max(worst_b, float(rel))
    checks.append(InequalityCheck("nonlinearity_gradient_formula",
                                  compared_b, worst_b, 1e-6))

    # (c) Landau-type interpolation ratio
    worst_c = 0.0
    n_fields_c = _SEED_COUNT // 16
    for _ in range(n_fields_c):
        u_vals = _band_limited_field(rng, grid, modes=32)
        u = GridFunction(grid, u_vals)
        sup_u = float(np.max(np.abs(u_vals)))
        sup_d1 = float(np.max(np.abs(spectral_derivative(u, 1).values)))
        sup_d2 = float(np.max(np.abs(spectral_derivative(u, 2).values)))
        ratio = sup_d1 / math.sqrt(sup_d2 * sup_u)
        worst_c = max(worst_c, ratio)
    checks.append(InequalityCheck("gradient_interpolation_bound",
                                  n_fields_c, worst_c, 2.0))

    return InequalityReport(checks=checks)
