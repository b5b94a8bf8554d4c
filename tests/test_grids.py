import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reglab.errors import DegenerateInput, DomainError, SizeMismatch
from reglab.grids import (
    Grid1D,
    GridFunction,
    TrigInterpolant,
    derivative_multiplier,
    dyadic_ladder,
    forward_transform,
    laplacian_symbol,
    odd_part,
    reflect_y,
    spectral_derivative,
)


def dense_interpolant(u, points):
    """Reference: the full exp(i x xi_k) basis, one column per mode.

    The Nyquist column is cos(xi_{n/2} x), as in :class:`TrigInterpolant`.
    Points are reduced into (-2L, 2L) first; fmod is exact and the sum is
    2L-periodic, so this is the same function, while at |x| ~ 100 L the
    rounding of x * xi_k alone would move the basis by ~1e-12.
    """
    g = u.grid
    flat = np.fmod(np.asarray(points, dtype=np.float64).reshape(-1), 2.0 * g.half_length)
    basis = np.exp(1j * np.outer(flat, g.wavenumbers))
    nyquist = g.n_points // 2
    basis[:, nyquist] = np.cos(np.pi * nyquist / g.half_length * flat)
    return basis @ forward_transform(u)


def dft_matrix(g):
    """exp(i xi_k x_j), one row per frequency k in FFT order."""
    return np.exp(1j * np.outer(g.wavenumbers, g.points))


class TestGrid1D:
    def test_validation(self):
        with pytest.raises(DomainError):
            Grid1D(6, 1.0)
        with pytest.raises(DomainError):
            Grid1D(24, 1.0)
        with pytest.raises(DomainError):
            Grid1D(64, -1.0)
        for half_length in (float("inf"), float("nan")):
            with pytest.raises(DomainError, match="finite and positive"):
                Grid1D(8, half_length)

    def test_geometry(self):
        g = Grid1D(64, 4.0)
        assert g.spacing * g.n_points == 2.0 * g.half_length
        pts = g.points
        assert pts[0] == -4.0
        assert pts[g.zero_index] == 0.0
        assert np.allclose(np.diff(pts), g.spacing)

    def test_wavenumbers(self):
        g = Grid1D(8, 2.0)
        k = g.frequencies
        assert list(k) == [0, 1, 2, 3, -4, -3, -2, -1]
        assert np.allclose(g.wavenumbers, np.pi * k / 2.0)


class TestGridFunction:
    def test_shape_check(self):
        g = Grid1D(16, 1.0)
        with pytest.raises(SizeMismatch):
            GridFunction(g, np.zeros(8))

    def test_finiteness(self):
        g = Grid1D(16, 1.0)
        vals = np.zeros(16, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(DomainError):
            GridFunction(g, vals)


class TestTransforms:
    def test_constant_field(self):
        g = Grid1D(32, 3.0)
        c = forward_transform(GridFunction(g, np.ones(32)))
        assert abs(c[0] - 1.0) <= 1e-14
        other = c.copy()
        other[0] = 0.0
        assert np.max(np.abs(other)) <= 1e-14

    def test_single_mode(self):
        g = Grid1D(64, 2.0)
        x = g.points
        u = GridFunction(g, np.exp(1j * (np.pi / g.half_length) * x))
        c = forward_transform(u)
        assert abs(c[1] - 1.0) <= 1e-13
        rest = c.copy()
        rest[1] = 0.0
        assert np.max(np.abs(rest)) <= 1e-13

    @pytest.mark.parametrize("n", [8, 16, 64, 256, 1024, 4096])
    def test_parseval(self, n):
        rng = np.random.default_rng(n)
        g = Grid1D(n, 1.5)
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = np.sum(np.abs(forward_transform(GridFunction(g, vals))) ** 2)
        rhs = np.sum(np.abs(vals) ** 2) / n
        assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_closed_form_1d(self):
        rng = np.random.default_rng(11)
        g = Grid1D(16, 1.5)
        vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        expect = dft_matrix(g).conj() @ vals / 16
        assert np.max(np.abs(forward_transform(GridFunction(g, vals)) - expect)) <= 1e-14


class TestSpectralOps:
    def test_derivative_of_mode(self):
        g = Grid1D(128, 4.0)
        x = g.points
        xi = 3 * np.pi / g.half_length
        u = GridFunction(g, np.sin(xi * x))
        du = spectral_derivative(u, 1)
        assert np.max(np.abs(du.values.real - xi * np.cos(xi * x))) <= 1e-11
        assert np.max(np.abs(du.values.imag)) <= 1e-12
        d3 = spectral_derivative(u, 3)
        assert np.max(np.abs(d3.values.real + xi**3 * np.cos(xi * x))) <= 1e-9

    def test_trig_interpolation_exact_at_nodes(self):
        rng = np.random.default_rng(3)
        g = Grid1D(64, 2.0)
        vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        u = GridFunction(g, vals)
        out = TrigInterpolant(u)(g.points)
        assert np.max(np.abs(out - vals)) <= 1e-12 * np.max(np.abs(vals))

    def test_trig_interpolation_band_limited(self):
        g = Grid1D(64, 3.0)
        x = g.points
        f = lambda t: np.cos(2 * np.pi * t / 3.0) + 0.5 * np.sin(np.pi * t / 3.0)
        u = GridFunction(g, f(x))
        pts = np.linspace(-2.9, 2.9, 77)
        out = TrigInterpolant(u)(pts)
        assert np.max(np.abs(out - f(pts))) <= 1e-12

    def test_trig_interpolation_periodic_wrap(self):
        g = Grid1D(32, 1.0)
        u = GridFunction(g, np.cos(np.pi * g.points))
        a = TrigInterpolant(u)(np.array([0.3]))
        b = TrigInterpolant(u)(np.array([0.3 + 2.0]))
        assert abs(a - b) <= 1e-12

    @settings(deadline=None, database=None, max_examples=60)
    @given(
        log_n=st.integers(3, 11),
        half_length=st.floats(0.5, 8.0),
        batch=st.sampled_from([1, 15, 1024]),
        real=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_interpolant_matches_dense_basis(self, log_n, half_length, batch, real, seed):
        rng = np.random.default_rng(seed)
        g = Grid1D(2**log_n, half_length)
        vals = rng.standard_normal(g.n_points)
        if not real:
            vals = vals + 1j * rng.standard_normal(g.n_points)
        u = GridFunction(g, vals)
        interp = TrigInterpolant(u)
        # off the nodes: a node plus a fraction of the spacing, |x| <= 100 L
        nodes = rng.integers(-100 * g.n_points // 2, 100 * g.n_points // 2, batch)
        pts = (nodes + rng.uniform(0.01, 0.99, batch)) * g.spacing
        out = interp(pts)
        size = np.sum(np.abs(interp.coefficients))
        assert out.shape == pts.shape
        assert np.max(np.abs(out - dense_interpolant(u, pts))) <= 1e-12 * size
        if real:
            assert np.max(np.abs(out.imag)) <= 1e-13 * size

    @settings(deadline=None, database=None, max_examples=60)
    @given(
        log_n=st.integers(3, 11),
        half_length=st.floats(0.5, 8.0),
        n_rows=st.integers(1, 6),
        batch=st.sampled_from([1, 15, 320]),
        real=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_batched_interpolant_matches_per_row(self, log_n, half_length, n_rows,
                                                     batch, real, seed):
        rng = np.random.default_rng(seed)
        g = Grid1D(2**log_n, half_length)
        rows = rng.standard_normal((n_rows, g.n_points))
        if not real:
            rows = rows + 1j * rng.standard_normal((n_rows, g.n_points))
        pts = rng.uniform(-100.0, 100.0, (n_rows, batch)) * half_length
        out = TrigInterpolant(g, rows)(pts)
        assert out.shape == pts.shape
        for r in range(n_rows):
            single = TrigInterpolant(GridFunction(g, rows[r]))
            size = np.sum(np.abs(single.coefficients))
            assert np.max(np.abs(out[r] - single(pts[r]))) <= 1e-13 * size

    @settings(deadline=None, database=None, max_examples=60)
    @given(
        log_n=st.integers(3, 11),
        half_length=st.floats(0.5, 8.0),
        n_rows=st.integers(1, 4),
        batch=st.sampled_from([1, 15, 192]),
        real=st.booleans(),
        nyquist_only=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mirrored_interpolant_matches_both_signs(self, log_n, half_length, n_rows, batch,
                                                     real, nyquist_only, seed):
        rng = np.random.default_rng(seed)
        g = Grid1D(2**log_n, half_length)
        rows = rng.standard_normal((n_rows, g.n_points))
        if not real:
            rows = rows + 1j * rng.standard_normal((n_rows, g.n_points))
        if nyquist_only:
            rows[0] = rows[0, 0] * (-1.0) ** np.arange(g.n_points)  # the Nyquist mode alone
        pts = rng.uniform(-100.0, 100.0, (n_rows, batch)) * half_length
        interp = TrigInterpolant(g, rows)
        plus, minus = interp(pts, mirrored=True)
        assert plus.shape == minus.shape == pts.shape
        plain, reflected = interp(pts), interp(-pts)
        for r in range(n_rows):
            u = GridFunction(g, rows[r])
            size = np.sum(np.abs(interp.coefficients[r]))
            assert np.max(np.abs(plus[r] - plain[r])) <= 1e-13 * size
            assert np.max(np.abs(minus[r] - reflected[r])) <= 1e-13 * size
            assert np.max(np.abs(plus[r] - dense_interpolant(u, pts[r]))) <= 1e-12 * size
            assert np.max(np.abs(minus[r] - dense_interpolant(u, -pts[r]))) <= 1e-12 * size

    def test_mirrored_call_stacks_both_signs(self):
        g = Grid1D(16, 1.0)
        u = GridFunction(g, np.sin(np.pi * g.points) + np.cos(2.0 * np.pi * g.points))
        pts = np.linspace(0.0, 0.9, 12).reshape(3, 4)
        out = TrigInterpolant(u)(pts, mirrored=True)
        assert out.shape == (2, 3, 4)
        for sign, vals in zip((1.0, -1.0), out):
            expect = np.sin(sign * np.pi * pts) + np.cos(2.0 * np.pi * pts)
            assert np.max(np.abs(vals - expect)) <= 1e-13
        assert TrigInterpolant(u)(0.25, mirrored=True).shape == (2,)

    def test_row_batched_interpolant_checks_shapes(self):
        g = Grid1D(16, 1.0)
        rows = TrigInterpolant(g, np.ones((3, 16)))
        assert rows(np.zeros((3, 2, 5))).shape == (3, 2, 5)
        with pytest.raises(SizeMismatch):
            rows(np.zeros((2, 5)))
        with pytest.raises(SizeMismatch):
            rows(0.25)
        with pytest.raises(SizeMismatch):
            TrigInterpolant(g, np.ones((3, 8)))

    def test_taken_rows_evaluate_as_their_own_interpolant(self):
        # a gather of rows, repeated and out of order, transforms nothing again
        rng = np.random.default_rng(4)
        g = Grid1D(64, 2.0)
        rows = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
        interp = TrigInterpolant(g, rows)
        pick = [3, 0, 3]
        taken = interp.take(pick)
        pts = rng.uniform(0.0, 2.0, (3, 7))
        for r, i in enumerate(pick):
            own = TrigInterpolant(GridFunction(g, rows[i]))
            size = np.sum(np.abs(own.coefficients))
            assert np.max(np.abs(taken(pts, mirrored=True)[:, r] - own(pts[r], mirrored=True))) \
                <= 1e-13 * size
        assert taken.coefficients.tobytes() == interp.coefficients[pick].tobytes()
        with pytest.raises(SizeMismatch):
            interp.take([[0, 1]])

    def test_interpolant_keeps_point_shape(self):
        g = Grid1D(16, 1.0)
        u = GridFunction(g, np.sin(np.pi * g.points))
        pts = np.linspace(-0.9, 0.9, 12).reshape(3, 4)
        out = TrigInterpolant(u)(pts)
        assert out.shape == (3, 4)
        assert np.max(np.abs(out - np.sin(np.pi * pts))) <= 1e-13
        assert np.shape(TrigInterpolant(u)(0.25)) == ()

    def test_reflect_and_odd_part(self):
        g = Grid1D(16, 1.0)
        x = g.points
        u = x**3 + 1.0  # odd plus even part
        refl = reflect_y(u)
        # reflect maps sample at x_j to sample at -x_j (periodically)
        j = 3
        i = (16 - j) % 16
        assert refl[j] == u[i]
        odd = odd_part(u)
        assert np.max(np.abs(odd + reflect_y(odd))) == 0.0
        # x = -L is its own reflection pair on the torus, so skip index 0
        assert np.max(np.abs(odd[1:] - x[1:] ** 3)) <= 1e-14
        assert odd[0] == 0.0
        # 2D rows and non-finite entries: the same bits as the index formula
        rows = np.arange(3 * 16, dtype=complex).reshape(3, 16) * (1 - 0.5j)
        rows[0, 5], rows[1, 0], rows[2, 9] = np.nan, np.inf, complex(-np.inf, np.nan)
        for vals in (u, rows, rows.real):
            expect = vals[..., (-np.arange(16)) % 16]
            assert reflect_y(vals).tobytes() == expect.tobytes()
            with np.errstate(invalid="ignore"):  # inf - inf
                assert odd_part(vals).tobytes() == (0.5 * (vals - expect)).tobytes()


class TestSharedHelpers:
    def test_laplacian_symbol(self):
        g = Grid1D(16, 2.0)
        assert np.array_equal(laplacian_symbol(g), g.wavenumbers**2)

    def test_derivative_multiplier_drops_odd_nyquist(self):
        g = Grid1D(16, 1.0)
        assert derivative_multiplier(g, 5)[8] == 0.0
        assert derivative_multiplier(g, 2)[8] == -g.wavenumbers[8] ** 2
        assert derivative_multiplier(g, 3)[1] == (1j * g.wavenumbers[1]) ** 3

    @pytest.mark.parametrize("order", [-1, 2.5, float("nan")])
    def test_derivative_multiplier_rejects_bad_order(self, order):
        g = Grid1D(16, 1.0)
        with pytest.raises(DomainError):
            derivative_multiplier(g, order)
        with pytest.raises(DomainError):
            spectral_derivative(GridFunction(g, np.sin(np.pi * g.points)), order)

    def test_dyadic_ladder_is_grid_aligned_and_halving(self):
        g = Grid1D(1024, 4.0)
        idx, ys = dyadic_ladder(g, 0.5)
        assert np.array_equal(ys, idx * g.spacing)
        assert np.array_equal(idx, [64, 32, 16, 8, 4])
        with pytest.raises(DegenerateInput):
            dyadic_ladder(g, 0.05)
