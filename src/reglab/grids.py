"""Uniform periodic grids, grid functions and the discrete Fourier contract.

The spatial domain is the periodic interval [-L, L) sampled at
``x_j = -L + j*spacing`` with ``spacing = 2L/n`` and ``n`` a power of two,
so that x = 0 is always a sample point (index n//2).

Fourier conventions: physical wavenumbers are ``xi_k = pi*k/L`` for integer
frequencies k in [-n/2, n/2).  The forward transform divides by n, so a
constant field has coefficient 1 at k = 0 and Parseval reads
``sum_k |c_k|^2 = (1/n) sum_j |u_j|^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DomainError, SizeMismatch
from .numerics import loglog_fit

__all__ = [
    "Grid1D",
    "GridFunction",
    "forward_transform",
    "laplacian_symbol",
    "derivative_multiplier",
    "spectral_derivative",
    "TrigInterpolant",
    "reflect_y",
    "odd_part",
    "dyadic_ladder",
    "ladder_columns",
    "ladder_increments",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [-L, L) with a power-of-two point count."""

    n_points: int
    half_length: float

    def __post_init__(self):
        if not isinstance(self.n_points, (int, np.integer)) or self.n_points < 8:
            raise DomainError(f"n_points must be an integer >= 8, got {self.n_points}")
        if not _is_power_of_two(int(self.n_points)):
            raise DomainError(f"n_points must be a power of two, got {self.n_points}")
        if not (0.0 < self.half_length < np.inf):
            raise DomainError(f"half_length must be finite and positive, got {self.half_length}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.n_points

    @property
    def points(self) -> np.ndarray:
        return -self.half_length + self.spacing * np.arange(self.n_points)

    @property
    def zero_index(self) -> int:
        """Index of the sample at x = 0 (exact in floating point)."""
        return self.n_points // 2

    @property
    def frequencies(self) -> np.ndarray:
        """Integer frequencies k in FFT order: 0..n/2-1, -n/2..-1."""
        n = self.n_points
        return np.where(np.arange(n) < n // 2, np.arange(n), np.arange(n) - n)

    @property
    def wavenumbers(self) -> np.ndarray:
        """Physical wavenumbers xi_k = pi*k/L in FFT order."""
        return np.pi * self.frequencies / self.half_length

    def phase(self) -> np.ndarray:
        """(-1)^k factors translating the FFT origin to x = -L (exact)."""
        return np.where(self.frequencies % 2 == 0, 1.0, -1.0)


def _as_grid(grid) -> Grid1D:
    """The one check of a field's grid: a field lives on one Grid1D (the y axis)."""
    if not isinstance(grid, Grid1D):
        raise DomainError(f"grid must be a Grid1D, got {grid!r}")
    return grid


@dataclass(frozen=True)
class GridFunction:
    """Finite complex samples on a 1D grid (:class:`DomainError` for NaN or Inf)."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        expected = (_as_grid(self.grid).n_points,)
        if values.shape != expected:
            raise SizeMismatch(f"values shape {values.shape} != grid shape {expected}")
        if not np.all(np.isfinite(values)):
            raise DomainError("GridFunction values contain NaN/Inf")
        object.__setattr__(self, "values", values)


def forward_transform(u: GridFunction) -> np.ndarray:
    """Coefficients c_k = (1/n) sum_j u_j exp(-i xi_k x_j), in FFT frequency order."""
    return np.fft.fft(u.values) / u.values.size * u.grid.phase()


def laplacian_symbol(grid: Grid1D) -> np.ndarray:
    """|xi|^2 in FFT order."""
    return grid.wavenumbers**2


def derivative_multiplier(grid: Grid1D, order: int) -> np.ndarray:
    """(i xi)^order in FFT order; odd orders drop the Nyquist mode.
    :class:`DomainError` unless order is a nonnegative integer."""
    if not (float(order).is_integer() and order >= 0):
        raise DomainError(f"order must be a nonnegative integer, got {order}")
    order = int(order)
    xi = grid.wavenumbers
    mult = (1j * xi) ** order
    if order % 2 == 1:
        # Nyquist mode has no well-defined odd derivative on a real grid.
        mult = mult.copy()
        mult[grid.n_points // 2] = 0.0
    return mult


def spectral_derivative(u: GridFunction, order: int = 1) -> GridFunction:
    """Differentiate via the (i*xi)^order multiplier."""
    coeffs = np.fft.fft(u.values)
    coeffs *= derivative_multiplier(u.grid, order)
    return GridFunction(grid=u.grid, values=np.fft.ifft(coeffs))


def _powers(w: np.ndarray, count: int) -> np.ndarray:
    """w^0, ..., w^(count-1) on a new leading axis, built one power at a time."""
    table = np.empty((count,) + w.shape, dtype=np.complex128)
    table[0] = 1.0
    for k in range(1, count):
        np.multiply(table[k - 1], w, out=table[k])
    return table


class TrigInterpolant:
    """Trigonometric interpolant of a 1D grid function u, or of each row of an (R, n)
    array on a grid, ``TrigInterpolant(grid, rows)``, called on points (R, ...).

    Periodic in 2L, exact at grid nodes up to FFT roundoff.  The Nyquist mode
    is evaluated as cos(xi_{n/2} x), which agrees with exp(i xi_{-n/2} x) at
    the nodes and keeps real data real off the nodes.

    The other modes are z^(-n/2) sum_j d_j z^j, z = exp(i pi x/L), d_j = c_{j-n/2} kept
    per row as a (B, n/B) table, B = 2^ceil(log2(n)/2): a call builds z^b (b < B) and
    (z^B)^a (a < n/B) one power at a time, one batched matmul for all rows.
    fmod first reduces x exactly into (-2L, 2L).

    ``mirrored=True`` returns the stack [u(x), u(-x)] of shape (2, ...) from the same
    powers: z(-x) = conj(z(x)), so u(-x) = conj(z^(-n/2) sum_j conj(d_j) z^j) plus the
    same Nyquist term, and the matmul takes [table | conj(table)].
    :meth:`take` gathers some rows into a new interpolant without a second FFT.
    """

    def __init__(self, u: GridFunction | Grid1D, rows=None):
        if rows is None:
            u, rows = u.grid, u.values[None, :]
        self.grid = g = u
        rows = np.asarray(rows, dtype=np.complex128)
        if rows.ndim != 2 or rows.shape[1] != g.n_points:
            raise SizeMismatch(f"rows shape {rows.shape} != (R, {g.n_points})")
        n = int(g.n_points)
        self.coefficients = np.fft.fft(rows) / n * g.phase()  # forward_transform of each row
        block = 1 << -(-(n.bit_length() - 1) // 2)
        shifted = np.roll(self.coefficients, n // 2, axis=1)  # shifted[:, j] = c_{j - n/2}
        self._nyquist = shifted[:, :1].copy()  # the Nyquist mode goes as a cosine
        shifted[:, 0] = 0.0
        table = shifted.reshape(len(rows), n // block, block).transpose(0, 2, 1)
        self._table = np.concatenate([table, np.conj(table)], axis=2)  # (R, B, 2n/B)

    def take(self, rows) -> TrigInterpolant:
        """The interpolant of the rows with the given indices (a 1D sequence) of this one,
        gathered, not transformed again."""
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 1:
            raise SizeMismatch(f"row indices of shape {rows.shape} are not one axis")
        out = object.__new__(type(self))
        out.grid = self.grid
        out.coefficients = self.coefficients[rows]
        out._nyquist = self._nyquist[rows]
        out._table = self._table[rows]
        return out

    def __call__(self, points, mirrored: bool = False) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        n_rows, block = self._table.shape[:2]
        if n_rows > 1 and pts.shape[:1] != (n_rows,):
            raise SizeMismatch(f"points shape {pts.shape} does not lead with {n_rows} rows")
        count = self.grid.n_points // block
        length = self.grid.half_length
        x = np.fmod(pts.reshape(n_rows, -1), 2.0 * length)
        z = np.exp(1j * (np.pi / length) * x)
        low = _powers(z, block)  # z^b, (B, R, P)
        high = _powers(low[-1] * z, count)  # z^(a*B), (n/B, R, P)
        half = high[count // 2]  # z^(n/2)
        signs = 2 if mirrored else 1
        sums = low.transpose(1, 2, 0) @ self._table[..., : signs * count]
        # row-wise dot of each n/B block of sums with the high powers: (signs, R, P)
        sums = np.einsum("rpsa,arp->srp", sums.reshape(*z.shape, signs, count), high)
        vals = sums * np.conj(half)
        vals[1:] = np.conj(vals[1:])
        vals += self._nyquist * half.real
        vals = vals.reshape((signs,) + pts.shape)
        return vals if mirrored else vals[0]


def reflect_y(values: np.ndarray) -> np.ndarray:
    """Samples of u(-y) on the periodic grid (last axis): index j maps to -j mod n."""
    return np.concatenate((values[..., :1], values[..., :0:-1]), axis=-1)


def odd_part(values: np.ndarray) -> np.ndarray:
    return 0.5 * (values - reflect_y(values))


def dyadic_ladder(grid: Grid1D, y_max: float):
    """Grid-aligned dyadic offsets y_k = y_max * 2^-k with y_k >= 4*spacing."""
    spacing = grid.spacing
    j0 = grid.zero_index
    idx, ys = [], []
    y_k = y_max
    while y_k >= 4.0 * spacing - 1e-12 * spacing:
        j = int(round(y_k / spacing))
        if j >= 1 and j0 + j < grid.n_points and (not idx or j != idx[-1]):
            idx.append(j)
            ys.append(j * spacing)
        y_k *= 0.5
    if len(idx) < 4:
        raise DegenerateInput(
            f"dyadic ladder from y_max={y_max} has {len(idx)} usable points (< 4)")
    return np.array(idx), np.array(ys)


def ladder_columns(grid: Grid1D, y_max: float) -> np.ndarray:
    """The sorted grid indices that :func:`ladder_increments` reads: y = 0 and the ladder."""
    return grid.zero_index + np.unique(np.append(0, dyadic_ladder(grid, y_max)[0]))


def ladder_increments(grid: Grid1D, column, y_max: float):
    """(ys, q, log-log fit of q) for the increments q_k = |column(y_k) - column(0)|
    on the dyadic ladder of y offsets."""
    j0 = grid.zero_index
    idx, ys = dyadic_ladder(grid, y_max)
    q = np.abs(column[j0 + idx] - column[j0])
    return ys, q, loglog_fit(ys, q)
