"""Uniform rectangular grids and the fields sampled on them.

Conventions used throughout the package: a grid point (i, j) carries the
complex coordinate z = x_i + 1j*y_j, so field arrays are indexed
values[i, j] with i running along x and j along y. A boolean mask marks
excluded points (singularities, inadmissible parameter regions); masked
entries are stored as zero and never contribute to norms, and derivative
stencils treat them as missing data.

Fields are immutable after construction. Every operation downstream is a
pure function of its inputs.

The public constructors validate what they are given: shapes, a private
copy of the mask, masked points zeroed, then every value finite (a NaN or
inf at an unmasked point raises ValueError). Arrays computed from fields
that were already validated, or sampled from a closed form, go through the
private `_derived` constructor instead. Its caller has zeroed the masked
points and shaped the arrays from the grid, so it skips the shape checks,
the mask copy and the re-zeroing, and keeps the mask it is given
(write-protected, possibly shared with other fields). It still checks that
every value is finite, except for the ops that preserve finiteness exactly
(`conj`, `without_source` and the real part), which pass `finite=True`;
a non-finite value there was computed from well-formed inputs, so it
raises NumericalBreakdown.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GridSpec", "ComplexField", "RealField", "NumericalBreakdown", "field_to_csv"]


class NumericalBreakdown(ValueError):
    """A computed quantity left the domain a construction needs: H or the
    density vanishes or turns negative, psi2 vanishes, a computed value is
    not finite, or an integration path crosses a masked point. The inputs
    were well formed; the numbers they produced were not usable."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling of the rectangle [x_min, x_max] x [y_min, y_max].

    Spacings hx, hy are derived from the sample counts; central
    differences need at least three points per axis.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        bounds = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not all(np.isfinite(b) for b in bounds):
            raise ValueError("grid bounds must be finite")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid bounds must be ordered: x_max > x_min, y_max > y_min")
        if self.nx < 3 or self.ny < 3:
            raise ValueError("need nx >= 3 and ny >= 3 for interior stencils")

    @property
    def hx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y_max - self.y_min) / (self.ny - 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    def zmesh(self) -> np.ndarray:
        """Complex coordinates z[i, j] = x_i + 1j*y_j."""
        return self.xs()[:, None] + 1j * self.ys()[None, :]

    def index_of(self, x: float, y: float, tol: float = 1e-9) -> tuple[int, int]:
        """Indices of the grid point closest to (x, y); raises if not a grid point."""
        i = int(round((x - self.x_min) / self.hx))
        j = int(round((y - self.y_min) / self.hy))
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise ValueError(f"point ({x}, {y}) lies outside the grid")
        scale = max(self.hx, self.hy)
        if abs(self.x_min + i * self.hx - x) > tol * scale or abs(self.y_min + j * self.hy - y) > tol * scale:
            raise ValueError(f"point ({x}, {y}) is not a grid point")
        return i, j

    def center_index(self) -> tuple[int, int]:
        return ((self.nx - 1) // 2, (self.ny - 1) // 2)

    def refined(self) -> "GridSpec":
        """Same rectangle with both spacings halved."""
        return GridSpec(self.x_min, self.x_max, self.y_min, self.y_max,
                        2 * self.nx - 1, 2 * self.ny - 1)


_NON_FINITE = "non-finite entries at unmasked points; supply a mask for singular points"


def _prepare(grid: GridSpec, values, mask, dtype) -> tuple[np.ndarray, np.ndarray]:
    values = np.asarray(values, dtype=dtype)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
    if mask is None:
        mask = np.zeros(grid.shape, dtype=bool)
    else:
        mask = np.array(mask, dtype=bool, copy=True)
        if mask.shape != grid.shape:
            raise ValueError("mask shape does not match grid")
    values = np.where(mask, 0, values)
    if not np.isfinite(values).all():
        raise ValueError(_NON_FINITE)
    return values, mask


class _Field:
    """Values and mask on a grid, optionally backed by an analytic source."""

    _dtype: type

    def __init__(self, grid: GridSpec, values, mask=None, source=None):
        self._set(grid, *_prepare(grid, values, mask, self._dtype), source)

    def _set(self, grid, values, mask, source) -> None:
        values.setflags(write=False)
        mask.setflags(write=False)
        self.grid = grid
        self.values = values
        self.mask = mask
        self.source = source
        # first-derivative stencils by axis, filled lazily by calculus and
        # shared with the without_source() views of the same arrays
        self._grad = {}

    @classmethod
    def _derived(cls, grid: GridSpec, values: np.ndarray, mask: np.ndarray,
                 source=None, finite: bool = False):
        """A field from arrays computed off validated fields.

        `values` has the grid's shape and is zero wherever the boolean
        `mask` is set; both arrays are kept, not copied, and
        write-protected. Finiteness is checked unless `finite` says the
        op that produced `values` preserves it exactly.
        """
        values = np.asarray(values, dtype=cls._dtype)
        if not finite and not np.isfinite(values).all():
            raise NumericalBreakdown(_NON_FINITE)
        field = cls.__new__(cls)
        field._set(grid, values, mask, source)
        return field

    def without_source(self):
        view = self._derived(self.grid, self.values, self.mask, finite=True)
        view._grad = self._grad
        return view

    @property
    def n_masked(self) -> int:
        return int(np.count_nonzero(self.mask))


class ComplexField(_Field):
    """Complex values on a grid, optionally backed by an analytic source.

    `source` (when present) is the ClosedForm whose jet produced the
    values; derivative operators use its analytic derivatives instead of
    finite differences.
    """

    _dtype = complex

    def conj(self) -> "ComplexField":
        src = self.source.conjugate() if self.source is not None else None
        vals = np.conj(self.values)
        np.copyto(vals, 0, where=self.mask)     # conj turns masked zeros into 0-0j
        return ComplexField._derived(self.grid, vals, self.mask, source=src, finite=True)


class RealField(_Field):
    """Real values on a grid (densities, curvatures, coordinates).

    `source`, when present, is a ClosedForm with real-valued samples whose
    jet backs the analytic path, as for ComplexField.
    """

    _dtype = float


def field_to_csv(field, path) -> None:
    """Dump a field snapshot as CSV rows (x, y, re, im), row-major in (i, j)."""
    vals = np.asarray(field.values, dtype=complex)
    _write_grid_csv(path, field.grid, "x,y,re,im", (vals.real, vals.imag))


def _csv_rows(grid: GridSpec, ncols: int):
    """The CSV lines of one grid row, as a function of (i, cols): x_i,y,c0,c1,...
    for every ordinate y, where each of the `ncols` iterables in `cols` yields
    row i's value strings. Each grid abscissa and ordinate is formatted once."""
    xs = list(map(repr, grid.xs().tolist()))
    ys = list(map(repr, grid.ys().tolist()))
    fields = ",{}" * (1 + ncols) + "\n"
    return lambda i, cols: "".join(map((xs[i] + fields).format, ys, *cols))


def _write_grid_csv(path, grid: GridSpec, header: str, cols) -> None:
    """Write `header`, then x,y,cols[0][i, j],... for every grid point,
    row-major in (i, j).

    Values print as Python float reprs; the file is written one grid row at
    a time.
    """
    rows = _csv_rows(grid, len(cols))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for i in range(grid.nx):
            fh.write(rows(i, [map(repr, c[i].tolist()) for c in cols]))
