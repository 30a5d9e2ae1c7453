"""Uniform rectangular grids and the fields sampled on them.

Conventions used throughout the package: a grid point (i, j) carries the
complex coordinate z = x_i + 1j*y_j, so field arrays are indexed
values[i, j] with i running along x and j along y. A boolean mask marks
excluded points (singularities, inadmissible parameter regions); masked
entries are stored as zero and never contribute to norms, and derivative
stencils treat them as missing data.

Fields are immutable after construction. Every operation downstream is a
pure function of its inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GridSpec", "ComplexField", "RealField", "NumericalBreakdown", "field_to_csv"]


class NumericalBreakdown(ValueError):
    """A computed quantity left the domain a construction needs: H or the
    density vanishes or turns negative, psi2 vanishes, or an integration
    path crosses a masked point. The inputs were well formed; the numbers
    they produced were not usable."""


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
    if not np.all(np.isfinite(values[~mask])):
        raise ValueError("non-finite entries at unmasked points; supply a mask for singular points")
    values = np.where(mask, 0, values)
    values.setflags(write=False)
    mask.setflags(write=False)
    return values, mask


class ComplexField:
    """Complex values on a grid, optionally backed by an analytic source.

    `source` (when present) is the ClosedForm whose jet produced the
    values; derivative operators use its analytic derivatives instead of
    finite differences.
    """

    def __init__(self, grid: GridSpec, values, mask=None, source=None):
        self.grid = grid
        self.values, self.mask = _prepare(grid, values, mask, complex)
        self.source = source

    def conj(self) -> "ComplexField":
        src = self.source.conjugate() if self.source is not None else None
        return ComplexField(self.grid, np.conj(self.values), self.mask, source=src)

    def without_source(self) -> "ComplexField":
        return ComplexField(self.grid, self.values, self.mask)

    @property
    def n_masked(self) -> int:
        return int(np.count_nonzero(self.mask))


class RealField:
    """Real values on a grid (densities, curvatures, coordinates).

    `source`, when present, is a ClosedForm with real-valued samples whose
    jet backs the analytic path, as for ComplexField.
    """

    def __init__(self, grid: GridSpec, values, mask=None, source=None):
        self.grid = grid
        self.values, self.mask = _prepare(grid, values, mask, float)
        self.source = source

    def without_source(self) -> "RealField":
        return RealField(self.grid, self.values, self.mask)

    @property
    def n_masked(self) -> int:
        return int(np.count_nonzero(self.mask))


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
