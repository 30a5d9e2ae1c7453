"""Uniform rectangular grids and the fields sampled on them.

Conventions used throughout the package: a grid point (i, j) carries the
complex coordinate z = x_i + 1j*y_j, so field arrays are indexed
values[i, j] with i running along x and j along y. A boolean mask marks
excluded points (singularities, inadmissible parameter regions); masked
entries are stored as zero and never contribute to norms, and derivative
stencils treat them as missing data.

Fields are immutable after construction. Every operation downstream is a
pure function of its inputs. What a field keeps changes no value: one
memo dict, where the operators that read the field store what they
derived from it once, and, when it has an analytic source, the jet that
source makes on first use (see closedform).

Storage. A field stores its values and mask as two arrays of one shape:
the grid's (nx, ny), or one column (nx, 1) when both depend on x only,
as every sample of a diagonal form does (see closedform). That shape is
the only mark of a compact field. `stored` gives the two arrays and the
package's arithmetic runs on them: numpy broadcasting carries a column
through elementwise formulas, and a column that meets a grid-shaped
array becomes grid-shaped. A compact field's y-derivative is exactly
zero (see calculus). The norms read a column as stored: a max is taken
over the column's unmasked entries, and a sum over points runs over the
column's entries (or their squares) repeated once per unmasked point of
their row, the same values in the same order as boolean indexing of the
expanded grid gives, so it keeps its bits (see reporting). A column is
expanded to the grid only where the y direction matters: in the
inducer's integrals along y (over the whole grid for a surface, along
one grid line for path independence), where a surface coordinate whose
y-line form is zero under a column mask is integrated along x alone and
kept as a column; and in the public `values` and `mask`, which are
always grid-shaped and read-only (for a compact field, each read
expands the column into a new array).

The public constructors validate what they are given: shapes (the
grid's), a private copy of the mask, masked points zeroed, then every
value finite (a NaN or inf at an unmasked point raises ValueError).
Arrays computed from fields that were already validated, or sampled from
a closed form, go through the private `_derived` constructor instead. Its
caller has zeroed the masked points and shaped the arrays, the grid's
shape or a column, so it skips the shape checks, the mask copy and the
re-zeroing, and keeps the mask it is given (write-protected, possibly
shared with other fields). It still checks that every value is finite,
except for the ops that preserve finiteness exactly (`conj`,
`without_source` and the real part), which pass `finite=True`; a
non-finite value there was computed from well-formed inputs, so it
raises NumericalBreakdown.
"""
from typing import NamedTuple

import numpy as np

__all__ = ["GridSpec", "ComplexField", "RealField", "NumericalBreakdown"]


class NumericalBreakdown(ValueError):
    """A computed quantity left the domain a construction needs: a grid
    spacing underflows, H or the density vanishes or turns negative, psi2
    vanishes, a computed value is not finite, or an integration path
    crosses a masked point. The inputs were well formed; the numbers they
    produced were not usable."""


class _Bounds(NamedTuple):
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int


class GridSpec(_Bounds):
    """Uniform sampling of the rectangle [x_min, x_max] x [y_min, y_max].

    Spacings hx, hy are derived from the sample counts; central
    differences need at least three points per axis. A named tuple whose
    every construction is checked, `_make` and `_replace` included.
    """

    __slots__ = ()

    def __new__(cls, x_min, x_max, y_min, y_max, nx, ny):
        if not all(np.isfinite(b) for b in (x_min, x_max, y_min, y_max)):
            raise ValueError("grid bounds must be finite")
        if not (x_max > x_min and y_max > y_min):
            raise ValueError("grid bounds must be ordered: x_max > x_min, y_max > y_min")
        if nx < 3 or ny < 3:
            raise ValueError("need nx >= 3 and ny >= 3 for interior stencils")
        self = super().__new__(cls, x_min, x_max, y_min, y_max, nx, ny)
        # a subnormal spacing cannot tell grid points apart, nor divide a stencil
        if min(self.hx, self.hy) < np.finfo(float).tiny:
            raise NumericalBreakdown(f"grid spacing {min(self.hx, self.hy):.3g} is subnormal")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip __new__'s checks
        return cls(*iterable)

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

    def index_of(self, x: float, y: float) -> tuple[int, int]:
        """Indices of the grid point closest to (x, y); raises if (x, y) is
        farther than 1e-9 of the larger spacing from it."""
        i = int(round((x - self.x_min) / self.hx))
        j = int(round((y - self.y_min) / self.hy))
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise ValueError(f"point ({x}, {y}) lies outside the grid")
        tol = 1e-9 * max(self.hx, self.hy)
        if abs(self.x_min + i * self.hx - x) > tol or abs(self.y_min + j * self.hy - y) > tol:
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
    """Values and mask on a grid, optionally backed by an analytic source.

    A source comes only from closedform's `sample` and `pointwise` and
    from the ops that carry one along (derivatives, `conj`, real parts);
    the public constructors build fields without one."""

    _dtype: type

    def __init__(self, grid: GridSpec, values, mask=None):
        self._set(grid, *_prepare(grid, values, mask, self._dtype), None)

    def _set(self, grid, values, mask, source) -> None:
        values.setflags(write=False)
        mask.setflags(write=False)
        self.grid = grid
        self._values = values
        self._mask = mask
        self.source = source
        # values derived from this field once and kept, filled lazily by the
        # operators that read it, each under its own keys
        self._memo = {}

    @property
    def stored(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, mask) as stored, both read-only and of one shape: the
        grid's, or the column (nx, 1) of a field that depends on x only."""
        return self._values, self._mask

    @property
    def values(self) -> np.ndarray:
        """The values on the whole grid, read-only."""
        return _expanded(self._values, self.grid)

    @property
    def mask(self) -> np.ndarray:
        """The mask on the whole grid, read-only."""
        return _expanded(self._mask, self.grid)

    @classmethod
    def _derived(cls, grid: GridSpec, values: np.ndarray, mask: np.ndarray,
                 source=None, finite: bool = False):
        """A field from arrays computed off validated fields.

        `values` and the boolean `mask` have one shape, the grid's or a
        column (nx, 1), and `values` is zero wherever `mask` is set; both
        arrays are kept, not copied, and write-protected. Finiteness is
        checked unless `finite` says the op that produced `values`
        preserves it exactly.
        """
        values = np.asarray(values, dtype=cls._dtype)
        if not finite and not np.isfinite(values).all():
            raise NumericalBreakdown(_NON_FINITE)
        field = cls.__new__(cls)
        field._set(grid, values, mask, source)
        return field

    def without_source(self):
        return self._derived(self.grid, self._values, self._mask, finite=True)


def _expanded(arr: np.ndarray, grid: GridSpec) -> np.ndarray:
    """`arr`, a stored array, on the whole grid: itself when grid-shaped,
    else a new read-only array repeating the column."""
    if arr.shape == grid.shape:
        return arr
    out = np.broadcast_to(arr, grid.shape).copy()
    out.setflags(write=False)
    return out


def _shared(*fields) -> tuple[GridSpec, np.ndarray]:
    """The grid that `fields` (anything with .grid and .stored) share, and
    the union of their stored masks (a column when every one is);
    ValueError when they live on different grids."""
    grid, mask = fields[0].grid, fields[0].stored[1]
    for f in fields[1:]:
        if f.grid != grid:
            raise ValueError("fields live on different grids")
        mask = mask | f.stored[1]
    return grid, mask


class ComplexField(_Field):
    """Complex values on a grid, optionally backed by an analytic source.

    `source` (when present) is the field's jet on its stored points (see
    closedform), whose slots the derivative operators read instead of
    finite differences.
    """

    _dtype = complex

    def conj(self) -> "ComplexField":
        src = self.source.conj() if self.source is not None else None
        vals = np.conj(self._values)
        np.copyto(vals, 0, where=self._mask)    # conj turns masked zeros into 0-0j
        return ComplexField._derived(self.grid, vals, self._mask, source=src, finite=True)


class RealField(_Field):
    """Real values on a grid (densities, curvatures, coordinates).

    `source`, when present, is the field's jet, real-valued on its
    points, which backs the analytic path as for ComplexField.
    """

    _dtype = float
