"""Residual reports: norms over unmasked grid points.

Every verification operation returns a ResidualReport, and only this
module builds one. Its named `parts` carry the max norm and the
grid-weighted L2 norm of each residual: a field, or a scalar such as a
point gap, whose two norms are the scalar itself. Its own max_norm and
l2_norm are the worst of its parts'; its `details` carry scalars that are
not residuals (a mean, a reference, a flag). Values and masks may be
stored columns (see grid); the norms read them at that shape.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import GridSpec

__all__ = ["ResidualPart", "ResidualReport", "joined", "report_from_parts", "norms", "worst"]

# least accepted residual ratio between refinement levels where second-order
# convergence (ratio 4) is expected
RATIO_MIN = 2.5

# boundary rings a stencil-path residual leaves out: on them a derivative of
# an already-differenced field composes one-sided stencils and drops an order
STENCIL_RINGS = 2


def _selection(values, grid: GridSpec, mask=None, rings: int = 0):
    """The values at the unmasked points outside `rings` boundary rings,
    as (kept, counts) read at the stored shape (see grid).

    For a stored column (nx, 1), `kept` holds its entries on the rows that
    keep a point and `counts` how many points each of those rows keeps
    (the row's interior width, or its unmasked points under a grid-shaped
    mask), so np.repeat(kept, counts) is, value for value, the sequence
    that boolean indexing of the expanded grid gives. Any other shape is
    broadcast to the grid and `kept` is that sequence itself, flat in grid
    order, with counts None. The column is never expanded to the grid."""
    nx, ny = grid.shape
    rows, cols = slice(rings, nx - rings), slice(rings, ny - rings)
    values = np.asarray(values)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
    if values.shape == (nx, 1):
        width = max(ny - 2 * rings, 0)
        column = values[rows, 0]
        if mask is None:
            counts = np.full(column.shape, width)
        elif mask.shape == (nx, 1):
            counts = np.where(mask[rows, 0], 0, width)
        else:
            counts = np.count_nonzero(~np.broadcast_to(mask, grid.shape)[rows, cols], axis=1)
        keep = counts > 0
        return column[keep], counts[keep]
    values = np.broadcast_to(values, grid.shape)[rows, cols]
    if mask is None:
        return values.ravel(), None
    return values[~np.broadcast_to(mask, grid.shape)[rows, cols]], None


def _unmasked(values, grid: GridSpec, mask=None) -> np.ndarray:
    """The values at the unmasked points (all points when `mask` is None),
    flat in grid order. `values` and `mask` may be stored columns: a
    column's entries are repeated once per unmasked point of their row
    (see `_selection`), so a sum over the result runs over the same values
    in the same order as over the expanded grid, and keeps its bits."""
    kept, counts = _selection(values, grid, mask)
    return kept if counts is None else np.repeat(kept, counts)


def _masked_count(mask, grid: GridSpec) -> int:
    """The number of grid points that `mask`, stored at any shape that
    broadcasts to the grid, marks."""
    mask = np.asarray(mask, dtype=bool)
    return int(np.count_nonzero(mask)) * (grid.nx * grid.ny // mask.size)


def norms(values, grid: GridSpec, mask=None, rings: int = 0) -> tuple[float, float]:
    """(max |v|, sqrt(sum |v|^2 hx hy)) over the unmasked points outside
    `rings` boundary rings; zeros if there are none.

    `values` and `mask` may be columns, read without expanding them. On a
    column the max is taken over its kept entries, and its squares
    are repeated once per kept point before they are summed: the sum then
    runs over the array that squaring the grid's unmasked values gives,
    so numpy's pairwise summation returns the same bits. (Summing
    count * square per row would not: it rounds differently.)"""
    kept, counts = _selection(np.abs(np.asarray(values)), grid, mask, rings)
    if kept.size == 0:
        return 0.0, 0.0
    squares = np.asarray(kept, dtype=float) ** 2
    if counts is not None:
        squares = np.repeat(squares, counts)
    return float(np.max(kept)), float(np.sqrt(np.sum(squares) * grid.hx * grid.hy))


def worst(*values: float) -> float:
    """The largest of `values`, or NaN if any is NaN; 0 when there are none.

    Python's max keeps its first argument when a comparison with NaN is
    false, so max(1.0, nan) is 1.0 and would hide a broken residual."""
    return float(np.max(values)) if values else 0.0


@dataclass(frozen=True)
class ResidualPart:
    name: str
    max_norm: float
    l2_norm: float


@dataclass(frozen=True)
class ResidualReport:
    grid: GridSpec
    max_norm: float
    l2_norm: float
    masked_points: int
    parts: tuple = ()
    details: dict = dc_field(default_factory=dict)


def joined(grid: GridSpec, masked_points: int, parts, details=None) -> ResidualReport:
    """The report of `parts`, ResidualParts that carry their norms, in their
    order: its max_norm and l2_norm are the worst of the parts' (`worst`).
    `masked_points` counts the row's mask (`_masked_count`), or is the
    count of the report whose parts the row joins."""
    parts = tuple(parts)
    return ResidualReport(grid=grid, max_norm=worst(*(p.max_norm for p in parts)),
                          l2_norm=worst(*(p.l2_norm for p in parts)),
                          masked_points=masked_points, parts=parts, details=details or {})


def report_from_parts(grid: GridSpec, parts, details=None,
                      exclude_rings: int = 0) -> ResidualReport:
    """`joined` of (part_name, values, mask) triples, each normed over its
    mask (see `norms`); values and masks are grid-shaped or columns, read
    at their stored shape. Each part's norms leave out `exclude_rings`
    boundary rings. The masked count is taken over the union mask of all
    parts (boundary-ring exclusion, when requested, is not counted as
    masking).
    """
    out_parts, union = [], None
    for pname, values, mask in parts:
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            union = mask if union is None else union | mask
        out_parts.append(ResidualPart(pname, *norms(values, grid, mask, exclude_rings)))
    return joined(grid, 0 if union is None else _masked_count(union, grid), out_parts, details)
