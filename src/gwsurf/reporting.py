"""Residual reports: norms over unmasked grid points.

Every verification operation returns a ResidualReport: the grid, the max
norm and the grid-weighted L2 norm of one or more residual fields, and
the masked-point count. Its `parts` break a multi-equation residual into
its named components (`part(name)` looks one up), and its `details`
carry operation-specific scalars (variances, flags).
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import GridSpec

__all__ = ["ResidualPart", "ResidualReport", "report_from_parts", "norms", "worst"]

# least accepted residual ratio between refinement levels where second-order
# convergence (ratio 4) is expected
RATIO_MIN = 2.5

# boundary rings a stencil-path residual leaves out: on them a derivative of
# an already-differenced field composes one-sided stencils and drops an order
STENCIL_RINGS = 2


def _unmasked(values, grid: GridSpec, mask=None) -> np.ndarray:
    """The values at the unmasked points (all points when `mask` is None),
    flat in grid order. `values` and `mask` may be stored columns (see
    grid): both are expanded to the grid first, so a sum over the result
    runs over the same values in the same order either way."""
    values = np.broadcast_to(values, grid.shape)
    if mask is None:
        return values.ravel()
    return values[~np.broadcast_to(np.asarray(mask, dtype=bool), grid.shape)]


def norms(values: np.ndarray, grid: GridSpec, mask=None) -> tuple[float, float]:
    """(max |v|, sqrt(sum |v|^2 hx hy)) over unmasked points; zeros if empty.
    `values` and `mask` may be columns (see `_unmasked`)."""
    absvals = _unmasked(np.abs(np.asarray(values)), grid, mask)
    if absvals.size == 0:
        return 0.0, 0.0
    max_norm = float(np.max(absvals))
    l2_norm = float(np.sqrt(np.sum(absvals.astype(float) ** 2) * grid.hx * grid.hy))
    return max_norm, l2_norm


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

    def part(self, name: str) -> ResidualPart:
        for p in self.parts:
            if p.name == name:
                return p
        raise KeyError(name)


def interior_ring_mask(grid: GridSpec, rings: int) -> np.ndarray:
    """Mask that excludes `rings` boundary layers."""
    m = np.zeros(grid.shape, dtype=bool)
    if rings > 0:
        m[:rings, :] = True
        m[-rings:, :] = True
        m[:, :rings] = True
        m[:, -rings:] = True
    return m


def report_from_parts(grid: GridSpec, parts, details=None,
                      exclude_rings: int = 0) -> ResidualReport:
    """Assemble a report from (part_name, values, mask) triples; values
    and masks are grid-shaped or columns (see `norms`).

    The headline max_norm is the largest part max, NaN if any part's is;
    l2_norm likewise. The masked count is taken over the union mask of all
    parts (boundary-ring exclusion, when requested, is not counted as
    masking).
    """
    ring = interior_ring_mask(grid, exclude_rings)
    out_parts = []
    union = np.zeros(grid.shape, dtype=bool)
    for pname, values, mask in parts:
        eff = ring.copy()
        if mask is not None:
            union |= np.asarray(mask, dtype=bool)
            eff |= np.asarray(mask, dtype=bool)
        mx, l2 = norms(values, grid, eff)
        out_parts.append(ResidualPart(pname, mx, l2))
    return ResidualReport(
        grid=grid,
        max_norm=worst(*(p.max_norm for p in out_parts)),
        l2_norm=worst(*(p.l2_norm for p in out_parts)),
        masked_points=int(np.count_nonzero(union)),
        parts=tuple(out_parts),
        details=details or {},
    )
