"""Wirtinger-derivative calculus on grid fields.

d = (d/dx - i d/dy)/2 and dbar = (d/dx + i d/dy)/2 act on fields sampled
over z = x + iy. Finite-difference stencils are second order everywhere:
central in the interior, one-sided at edges and next to masked points, so
boundary rows do not degrade the global O(h^2) error. When a field is
backed by a closed form with analytic derivatives those are used instead,
bypassing discretization error entirely.

Stencils commute with complex conjugation, which keeps identities like
d(conj f) = conj(dbar f) exact in floating point.
"""
from __future__ import annotations

import numpy as np

from .grid import ComplexField, RealField
from .closedform import ClosedForm, sample

__all__ = ["dx", "dy", "dxx", "dyy", "dxy", "d_z", "d_zbar", "mixed_dzbar_dz"]


def _stencil(values: np.ndarray, valid: np.ndarray, central: np.ndarray,
             one_sided, reach: int):
    """A second-order stencil along axis 0 with mask fallback.

    `central` is the central stencil on the interior, values[1:-1]; a point
    keeps it when both its neighbours are valid. Only the other valid
    points (edges and neighbours of masked points) go to
    `one_sided(a, ok)`, where a[k] and ok[k] are the values and validity k
    steps along axis 0 for k in -reach..reach (invalid off the grid); it
    returns (forward, can_forward, backward, can_backward). Preference
    order per point: central, then forward, then backward. Points with no
    admissible stencil are masked in the output.
    """
    n = len(values)
    out = np.zeros_like(values, dtype=central.dtype)
    out[1:-1] = central
    has_central = np.zeros_like(valid)
    has_central[1:-1] = valid[2:] & valid[:-2]
    bad = ~valid

    idx = np.nonzero(valid & ~has_central)
    a, ok = {}, {}
    for k in range(-reach, reach + 1):
        i = idx[0] + k
        at = (np.clip(i, 0, n - 1),) + idx[1:]
        a[k] = values[at]
        ok[k] = valid[at] & (i >= 0) & (i < n)
    forward, can_f, backward, can_b = one_sided(a, ok)
    out[idx] = np.where(can_f, forward, backward)
    bad[idx] = ~(can_f | can_b)
    out[bad] = 0
    return out, bad


def _d1(values: np.ndarray, valid: np.ndarray, h: float):
    """Second-order first derivative along axis 0 with mask fallback."""
    def one_sided(a, ok):
        return ((-3 * a[0] + 4 * a[1] - a[2]) / (2 * h), ok[1] & ok[2],
                (3 * a[0] - 4 * a[-1] + a[-2]) / (2 * h), ok[-1] & ok[-2])

    return _stencil(values, valid, (values[2:] - values[:-2]) / (2 * h), one_sided, 2)


def _d2(values: np.ndarray, valid: np.ndarray, h: float):
    """Second-order second derivative along axis 0 with mask fallback."""
    def one_sided(a, ok):
        return ((2 * a[0] - 5 * a[1] + 4 * a[2] - a[3]) / h**2, ok[1] & ok[2] & ok[3],
                (2 * a[0] - 5 * a[-1] + 4 * a[-2] - a[-3]) / h**2, ok[-1] & ok[-2] & ok[-3])

    central = (values[2:] - 2 * values[1:-1] + values[:-2]) / h**2
    return _stencil(values, valid, central, one_sided, 3)


def _axis_apply(op, field, h, axis):
    vals = np.moveaxis(field.values, axis, 0)
    valid = np.moveaxis(~field.mask, axis, 0)
    out, bad = op(vals, valid, h)
    return np.moveaxis(out, 0, axis), np.moveaxis(bad, 0, axis)


def _cumulative_trapezoid(y: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Running composite-trapezoid integral along `axis`, zero at index 0.

    Evaluates h * (y[k+1] + y[k]) / 2.0 and sums in index order, the same
    expression order as scipy.integrate.cumulative_trapezoid(y, dx=h,
    axis=axis, initial=0), so the two agree bit for bit.
    """
    y = np.moveaxis(np.asarray(y), axis, 0)
    steps = np.cumsum(h * (y[1:] + y[:-1]) / 2.0, axis=0)
    zero = np.zeros((1,) + steps.shape[1:], dtype=steps.dtype)
    return np.moveaxis(np.concatenate([zero, steps]), 0, axis)


def _wrap(field, vals, mask):
    cls = RealField if isinstance(field, RealField) else ComplexField
    return cls(field.grid, np.where(mask, 0, vals), mask)


def dx(field):
    vals, bad = _axis_apply(_d1, field, field.grid.hx, 0)
    return _wrap(field, vals, bad)


def dy(field):
    vals, bad = _axis_apply(_d1, field, field.grid.hy, 1)
    return _wrap(field, vals, bad)


def dxx(field):
    vals, bad = _axis_apply(_d2, field, field.grid.hx, 0)
    return _wrap(field, vals, bad)


def dyy(field):
    vals, bad = _axis_apply(_d2, field, field.grid.hy, 1)
    return _wrap(field, vals, bad)


def dxy(field):
    return dy(dx(field))


def _fd_wirtinger(field, sign: float) -> ComplexField:
    gx, bx = _axis_apply(_d1, field, field.grid.hx, 0)
    gy, by = _axis_apply(_d1, field, field.grid.hy, 1)
    vals = 0.5 * (gx + sign * 1j * gy)
    mask = bx | by
    return ComplexField(field.grid, np.where(mask, 0, vals), mask)


def _analytic(field, which: str):
    src = getattr(field, "source", None)
    if src is None:
        return None
    deriv = src.derivative(which)
    if deriv is None:
        return None
    out = sample(deriv, field.grid, extra_mask=field.mask)
    return out


def d_z(field) -> ComplexField:
    """Wirtinger derivative d/dz; analytic when the field's source provides it."""
    out = _analytic(field, "z")
    return out if out is not None else _fd_wirtinger(field, -1.0)


def d_zbar(field) -> ComplexField:
    """Wirtinger derivative d/dzbar; analytic when available."""
    out = _analytic(field, "zbar")
    return out if out is not None else _fd_wirtinger(field, +1.0)


def mixed_dzbar_dz(field) -> ComplexField:
    """dbar(d f); equals a quarter Laplacian on the finite-difference path."""
    src = getattr(field, "source", None)
    if src is not None and src.dzdzbar is not None:
        mixed = ClosedForm(value=src.dzdzbar, domain_guard=src.domain_guard)
        return sample(mixed, field.grid, extra_mask=field.mask)
    return d_zbar(d_z(field))
