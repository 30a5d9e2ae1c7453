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


def _shift(arr: np.ndarray, k: int, fill) -> np.ndarray:
    """out[i] = arr[i + k] along axis 0, padded with `fill`."""
    out = np.full_like(arr, fill)
    if k == 0:
        out[...] = arr
    elif k > 0:
        out[:-k] = arr[k:]
    else:
        out[-k:] = arr[:k]
    return out


def _d1(values: np.ndarray, valid: np.ndarray, h: float):
    """Second-order first derivative along axis 0 with mask fallback.

    Preference order per point: central, then forward, then backward
    one-sided (both second order). Points with no admissible stencil are
    masked in the output.
    """
    a = lambda k: _shift(values, k, 0)
    ok = lambda k: _shift(valid, k, False)

    central = (a(1) - a(-1)) / (2 * h)
    forward = (-3 * values + 4 * a(1) - a(2)) / (2 * h)
    backward = (3 * values - 4 * a(-1) + a(-2)) / (2 * h)

    can_c = ok(1) & ok(-1)
    can_f = ok(1) & ok(2)
    can_b = ok(-1) & ok(-2)

    out = np.where(can_c, central, np.where(can_f, forward, backward))
    bad = ~(valid & (can_c | can_f | can_b))
    return np.where(bad, 0, out), bad


def _d2(values: np.ndarray, valid: np.ndarray, h: float):
    """Second-order second derivative along axis 0 with mask fallback."""
    a = lambda k: _shift(values, k, 0)
    ok = lambda k: _shift(valid, k, False)

    central = (a(1) - 2 * values + a(-1)) / h**2
    forward = (2 * values - 5 * a(1) + 4 * a(2) - a(3)) / h**2
    backward = (2 * values - 5 * a(-1) + 4 * a(-2) - a(-3)) / h**2

    can_c = ok(1) & ok(-1)
    can_f = ok(1) & ok(2) & ok(3)
    can_b = ok(-1) & ok(-2) & ok(-3)

    out = np.where(can_c, central, np.where(can_f, forward, backward))
    bad = ~(valid & (can_c | can_f | can_b))
    return np.where(bad, 0, out), bad


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
