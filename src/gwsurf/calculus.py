"""Wirtinger-derivative calculus on grid fields.

d = (d/dx - i d/dy)/2 and dbar = (d/dx + i d/dy)/2 act on fields sampled
over z = x + iy. Finite-difference stencils are second order everywhere:
central in the interior, one-sided at edges and next to masked points, so
boundary rows do not degrade the global O(h^2) error. The central stencil
runs on whole slices; only the points that fall back to a one-sided
stencil gather their windows along the axis, one fancy index for the
values and one for the validity, so a stencil makes a fixed number of
numpy calls whatever the mask. When a field has an analytic source (its
jet, see closedform), d_z and d_zbar read the jet's slot instead,
bypassing discretization error entirely, and the result's jet is the
derivative of that jet, the same slot arrays. The first-derivative
stencils of a field are computed once per axis and kept on the field, so
d_z, d_zbar, dx and dy of one field share them.

A compact field (one stored as a single column, see grid) stays one:
d/dx is the stencil on its column, and d/dy and d^2/dy^2 are exact zeros
under the field's own mask, which the stencils would give on the
expanded grid up to the round-off of the one-sided edge stencils.

Stencils commute with complex conjugation, which keeps identities like
d(conj f) = conj(dbar f) exact in floating point.
"""
import numpy as np

from .grid import ComplexField, RealField
from .closedform import Jet, _Source

__all__ = ["dx", "dy", "dxx", "dyy", "d_z", "d_zbar", "mixed_dzbar_dz"]


def _windows(values: np.ndarray, valid: np.ndarray, idx: tuple, reach: int):
    """(a, ok): the values and validity k steps along axis 0 from the
    points `idx`, for k in -reach..reach, invalid off the grid. Row k of
    each holds offset k: rows 0..reach, then -reach..-1, so a[-1] is one
    step back. The window index is clamped to the grid once and read with
    one fancy index per array; it is freed on return, before the caller's
    arithmetic."""
    n = len(values)
    i = np.array([*range(reach + 1), *range(-reach, 0)])[:, None] + idx[0]
    on_grid = (i >= 0) & (i < n)
    # two ufuncs in place: np.clip's wrapper costs more on a short column
    np.minimum(np.maximum(i, 0, out=i), n - 1, out=i)
    at = (i,) + idx[1:]
    return values[at], valid[at] & on_grid


def _stencil(values: np.ndarray, valid: np.ndarray, central: np.ndarray,
             one_sided, reach: int):
    """A second-order stencil along axis 0 with mask fallback.

    `central` is the central stencil on the interior, values[1:-1]; a point
    keeps it when both its neighbours are valid. Only the other valid
    points (edges and neighbours of masked points) go to
    `one_sided(a, ok)`, with their ±reach windows from `_windows`; it
    returns (forward, can_forward, backward, can_backward). Preference
    order per point: central, then forward, then backward. Points with no
    admissible stencil are masked in the output.
    """
    # every point is written below: the central stencil, a fallback or 0
    out = np.empty_like(values, dtype=central.dtype)
    out[1:-1] = central
    fallback = valid.copy()
    fallback[1:-1] &= ~(valid[2:] & valid[:-2])

    # a flat search finds the points in np.nonzero's row-major order, and
    # reads fallback in place, a C-contiguous copy; on a 251x251 grid it
    # takes a fifth of the 2-D np.nonzero's time (a microsecond more on a
    # short column)
    idx = np.unravel_index(np.flatnonzero(fallback), fallback.shape)
    forward, can_f, backward, can_b = one_sided(*_windows(values, valid, idx, reach))
    out[idx] = np.where(can_f, forward, backward)
    bad = ~valid
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
    values, mask = field.stored
    if values.shape[axis] == 1:     # a column, constant along y
        return np.zeros_like(values), mask
    if axis == 0:
        return op(values, ~mask, h)
    # stored arrays are 2-D, so .T puts axis 1 first
    out, bad = op(values.T, ~mask.T, h)
    return out.T, bad.T


def _integrate_from(values: np.ndarray, mask: np.ndarray, h: float, axis: int,
                    k0: int) -> tuple[np.ndarray, np.ndarray]:
    """(integral, crossed): the composite-trapezoid integral of `values`
    along `axis`, zero at index k0, and where its path from k0 passes a
    masked point (k0 and the target included, on either side of k0).

    The running sum evaluates h * (y[k+1] + y[k]) / 2.0 and sums in index
    order from index 0, the same expression order as
    scipy.integrate.cumulative_trapezoid(y, dx=h, axis=axis, initial=0),
    so at k0 = 0 the two agree bit for bit.
    """
    y = np.moveaxis(np.asarray(values), axis, 0)
    bad = np.moveaxis(np.asarray(mask, dtype=bool), axis, 0)
    steps = h * (y[1:] + y[:-1]) / 2.0
    # one array laid out like the steps, and so like `values`: the running
    # sum fills it after a zero row and the value at k0 is taken off in place
    total = np.empty_like(steps, shape=y.shape)
    total[0] = 0
    np.cumsum(steps, axis=0, out=total[1:])
    total -= total[k0]
    crossed = np.zeros_like(bad)
    crossed[k0:] = np.logical_or.accumulate(bad[k0:], axis=0)
    crossed[: k0 + 1] |= np.logical_or.accumulate(bad[k0::-1], axis=0)[::-1]
    return np.moveaxis(total, 0, axis), np.moveaxis(crossed, 0, axis)


def _wrap(field, vals, mask):
    # the stencils zero the points they mask
    cls = RealField if isinstance(field, RealField) else ComplexField
    return cls._derived(field.grid, vals, mask)


def _gradient(field, axis: int):
    """(d/dx or d/dy stencil, its mask) of a field, for axis 0 or 1.

    Fields are immutable, so each axis is differenced at most once per
    field; the result is kept in the field's memo, keyed by the axis.
    """
    got = field._memo.get(axis)
    if got is None:
        h = field.grid.hx if axis == 0 else field.grid.hy
        got = _axis_apply(_d1, field, h, axis)
        for arr in got:
            arr.setflags(write=False)
        field._memo[axis] = got
    return got


def _once(derivative, field):
    """derivative(field) for a field that no other derivative reads: the
    stencils it computes go with the result instead of staying on `field`."""
    return derivative(field._derived(field.grid, *field.stored, source=field.source,
                                     finite=True))


def dx(field):
    return _wrap(field, *_gradient(field, 0))


def dy(field):
    return _wrap(field, *_gradient(field, 1))


def dxx(field):
    return _wrap(field, *_axis_apply(_d2, field, field.grid.hx, 0))


def dyy(field):
    return _wrap(field, *_axis_apply(_d2, field, field.grid.hy, 1))


def _fd_wirtinger(field, sign: float) -> ComplexField:
    gx, bx = _gradient(field, 0)
    gy, by = _gradient(field, 1)
    mask = bx | by
    vals = np.where(mask, 0, 0.5 * (gx + sign * 1j * gy))
    return ComplexField._derived(field.grid, vals, mask)


def _derivative(j, i) -> Jet:
    """The jet of d_i f from f's jet j (its third-order slots are unknown)."""
    return Jet(j.d[i], *j.dd[i:i + 2])


def _analytic(field, i):
    """d_z (i = 0) or d_zbar (i = 1) as a slot of the field's jet; None
    unless the field has a source of order 1 or more."""
    src = getattr(field, "source", None)
    if src is None or src.order == 0:
        return None
    mask = field.stored[1]
    deriv = _Source(src.order - 1, lambda: _derivative(src.jet(), i))
    return ComplexField._derived(field.grid, np.where(mask, 0, deriv.jet(0).f), mask,
                                 source=deriv)


def d_z(field) -> ComplexField:
    """Wirtinger derivative d/dz; analytic when the field's source provides it."""
    out = _analytic(field, 0)
    return out if out is not None else _fd_wirtinger(field, -1.0)


def d_zbar(field) -> ComplexField:
    """Wirtinger derivative d/dzbar; analytic when available."""
    out = _analytic(field, 1)
    return out if out is not None else _fd_wirtinger(field, +1.0)


def mixed_dzbar_dz(field) -> ComplexField:
    """dbar(d f); equals a quarter Laplacian on the finite-difference path."""
    return d_zbar(d_z(field))
