"""Closed-form inputs: pointwise functions with their analytic derivatives.

A ClosedForm is a function z -> complex given by one callable,
`jet(z, order)`, which returns its Wirtinger jet up to `order`: the value
for order 0, with d and dbar for order 1, with dd, d dbar and dbar dbar
for order 2. Each form states the highest order it supplies. Operations
that would otherwise fall back to finite differences read these slots,
which is what lets exact solution families verify identities to machine
precision; each caller asks for the order it needs, so a value-only
sample computes no derivative.

`Jet` is the one jet type. It holds the six slots and applies the usual
calculus rules under `+ - * /` and this module's `exp`, `sin`, `cos`,
`sqrt`, `log` and `conj`, which act on plain arrays alike. A formula
written with them runs on a plain array for its values and on a jet for
values and derivatives in one forward-mode pass, and the value slot of
every operation is computed exactly as on the plain path, so the two agree
bit for bit. No symbolic algebra is involved.

`diagonal_form` and `holomorphic_form` build closed forms from such
formulas of one variable, run on a seed jet in that variable; `lift`
combines closed forms through a formula of their jets. `pointwise` derives
a field from fields through one such formula: it runs on their values for
the field's values and, lifted over their sources, for its analytic
source, so a derived field's formula is written once.

A form built by `lift` runs its jet operation once per call on its
inputs' jets, so nesting lifts costs time linear in the depth. A diagonal
form (one that depends on z only through s = z + conj(z)) runs once per
distinct abscissa of a grid mesh and broadcasts along y.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grid import ComplexField, GridSpec, RealField

__all__ = [
    "ClosedForm", "Jet", "sample", "sample_real",
    "diagonal_form", "holomorphic_form", "constant_form",
    "lift", "pointwise", "field_mul", "jet_dz", "jet_dzbar",
    "exp", "sin", "cos", "sqrt", "log", "conj",
]


class Jet:
    """Second-order Wirtinger jet (f, d f, dbar f, dd f, d dbar f, dbar dbar f).

    A jet of order k fills the slots up to order k; the others are None.
    Arithmetic with jets and with constants (numbers, numpy scalars and
    arrays) follows the rules of forward-mode differentiation (Griewank &
    Walther, Evaluating Derivatives, ch. 13), and the result has the lowest
    order among its jet operands. The z slots are computed as in one
    variable, the zbar slots mirror them and the mixed slot groups its two
    cross terms, so on a diagonal jet (d = dbar) both first slots agree bit
    for bit, and so do all three second slots.
    """

    __slots__ = ("f", "fz", "fzb", "fzz", "fzzb", "fzbzb")
    __array_ufunc__ = None      # numpy operands defer to the reflected operators

    def __init__(self, f, fz=None, fzb=None, fzz=None, fzzb=None, fzbzb=None):
        self.f = f
        self.fz = fz
        self.fzb = fzb
        self.fzz = fzz
        self.fzzb = fzzb
        self.fzbzb = fzbzb

    @property
    def order(self) -> int:
        return 0 if self.fz is None else 1 if self.fzz is None else 2

    def slots(self) -> tuple:
        """The slots up to the jet's order."""
        every = (self.f, self.fz, self.fzb, self.fzz, self.fzzb, self.fzbzb)
        return every[:(1, 3, 6)[self.order]]

    @property
    def d(self) -> tuple:
        """(d f, dbar f): first slot i, for i = 0 (z) or 1 (zbar)."""
        return (self.fz, self.fzb)

    @property
    def dd(self) -> tuple:
        """The second slots; d_i d_j f is dd[i + j]."""
        return (self.fzz, self.fzzb, self.fzbzb)

    def __add__(self, o):
        if isinstance(o, Jet):
            return Jet(*(x + y for x, y in zip(self.slots(), o.slots())))
        return Jet(self.f + o, *self.slots()[1:])

    def __radd__(self, o):
        return Jet(o + self.f, *self.slots()[1:])

    def __sub__(self, o):
        if isinstance(o, Jet):
            return Jet(*(x - y for x, y in zip(self.slots(), o.slots())))
        return Jet(self.f - o, *self.slots()[1:])

    def __rsub__(self, o):
        return Jet(o - self.f, *(-x for x in self.slots()[1:]))

    def __neg__(self):
        return Jet(*(-x for x in self.slots()))

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return Jet(*(x * o for x in self.slots()))
        a, b = self, o
        return _rule(min(a.order, b.order), a.f * b.f,
                     lambda i: a.d[i] * b.f + a.f * b.d[i],
                     lambda i, j, d: (a.dd[i + j] * b.f + _cross(a.d, b.d, i, j)
                                      + a.f * b.dd[i + j]))

    def __rmul__(self, o):
        return Jet(*(o * x for x in self.slots()))

    def __truediv__(self, o):
        if not isinstance(o, Jet):
            return Jet(*(x / o for x in self.slots()))
        # q = a/b: d q = (d a - q d b)/b, d d q = (d d a - 2 d q d b - q d d b)/b
        a, b = self, o
        q = a.f / b.f
        return _rule(min(a.order, b.order), q,
                     lambda i: (a.d[i] - q * b.d[i]) / b.f,
                     lambda i, j, d: (a.dd[i + j] - _cross(d, b.d, i, j) - q * b.dd[i + j]) / b.f)

    def __rtruediv__(self, o):
        q = o / self.f
        return _rule(self.order, q,
                     lambda i: -q * self.d[i] / self.f,
                     lambda i, j, d: -(_cross(d, self.d, i, j) + q * self.dd[i + j]) / self.f)


def _cross(x, y, i, j):
    """x_i y_j + x_j y_i, written 2 x_i y_i when i == j as in one variable."""
    return 2 * x[i] * y[i] if i == j else x[i] * y[j] + x[j] * y[i]


def _rule(order, f, first, second) -> Jet:
    """The jet of `order` with value f, first slots first(i) and second
    slots second(i, j, d), where d holds the first slots; i, j are 0 for z
    and 1 for zbar."""
    if order == 0:
        return Jet(f)
    d = (first(0), first(1))
    if order == 1:
        return Jet(f, *d)
    return Jet(f, *d, second(0, 0, d), second(0, 1, d), second(1, 1, d))


def jet_dz(a: Jet) -> Jet:
    """Jet of the z-derivative (third-order slots are unknown)."""
    return Jet(a.fz, a.fzz, a.fzzb) if a.fz is not None else None


def jet_dzbar(a: Jet) -> Jet:
    """Jet of the zbar-derivative (third-order slots are unknown)."""
    return Jet(a.fzb, a.fzzb, a.fzbzb) if a.fzb is not None else None


def exp(t):
    if not isinstance(t, Jet):
        return np.exp(t)
    e = np.exp(t.f)
    return _rule(t.order, e, lambda i: e * t.d[i],
                 lambda i, j, d: e * (t.dd[i + j] + t.d[i] * t.d[j]))


def sin(t):
    if not isinstance(t, Jet):
        return np.sin(t)
    s, c = np.sin(t.f), np.cos(t.f)
    return _rule(t.order, s, lambda i: c * t.d[i],
                 lambda i, j, d: c * t.dd[i + j] - s * (t.d[i] * t.d[j]))


def cos(t):
    if not isinstance(t, Jet):
        return np.cos(t)
    s, c = np.sin(t.f), np.cos(t.f)
    return _rule(t.order, c, lambda i: -s * t.d[i],
                 lambda i, j, d: -s * t.dd[i + j] - c * (t.d[i] * t.d[j]))


def sqrt(t):
    if not isinstance(t, Jet):
        return np.sqrt(t)
    r = np.sqrt(t.f)
    return _rule(t.order, r, lambda i: t.d[i] / (2.0 * r),
                 lambda i, j, d: (t.dd[i + j] - 2.0 * d[i] * d[j]) / (2.0 * r))


def log(t):
    if not isinstance(t, Jet):
        return np.log(t)
    return _rule(t.order, np.log(t.f), lambda i: t.d[i] / t.f,
                 lambda i, j, d: (t.dd[i + j] - t.d[i] * d[j]) / t.f)


def conj(t):
    """Complex conjugate; on a jet it swaps the z and zbar slots."""
    if not isinstance(t, Jet):
        return np.conj(t)
    swapped = (t.f, t.fzb, t.fz, t.fzbzb, t.fzzb, t.fzz)
    return Jet(*map(np.conj, swapped[:len(t.slots())]))


@dataclass(frozen=True)
class ClosedForm:
    """A pure function z -> complex and its Wirtinger jet up to `order`.

    `jet_fn(z, order)` returns the `Jet` of the form at z with every slot
    up to `order` (0, 1 or 2) filled and the slots above it None; it is
    never asked for more than the form's own `order`. Every slot must
    agree with finite differences of the value to O(h^2) on the
    guard-admissible region, and a slot's bits must not depend on the
    order asked for. domain_guard(z) returns True at singular points;
    sampling masks them. `diagonal` records that every slot depends on z
    only through s = z + conj(z) (set by `diagonal_form`, kept by
    `conjugate`, `derivative` and by `lift` of diagonal inputs): on a grid
    mesh `jet` then evaluates one column and broadcasts it.
    """

    jet_fn: Callable = field(repr=False)
    order: int = 0
    domain_guard: Optional[Callable] = None
    diagonal: bool = False

    def jet(self, z, order: int = 2) -> Jet:
        """Slots up to `order`, or up to the form's own order if that is lower."""
        order = min(order, self.order)
        if self.diagonal:
            column = _mesh_column(z)
            if column.shape != np.shape(z):
                return Jet(*(_broadcast(v, z) for v in self.jet_fn(column, order).slots()))
        return self.jet_fn(z, order)

    def conjugate(self) -> "ClosedForm":
        return ClosedForm(lambda z, order: conj(self.jet(z, order)),
                          self.order, self.domain_guard, self.diagonal)

    def derivative(self, which: str) -> Optional["ClosedForm"]:
        """First-derivative form ('z' or 'zbar'), or None at order 0."""
        if which not in ("z", "zbar"):
            raise ValueError(which)
        step = jet_dz if which == "z" else jet_dzbar
        if self.order == 0:
            return None
        return ClosedForm(lambda z, order: step(self.jet(z, order + 1)),
                          self.order - 1, self.domain_guard, self.diagonal)


def lift(op: Callable, *forms: ClosedForm) -> ClosedForm:
    """Combine closed forms through a jet operation.

    `op` maps input jets to an output jet; its order is that of the jet
    `op` returns when it runs once on placeholder jets of the inputs'
    orders. Jet arithmetic keeps the lowest order of its operands and
    `jet_dz` lowers it by one, so asking the result for order k asks
    every input for k plus the order the result gave up against it. Each
    distinct input is evaluated once per call and `op` runs once on their
    jets, so nesting lifts costs time linear in the depth. When every
    input is diagonal, so is the result, and on a grid mesh the inputs and
    `op` run on one column.
    """
    order = op(*(Jet(*[1.0 + 0.0j] * (1, 3, 6)[f.order]) for f in forms)).order
    # an input passed more than once, as in lift(operator.mul, f, f), is evaluated once
    first = {}
    picks = [first.setdefault(id(f), len(first)) for f in forms]
    distinct = list({id(f): f for f in forms}.values())
    guards = [f.domain_guard for f in distinct if f.domain_guard is not None]

    def guard(z):
        g = guards[0](z)
        for extra in guards[1:]:
            g = np.logical_or(g, extra(z))
        return g

    def jet_fn(z, k):
        jets = [f.jet(z, max(f.order - order + k, 0)) for f in distinct]
        return op(*[jets[i] for i in picks])

    return ClosedForm(jet_fn, order, guard if guards else None,
                      all(f.diagonal for f in distinct))


def _broadcast(vals, z) -> np.ndarray:
    a = np.asarray(vals, dtype=complex)
    shape = np.shape(z)
    if a.shape != shape:
        a = np.broadcast_to(a, shape).copy()
    return a


def sample(cf: ClosedForm, grid: GridSpec, extra_mask=None) -> ComplexField:
    """Evaluate a closed form on a grid; guard-marked points are masked.

    A non-finite value at an unguarded point raises NumericalBreakdown.
    """
    z = grid.zmesh()
    with np.errstate(all="ignore"):
        vals = _broadcast(cf.jet(z, 0).f, z)
    mask = np.zeros(grid.shape, dtype=bool)
    if cf.domain_guard is not None:
        mask |= np.asarray(cf.domain_guard(z), dtype=bool)
    if extra_mask is not None:
        mask |= np.asarray(extra_mask, dtype=bool)
    return ComplexField._derived(grid, np.where(mask, 0, vals), mask, source=cf)


def sample_real(cf: ClosedForm, grid: GridSpec, extra_mask=None,
                imag_tol: float = 1e-12) -> RealField:
    """Sample a form that must be real-valued; complains about imaginary parts.

    The field keeps `cf` as its source, so derivatives of it are analytic.
    """
    f = sample(cf, grid, extra_mask=extra_mask)
    im = np.abs(f.values.imag[~f.mask])
    scale = max(1.0, float(np.max(np.abs(f.values.real[~f.mask]), initial=0.0)))
    if im.size and np.max(im) > imag_tol * scale:
        raise ValueError(f"form is not real-valued on the grid (max imag {np.max(im):.3e})")
    return RealField._derived(grid, f.values.real.copy(), f.mask, source=cf, finite=True)


def pointwise(fn: Callable, *fields, mask=None):
    """The field fn(*fields), computed point by point.

    `fn` is a formula in the operators and this module's functions (see
    `Jet`). It runs once on the fields' values, which must share a grid,
    for the result's values; when every field has an analytic source, the
    result's source is `lift(fn, *sources)`, so the values and the source
    come from the one formula. The result is masked on the union of the
    fields' masks and `mask`, and zero there; it is a ComplexField when
    `fn` gives complex values and a RealField otherwise.
    """
    grid = fields[0].grid
    if any(f.grid != grid for f in fields[1:]):
        raise ValueError("fields live on different grids")
    m = fields[0].mask
    for extra in [f.mask for f in fields[1:]] + ([] if mask is None else [mask]):
        m = m | extra
    with np.errstate(all="ignore"):
        vals = fn(*(f.values for f in fields))
    sources = [f.source for f in fields]
    src = None if any(s is None for s in sources) else lift(fn, *sources)
    cls = ComplexField if np.iscomplexobj(vals) else RealField
    return cls._derived(grid, np.where(m, 0, vals), m, source=src)


def field_mul(a: ComplexField, b: ComplexField) -> ComplexField:
    """Pointwise product; analytic sources are combined when both exist."""
    return pointwise(operator.mul, a, b)


# ---------------------------------------------------------------------------
# builders that run formulas of one variable on seed jets

def _run(fn, t, seed, order, z) -> Jet:
    """fn's jet up to `order` at t, where t's derivative slots are `seed`,
    broadcast to z's shape. Order 0 runs fn on the plain array t; a result
    that is a constant has zero derivatives."""
    with np.errstate(all="ignore"):
        out = fn(Jet(t, *seed[:(0, 2, 5)[order]]) if order else t)
    slots = out.slots() if isinstance(out, Jet) else (out, 0.0, 0.0, 0.0, 0.0, 0.0)
    return Jet(*(_broadcast(v, z) for v in slots[:(1, 3, 6)[order]]))


def diagonal_form(fn, guard=None) -> ClosedForm:
    """Closed form depending on z only through s = z + conj(z).

    `fn(s)` is a formula in the operators and the functions `exp`, `sin`,
    `cos`, `sqrt`, `log`, `conj` of this module (see `Jet`). All Wirtinger
    derivatives collapse to d/ds, which is what makes the one-dimensional
    solution families exactly differentiable: the jet is (f, f', f', f'',
    f'', f''), from one run of `fn` on the seed Jet(s, 1, 1, 0, 0, 0) per
    grid column.
    """
    def jet_fn(z, order):
        # complex-typed s keeps square roots of negative reals on the
        # principal branch instead of collapsing to nan
        s = (2.0 * np.real(z)).astype(complex)
        return _run(fn, s, (1.0, 1.0, 0.0, 0.0, 0.0), order, z)

    return ClosedForm(jet_fn, 2, guard, diagonal=True)


def _mesh_column(z) -> np.ndarray:
    """The first column of z when z is a grid mesh, else z itself.

    A grid mesh is 2-D with every row of bitwise constant real part, so a
    function of s = z + conj(z) takes bitwise the same inputs, hence the
    same values, on every column.
    """
    z = np.asarray(z)
    if z.ndim == 2:
        x = np.real(z)
        bits = x.view(f"u{x.itemsize}")
        if (bits == bits[:, :1]).all():
            return z[:, :1]
    return z


def holomorphic_form(fn, guard=None) -> ClosedForm:
    """Closed form holomorphic in z; the dbar slots vanish.

    `fn(z)` is a formula as for `diagonal_form` without `conj`; on the seed
    Jet(z, 1, 0, 0, 0, 0) it gives the complex derivatives d/dz and
    d^2/dz^2, and its dbar slots stay zero.
    """
    def jet_fn(z, order):
        return _run(fn, np.asarray(z, dtype=complex), (1.0, 0.0, 0.0, 0.0, 0.0), order, z)

    return ClosedForm(jet_fn, 2, guard)


def constant_form(c) -> ClosedForm:
    c = complex(c)
    return holomorphic_form(lambda z: c)
