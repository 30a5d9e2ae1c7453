"""Closed-form inputs: pointwise functions with their analytic derivatives.

A ClosedForm is a formula of z and the guard of its domain. `jet(z,
order)` runs the formula for its Wirtinger jet up to `order`: the value
for order 0, with d and dbar for order 1, with dd, d dbar and dbar dbar
for order 2. Operations that would otherwise fall back to finite
differences read these slots, which is what lets exact solution families
verify identities to machine precision. A sample asks its form for order
0 for its values, and for order 2 for its jet, so a sample whose
derivatives are never read computes none.

`Jet` is the one jet type. It holds the six slots and applies the usual
calculus rules under `+ - * /` and this module's `exp`, `sin`, `cos`,
`sqrt`, `log` and `conj`, which act on plain arrays alike. A formula
written with them runs on a plain array for its values and on a jet for
values and derivatives in one forward-mode pass, and the value slot of
every operation is computed exactly as on the plain path, so the two agree
bit for bit. No symbolic algebra is involved.

`form(fn, guard)` builds a closed form from such a formula of z, `conj`
included, and `diagonal_form` is `form` of a formula of s = z + conj(z).
A field's analytic source is its own jet on the points it stores, made
once at the source's order on first use and kept: `sample` gives the
field the form on those points, and `pointwise`, which derives a field
from fields through one such formula, runs it on their values for the
field's values and once on their sources' jets for its source, so a
derived field's formula is written once. A derivative's jet is slots of
its field's jet (see calculus). Every source starts at `sample`; the
public field constructors take none.

`sample` evaluates a diagonal form, and its guard, on the grid's first
column only, and the field it returns stores that column (see grid).
"""
from typing import Callable, NamedTuple, Optional

import numpy as np

from .grid import ComplexField, GridSpec, RealField, _shared

__all__ = [
    "ClosedForm", "Jet", "sample", "sample_real", "form", "diagonal_form", "pointwise",
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


class ClosedForm(NamedTuple):
    """A formula of z, and the guard of its domain.

    `fn(z)` is written in the operators and this module's functions (see
    `Jet`), so it runs on a plain array for its values and on the seed
    Jet(z, 1, 0, 0, 0, 0) for every slot, and `conj` of the seed is the
    seed of zbar. So each slot is exact, and its bits do not depend on the
    order asked for. domain_guard(z) returns True at singular points;
    sampling masks them. `diagonal` records that the formula, and the
    guard, depend on z only through s = z + conj(z) (set by
    `diagonal_form`): `sample` then evaluates both on the grid's first
    column. `form` and `diagonal_form` build it.
    """

    fn: Callable
    domain_guard: Optional[Callable] = None
    diagonal: bool = False

    def jet(self, z, order: int = 2) -> Jet:
        """The form's jet at z, with every slot up to `order` filled."""
        return _run(self.fn, z, order)


class _Source:
    """A field's analytic source: its Wirtinger jet on the field's stored points.

    The jet is made once, at the source's order, by `make()` with
    floating-point warnings off, on first use, and kept. `jet(k)` returns
    it cut to min(k, order): the kept slot arrays themselves, not copies.
    """

    __slots__ = ("order", "_make", "_jet")

    def __init__(self, order: int, make: Callable):
        self.order = order
        self._make = make
        self._jet = None

    def jet(self, k: int = 2) -> Jet:
        if self._jet is None:
            with np.errstate(all="ignore"):
                self._jet = self._make()
        return Jet(*self._jet.slots()[:(1, 3, 6)[min(k, self.order)]])

    def conj(self) -> "_Source":
        """The source of the conjugate field: the z and zbar slots swap."""
        return _Source(self.order, lambda: conj(self.jet()))


def _broadcast(vals, z) -> np.ndarray:
    """`vals` as complex values of z's shape; a constant, or any other
    shape, becomes a read-only broadcast view, not a copy."""
    a = np.asarray(vals, dtype=complex)
    return a if a.shape == np.shape(z) else np.broadcast_to(a, np.shape(z))


def sample(cf: ClosedForm, grid: GridSpec) -> ComplexField:
    """Evaluate a closed form on a grid; guard-marked points are masked.

    A diagonal form, and its guard, are evaluated on the grid's first
    column, x + 1j*y_min, and the field stores that column. A non-finite
    value at an unguarded point raises NumericalBreakdown. The field's
    source is the form's jet on the same points, of order 2.
    """
    # the first column is computed as zmesh() computes it, bit for bit
    z = grid.xs()[:, None] + 1j * grid.ys()[:1] if cf.diagonal else grid.zmesh()
    vals = cf.jet(z, 0).f
    mask = np.zeros(z.shape, dtype=bool)
    if cf.domain_guard is not None:
        mask |= np.asarray(cf.domain_guard(z), dtype=bool)
    return ComplexField._derived(grid, np.where(mask, 0, vals), mask,
                                 source=_Source(2, lambda: cf.jet(z)))


def sample_real(cf: ClosedForm, grid: GridSpec) -> RealField:
    """Sample a form that must be real-valued; complains about imaginary
    parts above 1e-12 of the largest real part (or of 1).

    The field keeps the sample's source, so derivatives of it are analytic.
    """
    f = sample(cf, grid)
    vals, mask = f.stored
    im = np.abs(vals.imag[~mask])
    scale = max(1.0, float(np.max(np.abs(vals.real[~mask]), initial=0.0)))
    if im.size and np.max(im) > 1e-12 * scale:
        raise ValueError(f"form is not real-valued on the grid (max imag {np.max(im):.3e})")
    return RealField._derived(grid, vals.real.copy(), mask, source=f.source, finite=True)


def pointwise(fn: Callable, *fields, mask=None):
    """The field fn(*fields), computed point by point.

    `fn` is a formula in the operators and this module's functions (see
    `Jet`) that keeps the lowest order of its jet arguments. It runs once
    on the fields' stored values, which must share a grid, for the
    result's values; when every field has an analytic source, the
    result's source runs it once on their jets cut to the lowest of their
    orders. The result is masked on the union of the fields' masks and
    `mask` (grid-shaped or a column), and zero there; it is a column when
    every input is one. It is a ComplexField when `fn` gives complex
    values and a RealField otherwise.
    """
    grid, m = _shared(*fields)
    if mask is not None:
        m = m | mask
    with np.errstate(all="ignore"):
        vals = fn(*(f.stored[0] for f in fields))
    sources = [f.source for f in fields]
    src = None
    if all(s is not None for s in sources):
        k = min(s.order for s in sources)
        src = _Source(k, lambda: fn(*(s.jet(k) for s in sources)))
    cls = ComplexField if np.iscomplexobj(vals) else RealField
    return cls._derived(grid, np.where(m, 0, vals), m, source=src)


# ---------------------------------------------------------------------------
# the builder: a formula of z run on the seed jet of z

def _run(fn, z, order) -> Jet:
    """fn's jet up to `order` at z, broadcast to z's shape. Order 0 runs fn
    on the plain array z, higher orders on the seed Jet(z, 1, 0, 0, 0, 0);
    a result that is a constant has zero derivatives."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):
        out = fn(Jet(z, *(1.0, 0.0, 0.0, 0.0, 0.0)[:(0, 2, 5)[order]]) if order else z)
    slots = out.slots() if isinstance(out, Jet) else (out, 0.0, 0.0, 0.0, 0.0, 0.0)
    return Jet(*(_broadcast(v, z) for v in slots[:(1, 3, 6)[order]]))


def form(fn, guard=None) -> ClosedForm:
    """Closed form given by a formula of z, and the guard of its domain.

    `fn(z)` is a formula in the operators and the functions `exp`, `sin`,
    `cos`, `sqrt`, `log`, `conj` of this module (see `Jet`), `conj`
    included, so every slot of a formula of z and conj(z) is exact.
    `guard(z)`, if given, is True at the points that sampling masks.
    """
    return ClosedForm(fn, guard)


def diagonal_form(fn, guard=None) -> ClosedForm:
    """Closed form depending on z only through s = z + conj(z).

    It is `form` of fn(z + conj(z)): d s = dbar s = 1, so the z and zbar
    slots agree bit for bit and the jet is (f, f', f', f'', f'', f'').
    `guard(s)` is composed the same way, so `sample` runs both on the
    grid's first column only. s is complex with a zero imaginary part,
    which keeps square roots of negative reals on the principal branch.
    """
    def of_s(g):
        return lambda z: g(z + conj(z))

    return ClosedForm(of_s(fn), None if guard is None else of_s(guard), diagonal=True)
