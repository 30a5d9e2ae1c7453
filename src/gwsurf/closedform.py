"""Closed-form inputs: pointwise callables with optional analytic derivatives.

A ClosedForm is a function z -> complex together with optional callables
for its Wirtinger derivatives up to second order. Operations that would
otherwise fall back to finite differences use these callables, which is
what lets exact solution families verify identities to machine precision.

The Jet type implements second-order Wirtinger "jets" (value plus the
derivatives d, dbar, dd, d dbar, dbar dbar) with the usual calculus rules,
so derived quantities (quotients, square roots, products) keep analytic
derivatives without any symbolic machinery at evaluation time. Missing
derivative slots propagate as None.

A form built by `lift` evaluates its whole jet in one pass: the jet
operation runs once on its inputs' jets and every slot callable reads
from that result, so nesting lifts costs time linear in the depth.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import sympy as sp

from .grid import ComplexField, GridSpec, RealField

__all__ = [
    "ClosedForm", "Jet", "sample", "sample_real",
    "diagonal_form", "holomorphic_form", "constant_form",
    "lift", "field_mul", "jet_mul", "jet_div", "jet_conj", "jet_sqrt",
    "jet_log", "jet_add", "jet_sub", "jet_scale", "jet_dz",
]


class Jet:
    """Second-order Wirtinger jet; any slot past the value may be None."""

    __slots__ = ("f", "fz", "fzb", "fzz", "fzzb", "fzbzb")

    def __init__(self, f, fz=None, fzb=None, fzz=None, fzzb=None, fzbzb=None):
        self.f = f
        self.fz = fz
        self.fzb = fzb
        self.fzz = fzz
        self.fzzb = fzzb
        self.fzbzb = fzbzb


def _have(*xs) -> bool:
    return all(x is not None for x in xs)


def jet_conj(a: Jet) -> Jet:
    # conj swaps the z and zbar slots: d(conj f) = conj(dbar f), etc.
    c = np.conj
    return Jet(
        c(a.f),
        c(a.fzb) if a.fzb is not None else None,
        c(a.fz) if a.fz is not None else None,
        c(a.fzbzb) if a.fzbzb is not None else None,
        c(a.fzzb) if a.fzzb is not None else None,
        c(a.fzz) if a.fzz is not None else None,
    )


def jet_add(a: Jet, b: Jet) -> Jet:
    pair = lambda x, y: x + y if _have(x, y) else None
    return Jet(a.f + b.f, pair(a.fz, b.fz), pair(a.fzb, b.fzb),
               pair(a.fzz, b.fzz), pair(a.fzzb, b.fzzb), pair(a.fzbzb, b.fzbzb))


def jet_sub(a: Jet, b: Jet) -> Jet:
    pair = lambda x, y: x - y if _have(x, y) else None
    return Jet(a.f - b.f, pair(a.fz, b.fz), pair(a.fzb, b.fzb),
               pair(a.fzz, b.fzz), pair(a.fzzb, b.fzzb), pair(a.fzbzb, b.fzbzb))


def jet_scale(c, a: Jet) -> Jet:
    s = lambda x: c * x if x is not None else None
    return Jet(c * a.f, s(a.fz), s(a.fzb), s(a.fzz), s(a.fzzb), s(a.fzbzb))


def jet_mul(a: Jet, b: Jet) -> Jet:
    fz = a.fz * b.f + a.f * b.fz if _have(a.fz, b.fz) else None
    fzb = a.fzb * b.f + a.f * b.fzb if _have(a.fzb, b.fzb) else None
    fzz = (a.fzz * b.f + 2 * a.fz * b.fz + a.f * b.fzz
           if _have(a.fzz, b.fzz, a.fz, b.fz) else None)
    fzzb = (a.fzzb * b.f + a.fz * b.fzb + a.fzb * b.fz + a.f * b.fzzb
            if _have(a.fzzb, b.fzzb, a.fz, a.fzb, b.fz, b.fzb) else None)
    fzbzb = (a.fzbzb * b.f + 2 * a.fzb * b.fzb + a.f * b.fzbzb
             if _have(a.fzbzb, b.fzbzb, a.fzb, b.fzb) else None)
    return Jet(a.f * b.f, fz, fzb, fzz, fzzb, fzbzb)


def jet_inv(a: Jet) -> Jet:
    g = 1.0 / a.f
    g2 = g * g
    fz = -a.fz * g2 if a.fz is not None else None
    fzb = -a.fzb * g2 if a.fzb is not None else None
    g3 = g2 * g
    fzz = (2 * a.fz ** 2 - a.f * a.fzz) * g3 if _have(a.fz, a.fzz) else None
    fzzb = (2 * a.fz * a.fzb - a.f * a.fzzb) * g3 if _have(a.fz, a.fzb, a.fzzb) else None
    fzbzb = (2 * a.fzb ** 2 - a.f * a.fzbzb) * g3 if _have(a.fzb, a.fzbzb) else None
    return Jet(g, fz, fzb, fzz, fzzb, fzbzb)


def jet_div(a: Jet, b: Jet) -> Jet:
    return jet_mul(a, jet_inv(b))


def jet_log(a: Jet) -> Jet:
    g = 1.0 / a.f
    fz = a.fz * g if a.fz is not None else None
    fzb = a.fzb * g if a.fzb is not None else None
    fzz = a.fzz * g - (a.fz * g) ** 2 if _have(a.fz, a.fzz) else None
    fzzb = a.fzzb * g - a.fz * a.fzb * g * g if _have(a.fz, a.fzb, a.fzzb) else None
    fzbzb = a.fzbzb * g - (a.fzb * g) ** 2 if _have(a.fzb, a.fzbzb) else None
    return Jet(np.log(a.f), fz, fzb, fzz, fzzb, fzbzb)


def jet_sqrt(a: Jet) -> Jet:
    s = np.sqrt(a.f)
    inv2s = 1.0 / (2.0 * s)
    fz = a.fz * inv2s if a.fz is not None else None
    fzb = a.fzb * inv2s if a.fzb is not None else None
    inv4s3 = 1.0 / (4.0 * s ** 3)
    fzz = a.fzz * inv2s - a.fz ** 2 * inv4s3 if _have(a.fz, a.fzz) else None
    fzzb = a.fzzb * inv2s - a.fz * a.fzb * inv4s3 if _have(a.fz, a.fzb, a.fzzb) else None
    fzbzb = a.fzbzb * inv2s - a.fzb ** 2 * inv4s3 if _have(a.fzb, a.fzbzb) else None
    return Jet(s, fz, fzb, fzz, fzzb, fzbzb)


def jet_dz(a: Jet) -> Jet:
    """Jet of the z-derivative (third-order slots are unknown)."""
    return Jet(a.fz, a.fzz, a.fzzb) if a.fz is not None else None


# (ClosedForm field, Jet slot) pairs in slot order
_SLOTS = (("value", "f"), ("dz", "fz"), ("dzbar", "fzb"),
          ("dz2", "fzz"), ("dzdzbar", "fzzb"), ("dzbar2", "fzbzb"))


@dataclass(frozen=True)
class ClosedForm:
    """A pure function z -> complex with optional analytic derivatives.

    domain_guard(z) returns True at singular points; sampling masks them.
    Derivative callables, when present, must agree with finite differences
    of `value` to O(h^2) on the guard-admissible region. `jet_fn`, when
    present, computes every available slot in one pass; the slot callables
    then read from it.
    """

    value: Callable
    dz: Optional[Callable] = None
    dzbar: Optional[Callable] = None
    dz2: Optional[Callable] = None
    dzdzbar: Optional[Callable] = None
    dzbar2: Optional[Callable] = None
    domain_guard: Optional[Callable] = None
    jet_fn: Optional[Callable] = field(default=None, repr=False)

    def jet(self, z) -> Jet:
        if self.jet_fn is not None:
            return self.jet_fn(z)
        ev = lambda fn: fn(z) if fn is not None else None
        return Jet(*(ev(getattr(self, name)) for name, _ in _SLOTS))

    def conjugate(self) -> "ClosedForm":
        wrap = lambda fn: (lambda z, _fn=fn: np.conj(_fn(z))) if fn is not None else None
        joint = None
        if self.jet_fn is not None:
            joint = lambda z: jet_conj(self.jet(z))
        return ClosedForm(
            value=wrap(self.value),
            dz=wrap(self.dzbar),
            dzbar=wrap(self.dz),
            dz2=wrap(self.dzbar2),
            dzdzbar=wrap(self.dzdzbar),
            dzbar2=wrap(self.dz2),
            domain_guard=self.domain_guard,
            jet_fn=joint,
        )

    def derivative(self, which: str) -> Optional["ClosedForm"]:
        """First-derivative form ('z' or 'zbar'), or None if unavailable."""
        if which == "z":
            if self.dz is None:
                return None
            return ClosedForm(self.dz, dz=self.dz2, dzbar=self.dzdzbar,
                              domain_guard=self.domain_guard)
        if which == "zbar":
            if self.dzbar is None:
                return None
            return ClosedForm(self.dzbar, dz=self.dzdzbar, dzbar=self.dzbar2,
                              domain_guard=self.domain_guard)
        raise ValueError(which)


def lift(op: Callable, *forms: ClosedForm) -> ClosedForm:
    """Combine closed forms through a jet operation.

    `op` maps input jets to an output jet. Output derivative callables are
    attached exactly for the slots that survive None-propagation, which
    `op` reports when run once on placeholder jets carrying the inputs'
    available slots. Evaluation runs `op` once per call on the inputs'
    jets, each distinct input evaluated once; each slot callable reads its
    slot from that one jet.
    """
    placeholders = [Jet(*(1.0 + 0.0j if getattr(f, name) is not None else None
                          for name, _ in _SLOTS)) for f in forms]
    present = op(*placeholders)
    # an input passed more than once, as in lift(jet_mul, f, f), is evaluated once
    first = {}
    picks = [first.setdefault(id(f), len(first)) for f in forms]
    distinct = list({id(f): f for f in forms}.values())
    guards = [f.domain_guard for f in distinct if f.domain_guard is not None]

    def guard(z):
        g = guards[0](z)
        for extra in guards[1:]:
            g = np.logical_or(g, extra(z))
        return g

    def joint(z):
        jets = [f.jet(z) for f in distinct]
        return op(*[jets[k] for k in picks])

    def reader(slot):
        return lambda z: getattr(joint(z), slot)

    kw = {name: reader(slot) for name, slot in _SLOTS
          if getattr(present, slot) is not None}
    return ClosedForm(domain_guard=guard if guards else None, jet_fn=joint, **kw)


def _broadcast(vals, z) -> np.ndarray:
    a = np.asarray(vals, dtype=complex)
    shape = np.shape(z)
    if a.shape != shape:
        a = np.broadcast_to(a, shape).copy()
    return a


def sample(cf: ClosedForm, grid: GridSpec, extra_mask=None) -> ComplexField:
    """Evaluate a closed form on a grid; guard-marked points are masked.

    A singular value at an unguarded point is a construction error (the
    field constructor rejects non-finite unmasked entries).
    """
    z = grid.zmesh()
    with np.errstate(all="ignore"):
        vals = _broadcast(cf.value(z), z)
    mask = np.zeros(grid.shape, dtype=bool)
    if cf.domain_guard is not None:
        mask |= np.asarray(cf.domain_guard(z), dtype=bool)
    if extra_mask is not None:
        mask |= np.asarray(extra_mask, dtype=bool)
    return ComplexField(grid, vals, mask, source=cf)


def sample_real(cf: ClosedForm, grid: GridSpec, extra_mask=None,
                imag_tol: float = 1e-12) -> RealField:
    """Sample a form that must be real-valued; complains about imaginary parts."""
    f = sample(cf, grid, extra_mask=extra_mask)
    im = np.abs(f.values.imag[~f.mask])
    scale = max(1.0, float(np.max(np.abs(f.values.real[~f.mask]), initial=0.0)))
    if im.size and np.max(im) > imag_tol * scale:
        raise ValueError(f"form is not real-valued on the grid (max imag {np.max(im):.3e})")
    return RealField(grid, f.values.real, f.mask)


def field_mul(a: ComplexField, b: ComplexField) -> ComplexField:
    """Pointwise product; analytic sources are combined when both exist."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    src = None
    if a.source is not None and b.source is not None:
        src = lift(jet_mul, a.source, b.source)
    mask = a.mask | b.mask
    return ComplexField(a.grid, np.where(mask, 0, a.values * b.values), mask, source=src)


# ---------------------------------------------------------------------------
# symbolic builders

_S = sp.Symbol("s", real=True)
_Z = sp.Symbol("z")


def _lambdify(var, expr):
    # the module object, not the name "numpy": the name makes sympy run
    # `from numpy import *`, which loads numpy.testing, numpy.f2py and unittest
    fn = sp.lambdify(var, expr, modules=[np])

    def call(arg):
        with np.errstate(all="ignore"):
            return fn(arg)
    return call


def diagonal_form(expr, guard=None) -> ClosedForm:
    """Closed form depending on z only through s = z + conj(z).

    `expr` is a sympy expression in the symbol `s` (gwsurf.closedform._S).
    All Wirtinger derivatives collapse to d/ds, which is what makes the
    one-dimensional solution families exactly differentiable.
    """
    d1 = sp.diff(expr, _S)
    d2 = sp.diff(d1, _S)
    f0, f1, f2 = (_lambdify(_S, e) for e in (expr, d1, d2))

    def at(fn):
        return lambda z: _on_abscissae(fn, z)

    return ClosedForm(value=at(f0), dz=at(f1), dzbar=at(f1),
                      dz2=at(f2), dzdzbar=at(f2), dzbar2=at(f2),
                      domain_guard=guard)


def _on_abscissae(fn, z) -> np.ndarray:
    """fn(s) at s = z + conj(z), evaluated once per distinct abscissa of a mesh.

    On a grid mesh (2-D, every row of constant real part) fn runs on one
    column and the result is broadcast along axis 1; the inputs per point
    are bitwise the same, so are the values. Any other z is evaluated
    pointwise.
    """
    x = np.real(np.asarray(z))
    if x.ndim == 2:
        bits = x.view(f"u{x.itemsize}")
        if (bits == bits[:, :1]).all():
            x = x[:, :1]
    # complex-typed s keeps square roots of negative reals on the
    # principal branch instead of collapsing to nan
    s = (2.0 * x).astype(complex)
    return _broadcast(fn(s), z)


def holomorphic_form(expr, guard=None) -> ClosedForm:
    """Closed form holomorphic in z (sympy expression in _Z); dbar slots vanish."""
    d1 = sp.diff(expr, _Z)
    d2 = sp.diff(d1, _Z)
    f0, f1, f2 = (_lambdify(_Z, e) for e in (expr, d1, d2))

    def at(fn):
        def call(z):
            return _broadcast(fn(np.asarray(z, dtype=complex)), z)
        return call

    zero = lambda z: np.zeros(np.shape(z), dtype=complex)
    return ClosedForm(value=at(f0), dz=at(f1), dzbar=zero,
                      dz2=at(f2), dzdzbar=zero, dzbar2=zero,
                      domain_guard=guard)


def constant_form(c) -> ClosedForm:
    c = complex(c)
    zero = lambda z: np.zeros(np.shape(z), dtype=complex)
    return ClosedForm(value=lambda z: np.full(np.shape(z), c, dtype=complex),
                      dz=zero, dzbar=zero, dz2=zero, dzdzbar=zero, dzbar2=zero)
