"""Symbolic reference slots for closed forms (test-only; needs sympy).

`diagonal_slots` and `holomorphic_slots` differentiate a sympy expression
symbolically and lambdify the value and its first two derivatives, the
way the closed forms were once built. `family_exprs` writes the sympy
expressions of each solution family's H, rho and spinor pair from the
formulas in `gwsurf.families`. Tests compare the numpy-only forms with
these slots.
"""
import numpy as np
import sympy as sp

S = sp.Symbol("s", real=True)
Z = sp.Symbol("z")


def lambdify(var, expr):
    # the module object, not the name "numpy": the name makes sympy run
    # `from numpy import *`, which loads numpy.testing, numpy.f2py and unittest
    fn = sp.lambdify(var, expr, modules=[np])

    def call(arg):
        with np.errstate(all="ignore"):
            return fn(arg)
    return call


def _broadcast(vals, z):
    return np.broadcast_to(np.asarray(vals, dtype=complex), np.shape(z)).copy()


def diagonal_slots(expr):
    """The six Wirtinger slot callables of expr(s) at s = z + conj(z)."""
    d1 = sp.diff(expr, S)
    f0, f1, f2 = (lambdify(S, e) for e in (expr, d1, sp.diff(d1, S)))

    def at(fn):
        return lambda z: _broadcast(fn((2.0 * np.real(z)).astype(complex)), z)

    return (at(f0), at(f1), at(f1), at(f2), at(f2), at(f2))


def holomorphic_slots(expr):
    """The six Wirtinger slot callables of expr(z); the dbar slots vanish."""
    d1 = sp.diff(expr, Z)
    f0, f1, f2 = (lambdify(Z, e) for e in (expr, d1, sp.diff(d1, Z)))

    def at(fn):
        return lambda z: _broadcast(fn(np.asarray(z, dtype=complex)), z)

    zero = lambda z: np.zeros(np.shape(z), dtype=complex)
    return (at(f0), at(f1), zero, at(f2), zero, zero)


def _transform(rho, h, eps):
    drho = sp.diff(rho, S)
    den = sp.sqrt(h) * (1 + rho * sp.conjugate(rho))
    return (eps * rho * sp.conjugate(sp.sqrt(drho)) / den,
            eps * sp.sqrt(drho) / den)


def family_exprs(name, lam=1.0, a=1.0, h0=1.0, eps=1):
    """{form name: slot callables} of a family, from its sympy expressions."""
    degenerate = float(lam) == 0
    lam, a, h0 = sp.Float(float(lam)), sp.Float(float(a)), sp.Float(float(h0))
    if name == "holomorphic":
        return {"h_form": diagonal_slots(h0 + 0 * S), "rho_form": holomorphic_slots(Z)}
    if name == "rational":
        rho, h = lam * S, 1 / (1 + lam**2 * S**2)
    elif name == "exponential":
        rho, h = sp.exp(lam * S), sp.exp(lam * S) / (1 + sp.exp(2 * lam * S))
    elif name == "trig":
        rho, h = sp.sin(a * S), sp.cos(a * S) / (2 - sp.cos(a * S) ** 2)
    elif name == "unimodular":
        rho, h = sp.exp(sp.I * lam * S), h0 + 0 * S
    else:
        raise ValueError(name)
    out = {"h_form": diagonal_slots(h), "rho_form": diagonal_slots(rho)}
    if name == "unimodular":
        if not degenerate:
            # the smooth global branch of sqrt(d rho)
            w = sp.sqrt(sp.I * lam) * sp.exp(sp.I * lam * S / 2)
            out["psi1_form"] = diagonal_slots(eps * rho * sp.conjugate(w) / (sp.sqrt(h0) * 2))
            out["psi2_form"] = diagonal_slots(eps * w / (sp.sqrt(h0) * 2))
        return out
    psi1, psi2 = _transform(rho, h, eps)
    out["psi1_form"], out["psi2_form"] = diagonal_slots(psi1), diagonal_slots(psi2)
    return out
