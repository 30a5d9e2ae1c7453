"""Closed-form solution families with analytic derivatives.

Each family packages a compatible triple (H, rho, spinor pair) written as
formulas of one variable that also run on Taylor jets, so every Wirtinger
derivative needed by the residual suites is exact to round-off. The
one-dimensional families depend on z only through s = z + conj(z):

  rational     rho = lam*s,        H = 1/(1 + lam^2 s^2)
  exponential  rho = exp(lam*s),   H = exp(lam*s)/(1 + exp(2*lam*s))
  trig         rho = sin(A*s),     H = cos(A*s)/(2 - cos(A*s)^2)

In each case H is proportional to d(rho)/ds / (1 + rho^2), which is
exactly the compatibility the sigma system forces on one-dimensional real
profiles; consequently the density is constant (p = lam, lam, A). The
trig family is admissible on the strip 0 < A*s < pi/2 (minus a guard
band) where both cos(A*s) and H stay positive.

Two constant-H families feed the spin-matrix and multisoliton checks:

  unimodular   rho = exp(i*lam*s), |rho| = 1, H = H0 > 0
  holomorphic  rho = f(z),         H = H0 > 0

The unimodular spinor uses the globally smooth square-root branch
w = sqrt(i*lam) * exp(i*lam*s/2) rather than the pointwise principal
branch, which would introduce a spurious cut line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import (ClosedForm, conj, cos, diagonal_form, exp, holomorphic_form,
                         sin, sqrt)
from .grid import GridSpec
from .sigma import RhoField, psi_from_rho
from .weierstrass import MeanCurvature, SpinorField

__all__ = ["SolutionFamily", "family_rational", "family_exponential",
           "family_trigonometric", "family_unimodular", "family_holomorphic",
           "build_family", "FAMILY_NAMES"]


@dataclass(frozen=True)
class SolutionFamily:
    """A named (H, rho, psi) triple with an admissible-domain predicate."""

    name: str
    params: dict
    h_form: ClosedForm
    rho_form: ClosedForm
    psi1_form: ClosedForm | None
    psi2_form: ClosedForm | None
    admissible: object            # callable z -> bool array (True = admissible)
    default_domain: tuple
    eps: int = 1

    @property
    def mean_curvature(self) -> MeanCurvature:
        return MeanCurvature(form=self.h_form)

    def guard_mask(self, grid: GridSpec) -> np.ndarray:
        if self.admissible is None:
            return np.zeros(grid.shape, dtype=bool)
        return ~np.asarray(self.admissible(grid.zmesh()), dtype=bool)

    def rho(self, grid: GridSpec, analytic: bool = True) -> RhoField:
        from .closedform import sample
        f = sample(self.rho_form, grid, extra_mask=self.guard_mask(grid))
        if not analytic:
            f = f.without_source()
        return RhoField(f, branch_eps=self.eps)

    def spinor(self, grid: GridSpec, analytic: bool = True) -> SpinorField:
        if self.psi1_form is None:
            s = psi_from_rho(self.rho(grid, analytic=analytic), self.mean_curvature)
        else:
            s = SpinorField.from_closed_forms(self.psi1_form, self.psi2_form, grid,
                                              extra_mask=self.guard_mask(grid))
        return s if analytic else s.without_sources()

    def default_grid(self, nx: int = 101, ny: int = 101) -> GridSpec:
        x0, x1, y0, y1 = self.default_domain
        return GridSpec(x0, x1, y0, y1, nx, ny)


def _transform_forms(rho, drho, h, eps: int, guard):
    """psi forms of a one-dimensional rho, d(rho)/ds and H (functions of s).

    The square-root transform composed as `psi_from_rho` composes its jets:
    w = sqrt(d rho), den = sqrt(H) (1 + rho conj(rho)), psi2 = eps w / den,
    psi1 = eps rho conj(w) / den.
    """
    def common(s):
        r = rho(s)
        return r, sqrt(drho(s)), sqrt(h(s)) * (1 + r * conj(r))

    def psi1(s):
        r, w, den = common(s)
        return eps * (r * conj(w) / den)

    def psi2(s):
        _, w, den = common(s)
        return eps * (w / den)

    return diagonal_form(psi1, guard=guard), diagonal_form(psi2, guard=guard)


def _one_dimensional(name, params, rho, drho, h, eps, guard=None, admissible=None,
                     default_domain=(-1.0, 1.0, -1.0, 1.0)) -> SolutionFamily:
    """A family from rho, d(rho)/ds and H, all functions of s sharing one guard."""
    psi1, psi2 = _transform_forms(rho, drho, h, eps, guard)
    return SolutionFamily(
        name=name, params=params,
        h_form=diagonal_form(h, guard=guard), rho_form=diagonal_form(rho, guard=guard),
        psi1_form=psi1, psi2_form=psi2,
        admissible=admissible, default_domain=default_domain, eps=eps)


def family_rational(lam: float, eps: int = 1) -> SolutionFamily:
    """Rationally decaying mean curvature; admissible on the whole plane."""
    if lam == 0:
        raise ValueError("parameter must be nonzero (rho would be constant)")
    lam = float(lam)
    # d rho/ds is complex so that sqrt of a negative lam takes the principal branch
    return _one_dimensional(
        "rational", {"lambda": lam}, eps=eps,
        rho=lambda s: lam * s, drho=lambda s: complex(lam),
        h=lambda s: 1 / (1 + lam * lam * (s * s)))


def family_exponential(lam: float, eps: int = 1) -> SolutionFamily:
    """Exponential profile rho = exp(lam s); H real analytic everywhere."""
    if lam == 0:
        raise ValueError("parameter must be nonzero")
    lam = float(lam)
    return _one_dimensional(
        "exponential", {"lambda": lam}, eps=eps,
        rho=lambda s: exp(lam * s), drho=lambda s: lam * exp(lam * s),
        h=lambda s: exp(lam * s) / (1 + exp(2 * lam * s)))


def family_trigonometric(a: float, eps: int = 1,
                         guard_band: float = 0.05) -> SolutionFamily:
    """Oscillatory profile rho = sin(A s) with H = cos(A s)/(2 - cos(A s)^2).

    Admissible on the strip 0 < s < pi/(2|A|) shrunk by a guard band at
    both ends; there cos(A s) > 0 and H > 0, so the square roots in the
    spinor transform stay real.
    """
    if a == 0:
        raise ValueError("parameter must be nonzero")
    a = float(a)

    def h(s):
        c = cos(a * s)
        return c / (2 - c * c)

    s_hi = math.pi / (2 * abs(a))
    lo, hi = guard_band, s_hi - guard_band
    if lo >= hi:
        raise ValueError("guard band leaves no admissible strip")

    def admissible(z):
        s = 2.0 * np.real(np.asarray(z))
        return (s > lo) & (s < hi)

    return _one_dimensional(
        "trig", {"A": a}, eps=eps,
        rho=lambda s: sin(a * s), drho=lambda s: a * cos(a * s), h=h,
        guard=lambda z: ~admissible(z), admissible=admissible,
        default_domain=(lo / 2 + 0.025, hi / 2 - 0.025, -1.0, 1.0))


def family_unimodular(lam: float, h0: float = 1.0, eps: int = 1) -> SolutionFamily:
    """Unimodular rho = exp(i lam s); exists only with constant H = h0 > 0."""
    if h0 <= 0:
        raise ValueError("constant mean curvature must be positive")
    lam, h0 = float(lam), float(h0)
    rho = lambda s: exp(1j * lam * s)

    if lam == 0:
        psi1 = psi2 = None      # rho constant: the transform degenerates
    else:
        # smooth global branch of sqrt(d rho): w = sqrt(i lam) exp(i lam s / 2)
        root = np.sqrt(1j * lam)
        w = lambda s: root * exp(1j * lam * s / 2)
        den = math.sqrt(h0) * 2
        psi1 = diagonal_form(lambda s: eps * (rho(s) * conj(w(s)) / den))
        psi2 = diagonal_form(lambda s: eps * (w(s) / den))

    return SolutionFamily(
        name="unimodular", params={"lambda": lam, "H0": h0},
        h_form=diagonal_form(lambda s: h0), rho_form=diagonal_form(rho),
        psi1_form=psi1, psi2_form=psi2,
        admissible=None, default_domain=(-1.0, 1.0, -1.0, 1.0), eps=eps)


def family_holomorphic(f: ClosedForm | None = None, h0: float = 1.0,
                       eps: int = 1) -> SolutionFamily:
    """Holomorphic rho = f(z), a solution exactly when H is constant.

    Defaults to f(z) = z. The spinor pair is produced by the generic
    transform at sampling time (dbar rho vanishes, but dbar conj(rho)
    does not).
    """
    if h0 <= 0:
        raise ValueError("constant mean curvature must be positive")
    if f is None:
        f = holomorphic_form(lambda z: z)
    h0 = float(h0)
    return SolutionFamily(
        name="holomorphic", params={"H0": h0},
        h_form=diagonal_form(lambda s: h0), rho_form=f,
        psi1_form=None, psi2_form=None,
        admissible=None, default_domain=(-1.0, 1.0, -1.0, 1.0), eps=eps)


FAMILY_NAMES = ("rational", "exponential", "trig", "unimodular", "holomorphic")


def build_family(name: str, lam: float | None = None, a: float | None = None,
                 h0: float = 1.0, eps: int = 1) -> SolutionFamily:
    """Registry front door used by the command line."""
    if name == "rational":
        return family_rational(1.0 if lam is None else lam, eps=eps)
    if name == "exponential":
        return family_exponential(1.0 if lam is None else lam, eps=eps)
    if name == "trig":
        return family_trigonometric(1.0 if a is None else a, eps=eps)
    if name == "unimodular":
        return family_unimodular(1.0 if lam is None else lam, h0=h0, eps=eps)
    if name == "holomorphic":
        return family_holomorphic(h0=h0, eps=eps)
    raise ValueError(f"unknown family {name!r}; expected one of {', '.join(FAMILY_NAMES)}")
