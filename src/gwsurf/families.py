"""Closed-form solution families with analytic derivatives.

Each family packages a compatible triple (H, rho, spinor pair) written as
formulas that also run on jets (closedform's `form`, or `diagonal_form`
of s = z + conj(z) with a guard of s), so every Wirtinger derivative the
suites need is exact to round-off. The one-dimensional families use s:

  rational     rho = lam*s,        H = 1/(1 + lam^2 s^2)
  exponential  rho = exp(lam*s),   H = exp(lam*s)/(1 + exp(2*lam*s))
  trig         rho = sin(A*s),     H = cos(A*s)/(2 - cos(A*s)^2)

In each case H is proportional to d(rho)/ds / (1 + rho^2), which is
exactly the compatibility the sigma system forces on one-dimensional real
profiles; consequently the density is constant (|lam|, |lam|, |A|). The
trig family is admissible on the strip 0 < A*s < pi/2 (minus a guard
band) where both cos(A*s) and H stay positive; its forms' guard masks
the rest.

Two constant-H families feed the spin-matrix and multisoliton checks:

  unimodular   rho = exp(i*lam*s), |rho| = 1, H = H0 > 0
  holomorphic  rho = z,            H = H0 > 0

The unimodular spinor uses the globally smooth square-root branch
w = sqrt(i*lam) * exp(i*lam*s/2) rather than the pointwise principal
branch, which would introduce a spurious cut line.

Each family states the facts of its solution that decide which suites
`gwsurf verify` runs: constant H, |rho| = 1, constant rho (no spinor
pair: unimodular at lam = 0), the constant density p0 (|lam|/(2*H0) for
unimodular) and the constant d dbar(1/H) (2*lam^2 for rational, 0 for
constant H), the last two None where not constant.
"""
import math
from typing import NamedTuple

import numpy as np

from .closedform import (ClosedForm, conj, cos, diagonal_form, exp, form, sample, sample_real,
                         sin)
from .grid import ComplexField, GridSpec, RealField
from .sigma import psi_from_rho, psi_pair
from .weierstrass import SpinorField

__all__ = ["SolutionFamily", "family_rational", "family_exponential",
           "family_trigonometric", "family_unimodular", "family_holomorphic",
           "build_family", "FAMILY_NAMES"]


class SolutionFamily(NamedTuple):
    """A named (H, rho, psi) triple of closed forms and the facts its
    solution has: whether H is constant, |rho| = 1 and rho constant, and
    the constant density p0 and d dbar(1/H), each None where not constant;
    `constant_density`, `one_dimensional` and `spinor_forms` are derived.

    `h`, `rho` and `spinor` sample it on a grid, keeping the forms' jets
    as sources (analytic derivatives); without_source() (without_sources()
    for a spinor) drops them, for stencils.
    The forms' domain guards mask the points outside the family's domain.
    """

    name: str
    params: dict
    h_form: ClosedForm
    rho_form: ClosedForm
    psi1_form: ClosedForm | None
    psi2_form: ClosedForm | None
    constant_h: bool            # H is constant
    unit_rho: bool              # |rho| = 1
    constant_rho: bool          # rho is constant: there is no spinor pair
    p0: float | None            # the constant density |psi1|^2 + |psi2|^2, or None
    ddbar_inv_h: float | None   # the constant d dbar(1/H), or None
    default_domain: tuple | None = (-1.0, 1.0, -1.0, 1.0)  # None: the caller gives one

    @property
    def constant_density(self) -> bool:
        return self.p0 is not None

    @property
    def one_dimensional(self) -> bool:      # H and rho depend on z + conj(z) only
        return self.h_form.diagonal and self.rho_form.diagonal

    @property
    def spinor_forms(self) -> bool:         # else `spinor` runs the transform
        return self.psi1_form is not None

    def h(self, grid: GridSpec) -> RealField:
        return sample_real(self.h_form, grid)

    def rho(self, grid: GridSpec) -> ComplexField:
        return sample(self.rho_form, grid)

    def spinor(self, grid: GridSpec) -> SpinorField:
        if self.psi1_form is None:
            return psi_from_rho(self.rho(grid), self.h(grid))
        return SpinorField(sample(self.psi1_form, grid), sample(self.psi2_form, grid))


def _one_dimensional(name, params, rho, drho, h, p0, ddbar_inv_h=None, guard=None,
                     default_domain=(-1.0, 1.0, -1.0, 1.0)) -> SolutionFamily:
    """A family from rho, d(rho)/ds and H, all functions of s sharing one
    guard, H varying and |rho| not 1; its psi forms are the square-root
    transform `psi_pair` that `psi_from_rho` uses."""
    def pair(s):
        return psi_pair(rho(s), drho(s), h(s))

    psi1, psi2 = (diagonal_form(lambda s, k=k: pair(s)[k], guard=guard) for k in (0, 1))
    return SolutionFamily(
        name=name, params=params,
        h_form=diagonal_form(h, guard=guard), rho_form=diagonal_form(rho, guard=guard),
        psi1_form=psi1, psi2_form=psi2, default_domain=default_domain, constant_h=False,
        unit_rho=False, constant_rho=False, p0=p0, ddbar_inv_h=ddbar_inv_h)


def family_rational(lam: float) -> SolutionFamily:
    """Rationally decaying mean curvature; admissible on the whole plane."""
    if lam == 0:
        raise ValueError("lambda must be nonzero (rho would be constant)")
    lam = float(lam)
    # d rho/ds is complex so that sqrt of a negative lam takes the principal branch
    return _one_dimensional(
        "rational", {"lambda": lam}, p0=abs(lam), ddbar_inv_h=2.0 * lam * lam,
        rho=lambda s: lam * s, drho=lambda s: complex(lam),
        h=lambda s: 1 / (1 + lam * lam * (s * s)))


def family_exponential(lam: float) -> SolutionFamily:
    """Exponential profile rho = exp(lam s); H real analytic everywhere."""
    if lam == 0:
        raise ValueError("lambda must be nonzero (rho would be constant)")
    lam = float(lam)
    return _one_dimensional(
        "exponential", {"lambda": lam}, p0=abs(lam),
        rho=lambda s: exp(lam * s), drho=lambda s: lam * exp(lam * s),
        h=lambda s: exp(lam * s) / (1 + exp(2 * lam * s)))


def family_trigonometric(a: float) -> SolutionFamily:
    """Oscillatory profile rho = sin(A s) with H = cos(A s)/(2 - cos(A s)^2).

    Admissible on the strip 0 < s < pi/(2|A|) shrunk by a guard band of
    0.05 at both ends; there cos(A s) > 0 and H > 0, so the square roots in
    the spinor transform stay real. The default domain keeps 0.025 in x
    inside the band, and is None where that leaves nothing (|A| from about
    pi/0.4 on).
    """
    if a == 0:
        raise ValueError("A must be nonzero (rho would be constant)")
    a = float(a)

    def h(s):
        c = cos(a * s)
        return c / (2 - c * c)

    s_hi = math.pi / (2 * abs(a))
    lo, hi = 0.05, s_hi - 0.05
    if lo >= hi:
        raise ValueError("|A| must be below pi/0.2: the guard band leaves no admissible strip")

    def guard(s):
        return ~((s.real > lo) & (s.real < hi))

    x_lo, x_hi = lo / 2 + 0.025, hi / 2 - 0.025
    return _one_dimensional(
        "trig", {"A": a}, p0=abs(a),
        rho=lambda s: sin(a * s), drho=lambda s: a * cos(a * s), h=h, guard=guard,
        default_domain=(x_lo, x_hi, -1.0, 1.0) if x_lo < x_hi else None)


def family_unimodular(lam: float, h0: float = 1.0) -> SolutionFamily:
    """Unimodular rho = exp(i lam s); exists only with constant H = h0 > 0."""
    if not h0 > 0:      # nan fails this test too
        raise ValueError("H0 must be positive (the constant mean curvature)")
    lam, h0 = float(lam), float(h0)
    rho = lambda s: exp(1j * lam * s)

    if lam == 0:
        psi1 = psi2 = None      # rho constant: the transform degenerates
    else:
        # smooth global branch of sqrt(d rho): w = sqrt(i lam) exp(i lam s / 2)
        root = np.sqrt(1j * lam)
        w = lambda s: root * exp(1j * lam * s / 2)
        den = math.sqrt(h0) * 2
        psi1 = diagonal_form(lambda s: rho(s) * conj(w(s)) / den)
        psi2 = diagonal_form(lambda s: w(s) / den)

    return SolutionFamily(
        name="unimodular", params={"lambda": lam, "H0": h0},
        h_form=diagonal_form(lambda s: h0), rho_form=diagonal_form(rho),
        psi1_form=psi1, psi2_form=psi2, constant_h=True, unit_rho=True, constant_rho=not lam,
        p0=abs(lam) / (2 * h0) if lam else None, ddbar_inv_h=0.0)


def family_holomorphic(h0: float = 1.0) -> SolutionFamily:
    """Holomorphic rho = z, a solution exactly when H is constant (any
    non-constant holomorphic rho is). The spinor pair is produced by the
    generic transform at sampling time (dbar rho vanishes, but dbar
    conj(rho) does not).
    """
    if not h0 > 0:      # nan fails this test too
        raise ValueError("H0 must be positive (the constant mean curvature)")
    h0 = float(h0)
    return SolutionFamily(
        name="holomorphic", params={"H0": h0}, h_form=diagonal_form(lambda s: h0),
        rho_form=form(lambda z: z), psi1_form=None, psi2_form=None,
        constant_h=True, unit_rho=False, constant_rho=False, p0=None, ddbar_inv_h=0.0)


FAMILY_NAMES = ("rational", "exponential", "trig", "unimodular", "holomorphic")


def build_family(name: str, lam: float | None = None, a: float | None = None,
                 h0: float = 1.0) -> SolutionFamily:
    """Registry front door used by the command line."""
    if name == "rational":
        return family_rational(1.0 if lam is None else lam)
    if name == "exponential":
        return family_exponential(1.0 if lam is None else lam)
    if name == "trig":
        return family_trigonometric(1.0 if a is None else a)
    if name == "unimodular":
        return family_unimodular(1.0 if lam is None else lam, h0=h0)
    if name == "holomorphic":
        return family_holomorphic(h0=h0)
    raise ValueError(f"unknown family {name!r}; expected one of {', '.join(FAMILY_NAMES)}")
