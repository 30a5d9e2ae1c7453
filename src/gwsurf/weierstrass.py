"""The first-order spinor system, its conservation laws, and currents.

The system couples a spinor pair (psi1, psi2) to a real mean curvature
function H through

    d psi1 =  p H psi2,        dbar psi2 = -p H psi1,
    dbar conj(psi1) = p H conj(psi2),   d conj(psi2) = -p H conj(psi1),

with density p = |psi1|^2 + |psi2|^2. Everything here verifies supplied
solutions rather than solving boundary-value problems: residuals of the
system itself, the two conservation laws that make the surface-inducing
integrals path independent, the current J = conj(psi1) d psi2
- psi2 d conj(psi1) with its defect dbar J = -p^2 dH, and the corrected
current that restores dbar-conservation for nonconstant H.
"""
from __future__ import annotations

import numpy as np

from .calculus import _integrate_from, d_z, d_zbar, mixed_dzbar_dz
from .closedform import conj, field_mul, log, pointwise
from .grid import ComplexField, GridSpec, NumericalBreakdown, RealField, _shared
from .reporting import ResidualReport, report_from_parts

__all__ = [
    "SpinorField", "log_derivatives",
    "density_p", "weierstrass_residual", "potential_conservation_residual",
    "current_J", "dbar_J_defect", "modified_current", "conservation_defect",
    "gaussian_curvature_from_p",
]


class SpinorField:
    """A spinor pair on a shared grid; masks are unified at construction."""

    def __init__(self, psi1: ComplexField, psi2: ComplexField):
        if psi1.grid != psi2.grid:
            raise ValueError("spinor components live on different grids")
        mask = psi1.mask | psi2.mask
        if not np.array_equal(mask, psi1.mask):
            psi1 = ComplexField(psi1.grid, psi1.values, mask, source=psi1.source)
        if not np.array_equal(mask, psi2.mask):
            psi2 = ComplexField(psi2.grid, psi2.values, mask, source=psi2.source)
        self.psi1 = psi1
        self.psi2 = psi2

    @property
    def grid(self) -> GridSpec:
        return self.psi1.grid

    @property
    def mask(self) -> np.ndarray:
        return self.psi1.mask

    def without_sources(self) -> "SpinorField":
        return SpinorField(self.psi1.without_source(), self.psi2.without_source())


def log_derivatives(h: RealField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d ln H, dbar ln H, mask) of the mean curvature `h`; requires H > 0
    on the unmasked region."""
    if np.any((h.values <= 0) & ~h.mask):
        raise NumericalBreakdown("ln H undefined: H <= 0 at unmasked points")
    ln = pointwise(log, h)
    lz = d_z(ln)
    lzb = d_zbar(ln)
    return lz.values, lzb.values, lz.mask | lzb.mask


def density_p(s: SpinorField) -> RealField:
    """p = |psi1|^2 + |psi2|^2, the conformal factor of the induced metric."""
    p = pointwise(lambda p1, p2: p1 * conj(p1) + p2 * conj(p2), s.psi1, s.psi2)
    return RealField._derived(s.grid, p.values.real.copy(), p.mask, source=p.source,
                              finite=True)


def weierstrass_residual(s: SpinorField, h: RealField) -> ResidualReport:
    """Residuals of all four equations of the spinor system."""
    _, mask = _shared(s, h)
    p = density_p(s).values
    ph = p * h.values

    d1 = d_z(s.psi1)
    d2 = d_zbar(s.psi2)
    d3 = d_zbar(s.psi1.conj())
    d4 = d_z(s.psi2.conj())

    c1 = np.conj(s.psi1.values)
    c2 = np.conj(s.psi2.values)
    parts = [
        ("d_psi1", d1.values - ph * s.psi2.values, mask | d1.mask),
        ("dbar_psi2", d2.values + ph * s.psi1.values, mask | d2.mask),
        ("dbar_conj_psi1", d3.values - ph * c2, mask | d3.mask),
        ("d_conj_psi2", d4.values + ph * c1, mask | d4.mask),
    ]
    return report_from_parts(s.grid, parts)


def potential_conservation_residual(s: SpinorField) -> ResidualReport:
    """Both conservation laws that close the inducing one-forms.

    d(psi1^2) + dbar(psi2^2) = 0 and d(psi1 conj(psi2)) -
    dbar(conj(psi1) psi2) = 0 hold for any solution of the spinor system;
    they are exactly the closedness conditions for the surface integrals.
    """
    sq1 = field_mul(s.psi1, s.psi1)
    sq2 = field_mul(s.psi2, s.psi2)
    pot = d_z(sq1)
    pot2 = d_zbar(sq2)

    bil_a = field_mul(s.psi1, s.psi2.conj())
    bil_b = field_mul(s.psi1.conj(), s.psi2)
    b1 = d_z(bil_a)
    b2 = d_zbar(bil_b)

    parts = [
        ("potential", pot.values + pot2.values, pot.mask | pot2.mask),
        ("bilinear", b1.values - b2.values, b1.mask | b2.mask),
    ]
    return report_from_parts(s.grid, parts)


def current_J(s: SpinorField) -> ComplexField:
    """J = conj(psi1) d psi2 - psi2 d conj(psi1)."""
    dpsi2 = d_z(s.psi2)
    dcpsi1 = d_z(s.psi1.conj())
    vals = np.conj(s.psi1.values) * dpsi2.values - s.psi2.values * dcpsi1.values
    mask = s.mask | dpsi2.mask | dcpsi1.mask
    return ComplexField._derived(s.grid, np.where(mask, 0, vals), mask)


def dbar_J_defect(s: SpinorField, h: RealField, exclude_rings: int = 0) -> ResidualReport:
    """Norm of dbar J + p^2 dH; zero modulo the spinor system."""
    _, mask = _shared(s, h)
    dJ = d_zbar(current_J(s))
    p = density_p(s).values
    hz = d_z(h)
    vals = dJ.values + p**2 * hz.values
    return report_from_parts(s.grid, [("dbar_J_plus_p2_dH", vals, mask | dJ.mask | hz.mask)],
                             exclude_rings=exclude_rings)


def modified_current(s: SpinorField, h: RealField, zbar0: float) -> ComplexField:
    """Current corrected by an antiderivative of p^2 dH, restoring dbar-conservation.

    The correction integrates p^2 dH from the base abscissa zbar0 (a real
    number naming a grid line x = zbar0, as GridSpec.index_of accepts one;
    ValueError otherwise) along each constant-y row with a
    factor 2, because moving one grid step in x advances z and conj(z)
    together. For data depending on z + conj(z) this reproduces the exact
    antiderivative; the reported dbar norm measures any remainder honestly.
    """
    grid = s.grid
    i0, _ = grid.index_of(zbar0, grid.y_min)

    _, mask = _shared(s, h)
    p = density_p(s).values
    hz = d_z(h)
    # a masked integrand point poisons every target beyond it on that row
    cum, pathmask = _integrate_from(p**2 * hz.values, mask | hz.mask, grid.hx, 0, i0)

    J = current_J(s)
    outmask = J.mask | pathmask
    vals = np.where(outmask, 0, J.values + 2.0 * cum)
    return ComplexField._derived(grid, vals, outmask)


def conservation_defect(j: ComplexField, exclude_rings: int = 0) -> ResidualReport:
    """Norms of dbar applied to a current."""
    d = d_zbar(j)
    return report_from_parts(j.grid, [("dbar", d.values, d.mask)],
                             exclude_rings=exclude_rings)


def gaussian_curvature_from_p(p: RealField) -> RealField:
    """K = -(d dbar log p) / p^2; requires p > 0 on the unmasked region.

    A density carrying an analytic source evaluates the log derivative
    through jets, which avoids the 1/h^2 amplification of sampling noise
    that stencils would inflict on an (analytically constant) density.
    """
    if np.any((p.values <= 0) & ~p.mask):
        raise NumericalBreakdown("density must be positive at unmasked points")
    safe = np.where(p.mask, 1.0, p.values)
    mix = mixed_dzbar_dz(pointwise(log, p))
    mask = p.mask | mix.mask
    with np.errstate(all="ignore"):
        vals = np.where(mask, 0.0, -mix.values.real / safe**2)
    return RealField._derived(p.grid, vals, mask)
