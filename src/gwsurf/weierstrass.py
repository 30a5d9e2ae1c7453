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
import operator

import numpy as np

from .calculus import _integrate_from, d_z, d_zbar, mixed_dzbar_dz
from .closedform import conj, log, pointwise
from .grid import ComplexField, GridSpec, NumericalBreakdown, RealField, _shared
from .reporting import STENCIL_RINGS, ResidualReport, report_from_parts

__all__ = [
    "SpinorField", "log_derivatives",
    "density_p", "weierstrass_residual", "potential_conservation_residual",
    "current_J", "dbar_J_defect", "modified_current", "conservation_defect",
    "gaussian_curvature_from_p",
]


class SpinorField:
    """A spinor pair on a shared grid; masks are unified at construction,
    and so are the components' storage shapes (see grid)."""

    def __init__(self, psi1: ComplexField, psi2: ComplexField):
        grid, mask = _shared(psi1, psi2)
        psi1, psi2 = (f if np.array_equal(mask, f.stored[1]) else
                      ComplexField._derived(grid, np.where(mask, 0, f.stored[0]), mask,
                                            source=f.source, finite=True)
                      for f in (psi1, psi2))
        self.psi1 = psi1
        self.psi2 = psi2

    @property
    def grid(self) -> GridSpec:
        return self.psi1.grid

    @property
    def stored(self) -> tuple[np.ndarray, np.ndarray]:
        """psi1's stored (values, mask); its mask is the pair's (see grid)."""
        return self.psi1.stored

    def without_sources(self) -> "SpinorField":
        return SpinorField(self.psi1.without_source(), self.psi2.without_source())


def log_derivatives(h: RealField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d ln H, dbar ln H, mask) of the mean curvature `h`, as stored
    arrays (see grid); requires H > 0 on the unmasked region.

    Fields are immutable, so ln H is built and differenced once per field
    and the result kept in its memo, as its stencils are (see calculus)."""
    got = h._memo.get("log_derivatives")
    if got is None:
        if np.any((h.stored[0] <= 0) & ~h.stored[1]):
            raise NumericalBreakdown("ln H undefined: H <= 0 at unmasked points")
        ln = pointwise(log, h)
        lz = d_z(ln)
        lzb = d_zbar(ln)
        mask = lz.stored[1] | lzb.stored[1]
        mask.setflags(write=False)
        got = h._memo["log_derivatives"] = (lz.stored[0], lzb.stored[0], mask)
    return got


def density_p(s: SpinorField) -> RealField:
    """p = |psi1|^2 + |psi2|^2, the conformal factor of the induced metric."""
    p = pointwise(lambda p1, p2: p1 * conj(p1) + p2 * conj(p2), s.psi1, s.psi2)
    vals, mask = p.stored
    return RealField._derived(s.grid, vals.real.copy(), mask, source=p.source, finite=True)


def weierstrass_residual(s: SpinorField, h: RealField) -> ResidualReport:
    """Residuals of all four equations of the spinor system."""
    _, mask = _shared(s, h)
    p1, p2 = s.psi1.stored[0], s.psi2.stored[0]
    ph = density_p(s).stored[0] * h.stored[0]

    d1, m1 = d_z(s.psi1).stored
    d2, m2 = d_zbar(s.psi2).stored
    d3, m3 = d_zbar(s.psi1.conj()).stored
    d4, m4 = d_z(s.psi2.conj()).stored

    parts = [
        ("d_psi1", d1 - ph * p2, mask | m1),
        ("dbar_psi2", d2 + ph * p1, mask | m2),
        ("dbar_conj_psi1", d3 - ph * np.conj(p2), mask | m3),
        ("d_conj_psi2", d4 + ph * np.conj(p1), mask | m4),
    ]
    return report_from_parts(s.grid, parts)


def potential_conservation_residual(s: SpinorField) -> ResidualReport:
    """Both conservation laws that close the inducing one-forms.

    d(psi1^2) + dbar(psi2^2) = 0 and d(psi1 conj(psi2)) -
    dbar(conj(psi1) psi2) = 0 hold for any solution of the spinor system;
    they are exactly the closedness conditions for the surface integrals.
    """
    pot, m1 = d_z(pointwise(operator.mul, s.psi1, s.psi1)).stored
    pot2, m2 = d_zbar(pointwise(operator.mul, s.psi2, s.psi2)).stored
    b1, m3 = d_z(pointwise(operator.mul, s.psi1, s.psi2.conj())).stored
    b2, m4 = d_zbar(pointwise(operator.mul, s.psi1.conj(), s.psi2)).stored

    parts = [
        ("potential", pot + pot2, m1 | m2),
        ("bilinear", b1 - b2, m3 | m4),
    ]
    return report_from_parts(s.grid, parts)


def current_J(s: SpinorField) -> ComplexField:
    """J = conj(psi1) d psi2 - psi2 d conj(psi1)."""
    grid, mask = _shared(s)
    dpsi2, m2 = d_z(s.psi2).stored
    dcpsi1, m1 = d_z(s.psi1.conj()).stored
    vals = np.conj(s.psi1.stored[0]) * dpsi2 - s.psi2.stored[0] * dcpsi1
    mask = mask | m2 | m1
    return ComplexField._derived(grid, np.where(mask, 0, vals), mask)


def dbar_J_defect(s: SpinorField, h: RealField) -> ResidualReport:
    """Norm of dbar J + p^2 dH off the STENCIL_RINGS boundary rings; zero
    modulo the spinor system."""
    _, mask = _shared(s, h)
    dJ, mj = d_zbar(current_J(s)).stored
    p = density_p(s).stored[0]
    hz, mh = d_z(h).stored
    vals = dJ + p**2 * hz
    return report_from_parts(s.grid, [("dbar_J_plus_p2_dH", vals, mask | mj | mh)],
                             exclude_rings=STENCIL_RINGS)


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
    p = density_p(s).stored[0]
    hz, mh = d_z(h).stored
    # a masked integrand point poisons every target beyond it on that row
    cum, pathmask = _integrate_from(p**2 * hz, mask | mh, grid.hx, 0, i0)

    J, mj = current_J(s).stored
    outmask = mj | pathmask
    vals = np.where(outmask, 0, J + 2.0 * cum)
    return ComplexField._derived(grid, vals, outmask)


def conservation_defect(j: ComplexField) -> ResidualReport:
    """Norms of dbar applied to a current, off the STENCIL_RINGS boundary
    rings."""
    d, mask = d_zbar(j).stored
    return report_from_parts(j.grid, [("dbar", d, mask)], exclude_rings=STENCIL_RINGS)


def gaussian_curvature_from_p(p: RealField) -> RealField:
    """K = -(d dbar log p) / p^2; requires p > 0 on the unmasked region.

    A density carrying an analytic source evaluates the log derivative
    through jets, which avoids the 1/h^2 amplification of sampling noise
    that stencils would inflict on an (analytically constant) density.
    """
    pv, pmask = p.stored
    if np.any((pv <= 0) & ~pmask):
        raise NumericalBreakdown("density must be positive at unmasked points")
    safe = np.where(pmask, 1.0, pv)
    mix, mmask = mixed_dzbar_dz(pointwise(log, p)).stored
    mask = pmask | mmask
    with np.errstate(all="ignore"):
        vals = np.where(mask, 0.0, -mix.real / safe**2)
    return RealField._derived(p.grid, vals, mask)
