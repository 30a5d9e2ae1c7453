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

from dataclasses import dataclass

import numpy as np

from .calculus import _cumulative_trapezoid, d_z, d_zbar, mixed_dzbar_dz
from .closedform import (ClosedForm, conj, constant_form, field_mul, lift, log, sample,
                         sample_real)
from .grid import ComplexField, GridSpec, NumericalBreakdown, RealField
from .reporting import ResidualReport, report_from_parts

__all__ = [
    "SpinorField", "MeanCurvature", "Current",
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

    @classmethod
    def from_closed_forms(cls, f1: ClosedForm, f2: ClosedForm, grid: GridSpec,
                          extra_mask=None) -> "SpinorField":
        return cls(sample(f1, grid, extra_mask), sample(f2, grid, extra_mask))

    @property
    def grid(self) -> GridSpec:
        return self.psi1.grid

    @property
    def mask(self) -> np.ndarray:
        return self.psi1.mask

    def without_sources(self) -> "SpinorField":
        return SpinorField(self.psi1.without_source(), self.psi2.without_source())


class MeanCurvature:
    """Real-valued mean curvature, backed by a closed form or a sampled field.

    Sampling enforces realness (imaginary part below 1e-12 relative); the
    zero set can be queried as a mask since several transforms divide by
    H or take its square root.
    """

    def __init__(self, form: ClosedForm | None = None, field: RealField | None = None):
        if (form is None) == (field is None):
            raise ValueError("provide exactly one of form or field")
        self.form = form
        self._field = field

    @classmethod
    def constant(cls, c: float) -> "MeanCurvature":
        return cls(form=constant_form(float(c)))

    @classmethod
    def from_field(cls, field: RealField) -> "MeanCurvature":
        return cls(field=field)

    def sample(self, grid: GridSpec) -> RealField:
        if self._field is not None:
            if self._field.grid != grid:
                raise ValueError("mean curvature field lives on a different grid")
            return self._field
        return sample_real(self.form, grid)

    def zero_mask(self, grid: GridSpec, eps: float = 1e-12) -> np.ndarray:
        f = self.sample(grid)
        return f.mask | (np.abs(f.values) < eps)

    def d_z(self, grid: GridSpec) -> ComplexField:
        if self.form is not None and self.form.order >= 1:
            return sample(self.form.derivative("z"), grid)
        return d_z(self.sample(grid))

    def d_zbar(self, grid: GridSpec) -> ComplexField:
        if self.form is not None and self.form.order >= 1:
            return sample(self.form.derivative("zbar"), grid)
        return d_zbar(self.sample(grid))

    def log_derivatives(self, grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(d ln H, dbar ln H, mask); requires H > 0 on the unmasked region."""
        f = self.sample(grid)
        if np.any((f.values <= 0) & ~f.mask):
            raise NumericalBreakdown("ln H undefined: H <= 0 at unmasked points")
        if self.form is not None and self.form.order >= 1:
            hz = self.d_z(grid)
            hzb = self.d_zbar(grid)
            mask = f.mask | hz.mask | hzb.mask
            with np.errstate(all="ignore"):
                lz = np.where(mask, 0, hz.values / f.values)
                lzb = np.where(mask, 0, hzb.values / f.values)
            return lz, lzb, mask
        ln = RealField._derived(grid, np.where(f.mask, 0.0, np.log(np.where(f.mask, 1.0, f.values))),
                                f.mask)
        lz = d_z(ln)
        lzb = d_zbar(ln)
        return lz.values, lzb.values, lz.mask | lzb.mask


@dataclass(frozen=True)
class Current:
    j: ComplexField


def density_p(s: SpinorField) -> RealField:
    """p = |psi1|^2 + |psi2|^2, the conformal factor of the induced metric."""
    vals = np.abs(s.psi1.values) ** 2 + np.abs(s.psi2.values) ** 2
    src = None
    if s.psi1.source is not None and s.psi2.source is not None:
        src = lift(lambda j1, j2: j1 * conj(j1) + j2 * conj(j2), s.psi1.source, s.psi2.source)
    # the components are zero wherever the spinor is masked, and so is vals
    return RealField._derived(s.grid, vals, s.mask, source=src)


def _check_grids(s: SpinorField, H: MeanCurvature) -> tuple[RealField, np.ndarray]:
    h = H.sample(s.grid)
    return h, s.mask | h.mask


def weierstrass_residual(s: SpinorField, H: MeanCurvature,
                         name: str = "weierstrass",
                         exclude_rings: int = 0) -> ResidualReport:
    """Residuals of all four equations of the spinor system."""
    h, mask = _check_grids(s, H)
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
    return report_from_parts(name, s.grid, parts, exclude_rings=exclude_rings)


def potential_conservation_residual(s: SpinorField,
                                    name: str = "conservation",
                                    exclude_rings: int = 0) -> ResidualReport:
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
    return report_from_parts(name, s.grid, parts, exclude_rings=exclude_rings)


def current_J(s: SpinorField) -> Current:
    """J = conj(psi1) d psi2 - psi2 d conj(psi1)."""
    dpsi2 = d_z(s.psi2)
    dcpsi1 = d_z(s.psi1.conj())
    vals = np.conj(s.psi1.values) * dpsi2.values - s.psi2.values * dcpsi1.values
    mask = s.mask | dpsi2.mask | dcpsi1.mask
    return Current(ComplexField._derived(s.grid, np.where(mask, 0, vals), mask))


def dbar_J_defect(s: SpinorField, H: MeanCurvature,
                  name: str = "current_defect",
                  exclude_rings: int = 0) -> ResidualReport:
    """Norm of dbar J + p^2 dH; zero modulo the spinor system."""
    h, mask = _check_grids(s, H)
    J = current_J(s).j
    dJ = d_zbar(J)
    p = density_p(s).values
    hz = H.d_z(s.grid)
    vals = dJ.values + p**2 * hz.values
    return report_from_parts(name, s.grid,
                             [("dbar_J_plus_p2_dH", vals, mask | dJ.mask | hz.mask)],
                             exclude_rings=exclude_rings)


def modified_current(s: SpinorField, H: MeanCurvature, zbar0: float) -> Current:
    """Current corrected by an antiderivative of p^2 dH, restoring dbar-conservation.

    The correction integrates p^2 dH from the base abscissa zbar0 (a real
    number naming a grid line x = zbar0) along each constant-y row with a
    factor 2, because moving one grid step in x advances z and conj(z)
    together. For data depending on z + conj(z) this reproduces the exact
    antiderivative; the reported dbar norm measures any remainder honestly.
    """
    grid = s.grid
    xs = grid.xs()
    i0 = int(np.argmin(np.abs(xs - zbar0)))
    if abs(xs[i0] - zbar0) > 1e-9 * max(1.0, grid.hx):
        raise ValueError(f"base abscissa {zbar0} is not a grid line")

    h, mask = _check_grids(s, H)
    p = density_p(s).values
    hz = H.d_z(grid)
    g = p**2 * hz.values
    gmask = mask | hz.mask

    cum = _cumulative_trapezoid(g, grid.hx, axis=0)
    corr = 2.0 * (cum - cum[i0, :][None, :])

    # a masked integrand point poisons every target beyond it on that row
    bad_fwd = np.logical_or.accumulate(gmask[i0:, :], axis=0)
    bad_bwd = np.logical_or.accumulate(gmask[i0::-1, :], axis=0)[::-1]
    pathmask = np.zeros(grid.shape, dtype=bool)
    pathmask[i0:, :] = bad_fwd
    pathmask[: i0 + 1, :] |= bad_bwd

    J = current_J(s).j
    outmask = J.mask | pathmask
    vals = np.where(outmask, 0, J.values + corr)
    return Current(ComplexField._derived(grid, vals, outmask))


def conservation_defect(c: Current, name: str = "dbar_defect",
                        exclude_rings: int = 0) -> ResidualReport:
    """Norms of dbar applied to a current."""
    d = d_zbar(c.j)
    return report_from_parts(name, c.j.grid, [("dbar", d.values, d.mask)],
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
    if getattr(p, "source", None) is not None:
        ln = ComplexField._derived(p.grid, np.where(p.mask, 0.0, np.log(safe)), p.mask,
                                   source=lift(log, p.source))
    else:
        ln = RealField._derived(p.grid, np.where(p.mask, 0.0, np.log(safe)), p.mask)
    mix = mixed_dzbar_dz(ln)
    mask = p.mask | mix.mask
    with np.errstate(all="ignore"):
        vals = np.where(mask, 0.0, -mix.values.real / safe**2)
    return RealField._derived(p.grid, vals, mask)
