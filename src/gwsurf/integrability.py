"""Integrability machinery: Riccati constraints, zero-curvature conditions,
the mean-curvature integrability criterion, the modified sinh-Gordon
equation for the density, and the constrained linearization.

The integrability fingerprint is d dbar (1/H) = 0, solved exactly by
H = 1/(Q(z) + Q(zbar)) for a holomorphic profile Q real on the real axis.
The Riccati constraints d rho = A1^0 + A1^1 rho + A1^2 rho^2 (and the
dbar analogue) have no canonical coefficient construction, so a fitting
oracle estimates the six coefficient fields by least squares over 3x3
neighborhoods; the zero-curvature conditions are then tested on the fit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .calculus import _once, d_z, d_zbar, mixed_dzbar_dz
from .closedform import ClosedForm, conj, form, log, pointwise
from .grid import ComplexField, GridSpec, NumericalBreakdown, RealField, _shared
from .reporting import STENCIL_RINGS, ResidualReport, _unmasked, report_from_parts
from .weierstrass import SpinorField, current_J, density_p, log_derivatives

__all__ = [
    "RiccatiCoeffs", "h_integrability_residual", "h_from_profile",
    "riccati_residual", "fit_riccati_coeffs", "zero_curvature_residual",
    "sinh_gordon_residual", "linearization_constraint_residual",
    "linear_system_residual",
]


@dataclass(frozen=True)
class RiccatiCoeffs:
    """Coefficient fields of the coupled Riccati constraints (shared grid)."""

    a10: ComplexField
    a11: ComplexField
    a12: ComplexField
    a20: ComplexField
    a21: ComplexField
    a22: ComplexField

    def __post_init__(self):
        grids = {f.grid for f in self.fields()}
        if len(grids) != 1:
            raise ValueError("coefficient fields live on different grids")

    def fields(self):
        return (self.a10, self.a11, self.a12, self.a20, self.a21, self.a22)

    @property
    def grid(self) -> GridSpec:
        return self.a10.grid


def h_from_profile(q: Callable) -> ClosedForm:
    """H = 1/(Q(z) + Q(zbar)); points where |Q(z) + Q(zbar)| < 1e-12 are masked.

    `q` is a one-argument profile Q, holomorphic and real-valued on the
    real axis, written as a formula (see closedform.Jet) so that H has
    exact derivatives; ValueError when it takes another number of
    arguments, is singular at the probe point 0.37, is not real at 0.11,
    0.37, 0.73 or does not run on a jet (np.cosh does not; closedform's
    cos(1j * z) does). The construction satisfies the integrability
    criterion by design: the z-term is killed by dbar and the zbar-term by d.
    """
    try:
        probe = complex(np.asarray(q(0.37 + 0.0j)).reshape(()))
    except TypeError as exc:
        raise ValueError("profile must be a callable of one argument") from exc
    if not np.isfinite(probe):
        raise ValueError("profile is singular at the probe point")
    for x in (0.11, 0.37, 0.73):
        val = complex(np.asarray(q(complex(x))).reshape(()))
        if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
            raise ValueError("profile is not real-valued on the real axis")
    h = form(lambda z: 1 / (q(z) + q(conj(z))),
             lambda z: np.abs(q(z) + q(conj(z))) < 1e-12)
    try:
        h.jet(0.37)
    except (TypeError, AttributeError) as exc:
        raise ValueError("profile must run on a jet: write it with closedform's "
                         "functions") from exc
    return h


def h_integrability_residual(h: RealField) -> ResidualReport:
    """Norm of d dbar (1/H) off the STENCIL_RINGS boundary rings; zero
    exactly for the integrable class."""
    hv, mask = h.stored
    if np.any((np.abs(hv) < 1e-12) & ~mask):
        raise NumericalBreakdown("H vanishes at unmasked points; 1/H undefined")
    mix, mmask = mixed_dzbar_dz(pointwise(lambda hv: 1.0 / hv, h)).stored
    return report_from_parts(h.grid, [("ddbar_inv_h", mix, mmask)],
                             exclude_rings=STENCIL_RINGS)


def riccati_residual(rho: ComplexField, c: RiccatiCoeffs) -> ResidualReport:
    """Defects of both first-order Riccati constraints on rho, off the
    STENCIL_RINGS boundary rings."""
    grid, mask = _shared(rho, *c.fields())
    drho, m1 = d_z(rho).stored
    dbrho, m2 = d_zbar(rho).stored
    mask = mask | m1 | m2
    r = rho.stored[0]
    a10, a11, a12, a20, a21, a22 = (f.stored[0] for f in c.fields())
    d1 = drho - (a10 + a11 * r + a12 * r**2)
    d2 = dbrho - (a20 + a21 * r + a22 * r**2)
    return report_from_parts(grid, [("d_rho", d1, mask), ("dbar_rho", d2, mask)],
                             exclude_rings=STENCIL_RINGS)


_FIT_POINTS = 4096


def fit_riccati_coeffs(rho: ComplexField) -> RiccatiCoeffs:
    """Least-squares Riccati coefficients over 3x3 neighborhoods.

    Coefficients solving the constraints are not unique pointwise; the fit
    turns the existence statement into a testable field. Each point's six
    coefficients come from two independent min-norm least-squares fits
    (one per constraint) against 1, u, u^2 over its clamped 3x3
    neighborhood, mapped back to 1, rho, rho^2. u = (rho - rho0) / s is
    centred on the point's own rho0 and scaled by the largest |rho - rho0|
    over its valid neighbours (1 where that is 0): in rho itself the
    design's condition, and the round-off, would grow like 1/h^2. On data
    of z + conj(z) the fit interpolates exactly. Masked neighbors drop out
    with zero weight.

    Points are fitted in blocks of whole grid rows, about _FIT_POINTS
    points and at least one row each: a block's designs are built and
    pseudo-inverted together, and both right-hand sides solved against
    them. The same LAPACK call on the same bytes gives the same
    pseudo-inverse whatever the block, min-norm solutions included.

    A compact rho (a column, see grid) is fitted on its column: its
    clamped neighbourhoods are the same at every y, and so are the
    coefficients, which are columns too.
    """
    drho, m1 = d_z(rho).stored
    dbrho, m2 = d_zbar(rho).stored
    valid = ~(rho.stored[1] | m1 | m2)
    nx, ny = valid.shape
    # every point's clamped 3x3 neighbourhood: [i, j, 1 + di, 1 + dj] is the
    # value at (i + di, j + dj), clamped to the grid; flattened, entry 4 is (i, j)
    rho_n, drho_n, dbrho_n, ok_n = (
        sliding_window_view(np.pad(np.broadcast_to(a, valid.shape), 1, mode="edge"), (3, 3))
        for a in (rho.stored[0], drho, dbrho, valid))

    coef = np.empty((6, nx, ny), dtype=complex)
    step = max(1, _FIT_POINTS // ny)
    for i in range(0, nx, step):
        rows = slice(i, i + step)
        r = rho_n[rows].reshape(-1, 9)
        w = ok_n[rows].reshape(-1, 9).astype(float)
        r0 = r[:, 4]
        s = np.max(np.abs(r - r0[:, None]) * w, axis=1)
        s[s == 0] = 1.0
        u = (r - r0[:, None]) / s[:, None]
        pinv = np.linalg.pinv(np.stack([np.ones_like(u), u, u**2], axis=-1) * w[..., None])
        for rhs_n, out in ((drho_n, coef[:3]), (dbrho_n, coef[3:])):
            c0, c1, c2 = np.einsum("...ck,...k->...c", pinv, rhs_n[rows].reshape(-1, 9) * w).T
            a2 = c2 / s**2
            a = (c0 - c1 * r0 / s + a2 * r0**2, c1 / s - 2 * a2 * r0, a2)
            out[:, rows] = np.reshape(a, (3, -1, ny))
    mask = ~valid
    coef[:, mask] = 0
    mask.setflags(write=False)
    return RiccatiCoeffs(*(ComplexField._derived(rho.grid, c, mask) for c in coef))


def zero_curvature_residual(c: RiccatiCoeffs) -> ResidualReport:
    """The three compatibility conditions on the Riccati coefficients, off
    the STENCIL_RINGS boundary rings.

    Each coefficient is differentiated once, so its stencils go as soon as
    its derivative is formed, and each pair of derivatives once its
    condition is.
    """
    def condition(low, high, p, q):
        """dbar low - d high + p - q, and its mask."""
        (dlow, mlow), (dhigh, mhigh) = _once(d_zbar, low).stored, _once(d_z, high).stored
        return dlow - dhigh + p - q, mlow | mhigh

    a10, a11, a12, a20, a21, a22 = (f.stored[0] for f in c.fields())
    cond0, mask0 = condition(c.a10, c.a20, a11 * a20, a21 * a10)
    cond1, mask1 = condition(c.a11, c.a21, 2 * a12 * a20, 2 * a22 * a10)
    cond2, mask2 = condition(c.a12, c.a22, a12 * a21, a11 * a22)
    mask = _shared(*c.fields())[1] | mask0 | mask1 | mask2
    return report_from_parts(c.grid, [
        ("order0", cond0, mask), ("order1", cond1, mask), ("order2", cond2, mask)],
        exclude_rings=STENCIL_RINGS)


def sinh_gordon_residual(s: SpinorField, h: RealField) -> ResidualReport:
    """Residual of d dbar ln p = |J|^2 / p^2 - p^2 H^2.

    Holds modulo the spinor system; the expected tolerance is one
    derivative worse than the system residual because of d dbar ln p,
    and the STENCIL_RINGS boundary rings are left out.
    """
    p = density_p(s)
    _, mask = _shared(p, h)
    if np.any((p.stored[0] <= 0) & ~mask):
        raise NumericalBreakdown("density must be positive at unmasked points")
    safe = np.where(mask, 1.0, p.stored[0])
    mix, mmask = mixed_dzbar_dz(pointwise(log, p, mask=h.stored[1])).stored
    J, jmask = current_J(s).stored
    totmask = mask | mmask | jmask
    vals = mix.real - np.abs(J) ** 2 / safe**2 + safe**2 * h.stored[0]**2
    return report_from_parts(s.grid, [("sinh_gordon", np.where(totmask, 0, vals), totmask)],
                             exclude_rings=STENCIL_RINGS)


def linearization_constraint_residual(s: SpinorField) -> ResidualReport:
    """The differential constraints forcing constant density.

    conj(psi1) dbar psi1 + psi2 dbar conj(psi2) and its d-partner equal
    the density derivatives modulo the system, so the report also carries
    the grid variance of p.
    """
    d1, m1 = d_zbar(s.psi1).stored
    d2, m2 = d_zbar(s.psi2.conj()).stored
    d3, m3 = d_z(s.psi2).stored
    d4, m4 = d_z(s.psi1.conj()).stored
    _, mask = _shared(s)
    mask = mask | m1 | m2 | m3 | m4

    p1, p2 = s.psi1.stored[0], s.psi2.stored[0]
    c1 = np.conj(p1) * d1 + p2 * d2
    c2 = np.conj(p2) * d3 + p1 * d4

    pv, pmask = density_p(s).stored
    pv = _unmasked(pv, s.grid, pmask | mask)
    details = {"p_variance": float(np.var(pv)) if pv.size else 0.0,
               "p_mean": float(np.mean(pv)) if pv.size else 0.0}
    return report_from_parts(s.grid,
                             [("dbar_constraint", c1, mask), ("d_constraint", c2, mask)],
                             details=details)


def linear_system_residual(s: SpinorField, h: RealField, p0: float) -> ResidualReport:
    """Residual of the decoupled linear system obeyed under the constraints:

    dbar d psi1 - dbar(ln H) d psi1 + p0^2 H^2 psi1 = 0,
    d dbar psi2 - d(ln H) dbar psi2 + p0^2 H^2 psi2 = 0,

    off the STENCIL_RINGS boundary rings.
    """
    _, mask = _shared(s, h)
    lz, lzb, lmask = log_derivatives(h)

    d1 = d_z(s.psi1)
    dd1, m1 = d_zbar(d1).stored
    d2 = d_zbar(s.psi2)
    dd2, m2 = d_z(d2).stored
    mask = mask | lmask | m1 | m2

    coeff = p0**2 * h.stored[0]**2
    l1 = dd1 - lzb * d1.stored[0] + coeff * s.psi1.stored[0]
    l2 = dd2 - lz * d2.stored[0] + coeff * s.psi2.stored[0]
    return report_from_parts(s.grid, [("psi1", l1, mask), ("psi2", l2, mask)],
                             exclude_rings=STENCIL_RINGS)
