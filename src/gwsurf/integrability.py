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

from .calculus import d_z, d_zbar, mixed_dzbar_dz
from .closedform import ClosedForm, Jet, log, pointwise
from .grid import ComplexField, GridSpec, NumericalBreakdown
from .reporting import ResidualReport, report_from_parts
from .sigma import RhoField
from .weierstrass import MeanCurvature, SpinorField, current_J, density_p

__all__ = [
    "RiccatiCoeffs", "HolomorphicProfile",
    "h_integrability_residual", "h_from_profile",
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

    @property
    def mask(self) -> np.ndarray:
        m = np.zeros(self.grid.shape, dtype=bool)
        for f in self.fields():
            m |= f.mask
        return m


@dataclass(frozen=True)
class HolomorphicProfile:
    """One-argument profile Q, holomorphic and real-valued on the real axis."""

    q: Callable

    def __post_init__(self):
        try:
            probe = complex(np.asarray(self.q(0.37 + 0.0j)).reshape(()))
        except TypeError as exc:
            raise ValueError("profile must be a callable of one argument") from exc
        if not np.isfinite(probe):
            raise ValueError("profile is singular at the probe point")
        for x in (0.11, 0.37, 0.73):
            val = complex(np.asarray(self.q(complex(x))).reshape(()))
            if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
                raise ValueError("profile is not real-valued on the real axis")


def h_from_profile(q, den_eps: float = 1e-12) -> MeanCurvature:
    """H = 1/(Q(z) + Q(zbar)); zeros of the denominator are masked.

    The construction satisfies the integrability criterion by design:
    the z-term is killed by dbar and the zbar-term by d.
    """
    profile = q if isinstance(q, HolomorphicProfile) else HolomorphicProfile(q)

    def denominator(z):
        z = np.asarray(z, dtype=complex)
        return np.asarray(profile.q(z)) + np.asarray(profile.q(np.conj(z)))

    def value(z):
        den = denominator(z)
        with np.errstate(all="ignore"):
            return np.where(np.abs(den) < den_eps, np.nan, 1.0 / den)

    def guard(z):
        return np.abs(denominator(z)) < den_eps

    return MeanCurvature(form=ClosedForm(lambda z, order: Jet(value(z)), domain_guard=guard))


def h_integrability_residual(H: MeanCurvature, grid: GridSpec,
                             name: str = "h_integrability",
                             zero_eps: float = 1e-12,
                             exclude_rings: int = 0) -> ResidualReport:
    """Norm of d dbar (1/H); zero exactly for the integrable class."""
    h = H.sample(grid)
    if np.any((np.abs(h.values) < zero_eps) & ~h.mask):
        raise NumericalBreakdown("H vanishes at unmasked points; 1/H undefined")
    mix = mixed_dzbar_dz(pointwise(lambda hv: 1.0 / hv, h))
    return report_from_parts(name, grid, [("ddbar_inv_h", mix.values, mix.mask)],
                             exclude_rings=exclude_rings)


def riccati_residual(r: RhoField, c: RiccatiCoeffs,
                     name: str = "riccati",
                     exclude_rings: int = 0) -> ResidualReport:
    """Defects of both first-order Riccati constraints on rho."""
    if r.grid != c.grid:
        raise ValueError("rho and coefficients live on different grids")
    rho = r.rho.values
    drho = d_z(r.rho)
    dbrho = d_zbar(r.rho)
    mask = r.rho.mask | drho.mask | dbrho.mask | c.mask
    d1 = drho.values - (c.a10.values + c.a11.values * rho + c.a12.values * rho**2)
    d2 = dbrho.values - (c.a20.values + c.a21.values * rho + c.a22.values * rho**2)
    return report_from_parts(name, r.grid, [("d_rho", d1, mask), ("dbar_rho", d2, mask)],
                             exclude_rings=exclude_rings)


def _neighbourhoods(arr: np.ndarray) -> np.ndarray:
    """(nx, ny, 3, 3) view of every point's clamped 3x3 neighbourhood:
    [i, j, 1 + di, 1 + dj] is arr at (i + di, j + dj), clamped to the grid."""
    return sliding_window_view(np.pad(arr, 1, mode="edge"), (3, 3))


# grid rows per block of the solve against the distinct pseudo-inverses, and
# distinct keys per block of the designs and their pseudo-inverses
_FIT_ROWS = 16
_FIT_KEYS = 2048


def fit_riccati_coeffs(r: RhoField) -> RiccatiCoeffs:
    """Least-squares Riccati coefficients over 3x3 neighborhoods.

    Coefficients solving the constraints are not unique pointwise; the fit
    turns the existence statement into a testable field. Each point's six
    coefficients come from two independent min-norm least-squares fits
    (one per constraint) against the monomials 1, rho, rho^2 of its
    clamped 3x3 neighborhood. Masked neighbors drop out with zero weight.

    A point's weighted design is an elementwise function of its nine
    neighbour values and nine validity flags, so points are deduplicated
    on those bytes (153 per point) and the design is built and
    pseudo-inverted once per distinct key, in blocks of keys; on a
    one-dimensional family that is about one per grid row, on a
    holomorphic one one per point. The same LAPACK call on the same
    bytes gives the same pseudo-inverse, whatever the block, min-norm on
    rank-deficient neighbourhoods included. Both right-hand sides are then
    solved in blocks of grid rows, each against its points' distinct
    pseudo-inverses, so no per-point (nx, ny, 3, 9) array is built.
    """
    grid = r.grid
    nx, ny = grid.shape
    drho = d_z(r.rho)
    dbrho = d_zbar(r.rho)
    valid = ~(r.rho.mask | drho.mask | dbrho.mask)

    rho_n = _neighbourhoods(r.rho.values)
    ok_n = _neighbourhoods(valid)
    keys = np.concatenate([rho_n.reshape(nx * ny, 9).view(np.uint8),
                           ok_n.reshape(nx * ny, 9).view(np.uint8)], axis=1)
    _, first, inverse = np.unique(keys.view(np.dtype((np.void, keys.shape[1]))).ravel(),
                                  return_index=True, return_inverse=True)
    del keys

    fi, fj = np.divmod(first, ny)
    pinv = np.empty((len(first), 3, 9), dtype=complex)
    for k in range(0, len(first), _FIT_KEYS):
        block = slice(k, k + _FIT_KEYS)
        rho_u = rho_n[fi[block], fj[block]].reshape(-1, 9)
        w = ok_n[fi[block], fj[block]].reshape(-1, 9).astype(float)
        design = np.stack([np.ones_like(rho_u), rho_u, rho_u**2], axis=-1) * w[..., None]
        pinv[block] = np.linalg.pinv(design)
    inverse = inverse.reshape(nx, ny)

    coef = np.empty((6, nx, ny), dtype=complex)
    for rhs_field, out in ((drho, coef[:3]), (dbrho, coef[3:])):
        rhs_n = _neighbourhoods(rhs_field.values)
        for i in range(0, nx, _FIT_ROWS):
            rows = slice(i, i + _FIT_ROWS)
            rhs = rhs_n[rows].reshape(-1, ny, 9) * ok_n[rows].reshape(-1, ny, 9).astype(float)
            c = np.einsum("...ck,...k->...c", pinv[inverse[rows]], rhs)
            out[:, rows] = np.moveaxis(c, -1, 0)
    mask = ~valid
    coef[:, mask] = 0
    mask.setflags(write=False)
    return RiccatiCoeffs(*(ComplexField._derived(grid, c, mask) for c in coef))


def zero_curvature_residual(c: RiccatiCoeffs,
                            name: str = "zero_curvature",
                            exclude_rings: int = 0) -> ResidualReport:
    """The three compatibility conditions on the Riccati coefficients."""
    da10 = d_zbar(c.a10)
    da20 = d_z(c.a20)
    da11 = d_zbar(c.a11)
    da21 = d_z(c.a21)
    da12 = d_zbar(c.a12)
    da22 = d_z(c.a22)
    mask = c.mask | da10.mask | da20.mask | da11.mask | da21.mask | da12.mask | da22.mask

    a10, a11, a12 = c.a10.values, c.a11.values, c.a12.values
    a20, a21, a22 = c.a20.values, c.a21.values, c.a22.values
    cond0 = da10.values - da20.values + a11 * a20 - a21 * a10
    cond1 = da11.values - da21.values + 2 * a12 * a20 - 2 * a22 * a10
    cond2 = da12.values - da22.values + a12 * a21 - a11 * a22
    return report_from_parts(name, c.grid, [
        ("order0", cond0, mask), ("order1", cond1, mask), ("order2", cond2, mask)],
        exclude_rings=exclude_rings)


def sinh_gordon_residual(s: SpinorField, H: MeanCurvature,
                         name: str = "sinh_gordon",
                         exclude_rings: int = 0) -> ResidualReport:
    """Residual of d dbar ln p = |J|^2 / p^2 - p^2 H^2.

    Holds modulo the spinor system; the expected tolerance is one
    derivative worse than the system residual because of d dbar ln p.
    """
    p = density_p(s)
    h = H.sample(s.grid)
    mask = p.mask | h.mask
    if np.any((p.values <= 0) & ~mask):
        raise NumericalBreakdown("density must be positive at unmasked points")
    safe = np.where(mask, 1.0, p.values)
    mix = mixed_dzbar_dz(pointwise(log, p, mask=h.mask))
    J = current_J(s).j
    totmask = mask | mix.mask | J.mask
    vals = mix.values.real - np.abs(J.values) ** 2 / safe**2 + safe**2 * h.values**2
    return report_from_parts(name, s.grid, [("sinh_gordon", np.where(totmask, 0, vals), totmask)],
                             exclude_rings=exclude_rings)


def linearization_constraint_residual(s: SpinorField,
                                      name: str = "linear_constraints") -> ResidualReport:
    """The differential constraints forcing constant density.

    conj(psi1) dbar psi1 + psi2 dbar conj(psi2) and its d-partner equal
    the density derivatives modulo the system, so the report also carries
    the grid variance of p.
    """
    d1 = d_zbar(s.psi1)
    d2 = d_zbar(s.psi2.conj())
    d3 = d_z(s.psi2)
    d4 = d_z(s.psi1.conj())
    mask = s.mask | d1.mask | d2.mask | d3.mask | d4.mask

    c1 = np.conj(s.psi1.values) * d1.values + s.psi2.values * d2.values
    c2 = np.conj(s.psi2.values) * d3.values + s.psi1.values * d4.values

    p = density_p(s)
    pv = p.values[~(p.mask | mask)]
    details = {"p_variance": float(np.var(pv)) if pv.size else 0.0,
               "p_mean": float(np.mean(pv)) if pv.size else 0.0}
    return report_from_parts(name, s.grid,
                             [("dbar_constraint", c1, mask), ("d_constraint", c2, mask)],
                             details=details)


def linear_system_residual(s: SpinorField, H: MeanCurvature, p0: float,
                           name: str = "linear_system",
                           exclude_rings: int = 0) -> ResidualReport:
    """Residual of the decoupled linear system obeyed under the constraints:

    dbar d psi1 - dbar(ln H) d psi1 + p0^2 H^2 psi1 = 0,
    d dbar psi2 - d(ln H) dbar psi2 + p0^2 H^2 psi2 = 0.
    """
    h = H.sample(s.grid)
    lz, lzb, lmask = H.log_derivatives(s.grid)

    d1 = d_z(s.psi1)
    dd1 = d_zbar(d1)
    d2 = d_zbar(s.psi2)
    dd2 = d_z(d2)
    mask = s.mask | h.mask | lmask | dd1.mask | dd2.mask

    coeff = p0**2 * h.values**2
    l1 = dd1.values - lzb * d1.values + coeff * s.psi1.values
    l2 = dd2.values - lz * d2.values + coeff * s.psi2.values
    return report_from_parts(name, s.grid, [("psi1", l1, mask), ("psi2", l2, mask)],
                             exclude_rings=exclude_rings)
