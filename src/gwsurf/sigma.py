"""The rho-representation and its second-order sigma-model system.

rho = psi1 / conj(psi2) turns the first-order spinor system into

    d dbar rho - 2 conj(rho) (1+|rho|^2)^{-1} d rho dbar rho
        = dbar(ln H) d rho,

together with its conjugate. The inverse transform

    psi1 = eps rho (dbar conj(rho))^{1/2} / (H^{1/2} (1+|rho|^2)),
    psi2 = eps (d rho)^{1/2} / (H^{1/2} (1+|rho|^2)),   eps = +-1,

requires H > 0 and a square-root branch. Branch policy: principal branch
pointwise, then a sign-continuation sweep from a reference point so that
grid neighbors stay continuous; only the global sign eps remains free.
The sweep is the single sequential pass in this module; everything else
is pointwise.

Also here: the spin matrix S (Hermitian, traceless, involutive) built
from rho, the time-independent Landau-Lifshitz commutator [S, d dbar S],
and its deformed analogue [S, d dbar S] + R*Hmat whose inhomogeneity
carries the ln H derivatives when the mean curvature is not constant.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .calculus import d_z, d_zbar, mixed_dzbar_dz
from .closedform import conj, pointwise, sqrt
from .grid import ComplexField, GridSpec, NumericalBreakdown
from .reporting import ResidualReport, norms, report_from_parts
from .weierstrass import MeanCurvature, SpinorField

__all__ = [
    "RhoField", "SpinMatrix", "DeformationMatrices",
    "rho_from_psi", "psi_from_rho", "sigma_residual", "apply_discrete_symmetry",
    "spin_matrix", "landau_lifshitz_residual", "deformation_matrices",
    "deformed_ll_residual", "multisoliton_product",
    "unimodular_H_constancy_check", "compatibility_residual",
]


@dataclass(frozen=True)
class RhoField:
    """Sigma-model variable on a grid plus the transform's global sign."""

    rho: ComplexField
    branch_eps: int = 1

    def __post_init__(self):
        if self.branch_eps not in (+1, -1):
            raise ValueError("branch sign must be +1 or -1")

    @property
    def grid(self) -> GridSpec:
        return self.rho.grid

    def without_source(self) -> "RhoField":
        return RhoField(self.rho.without_source(), self.branch_eps)


def rho_from_psi(s: SpinorField) -> RhoField:
    """rho = psi1 / conj(psi2); zeros of psi2 are masked."""
    a = np.abs(s.psi2.values)
    scale = float(np.max(a, initial=0.0))
    if scale == 0.0:
        raise NumericalBreakdown("psi2 vanishes identically; rho undefined")
    return RhoField(pointwise(lambda p1, p2: p1 / conj(p2), s.psi1, s.psi2,
                              mask=a < 1e-14 * scale))


def _continue_sign(w: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Sign field making a pointwise square root continuous across neighbors.

    Sweeps the reference row, then every column, flipping wherever
    |w_next - w_prev| > |w_next + w_prev|. Invalid points break no chains
    (their step factor is +1).
    """
    def step_factors(arr, ok, axis):
        prev = np.roll(arr, 1, axis=axis)
        okpair = ok & np.roll(ok, 1, axis=axis)
        flip = np.abs(arr - prev) > np.abs(arr + prev)
        fac = np.where(okpair & flip, -1.0, 1.0)
        # first slot along the axis starts its own chain
        idx = [slice(None)] * arr.ndim
        idx[axis] = 0
        fac[tuple(idx)] = 1.0
        return fac

    # reference row j = 0 of signs along x, then continue along every column
    row_fac = step_factors(w[:, :1], valid[:, :1], 0)
    sign_row = np.cumprod(row_fac[:, 0], axis=0)
    col_fac = step_factors(w, valid, 1)
    sign = np.cumprod(col_fac, axis=1) * sign_row[:, None]
    return sign


def psi_pair(rho, drho, h, eps):
    """The square-root transform: (psi1, psi2) from rho, d rho, H and eps.

    w = sqrt(d rho), den = sqrt(H) (1 + rho conj(rho)), psi1 = eps rho
    conj(w) / den and psi2 = eps w / den, written with closedform's
    functions so that it runs on jets and on plain arrays alike.
    """
    w = sqrt(drho)
    den = sqrt(h) * (1 + rho * conj(rho))
    return eps * (rho * conj(w) / den), eps * (w / den)


def psi_from_rho(r: RhoField, H: MeanCurvature, dr_eps: float = 1e-12) -> SpinorField:
    """Invert the representation: build the spinor pair from rho and H.

    Points where d rho vanishes are masked (the square root degenerates
    there); H must be positive on the unmasked region. Each component is
    `psi_pair` of rho, d rho and H, with an analytic source when all three
    have one, unless the branch continuation flipped a sign: the flipped
    values carry no source.
    """
    h = H.sample(r.grid)
    if np.any((h.values <= 0) & ~h.mask & ~r.rho.mask):
        raise NumericalBreakdown("transform requires H > 0 at unmasked points")

    drho = d_z(r.rho)
    scale = float(np.max(np.abs(drho.values), initial=0.0))
    mask = r.rho.mask | h.mask | drho.mask | (np.abs(drho.values) < dr_eps * max(scale, 1e-300))
    psi = [pointwise(lambda rho, dr, hv, k=k: psi_pair(rho, dr, hv, r.branch_eps)[k],
                     r.rho, drho, h, mask=mask) for k in (0, 1)]

    # flipping sqrt(d rho) flips both components
    sign = _continue_sign(np.sqrt(drho.values), ~mask)
    if np.any((sign < 0) & ~mask):
        psi = [ComplexField._derived(r.grid, np.where(f.mask, 0, sign * f.values), f.mask)
               for f in psi]
    return SpinorField(*psi)


def sigma_residual(r: RhoField, H: MeanCurvature,
                   name: str = "sigma",
                   exclude_rings: int = 0) -> ResidualReport:
    """Residuals of the second-order sigma-model system and its conjugate."""
    grid = r.grid
    lz, lzb, lmask = H.log_derivatives(grid)

    rho = r.rho.values
    drho = d_z(r.rho)
    dbrho = d_zbar(r.rho)
    mix = mixed_dzbar_dz(r.rho)
    mask = r.rho.mask | drho.mask | dbrho.mask | mix.mask | lmask

    m = 1.0 + np.abs(rho) ** 2
    res1 = mix.values - 2.0 * np.conj(rho) / m * drho.values * dbrho.values \
        - lzb * drho.values
    res2 = np.conj(mix.values) - 2.0 * rho / m * np.conj(drho.values) * np.conj(dbrho.values) \
        - lz * np.conj(drho.values)
    return report_from_parts(name, grid, [("rho", res1, mask), ("conj_rho", res2, mask)],
                             exclude_rings=exclude_rings)


def apply_discrete_symmetry(r: RhoField, which: str) -> RhoField:
    """Discrete symmetries of the sigma system: 'Z2' (rho -> -rho) and
    'I' (rho -> 1/rho, zeros masked)."""
    if which == "Z2":
        return RhoField(pointwise(operator.neg, r.rho), r.branch_eps)
    if which == "I":
        return RhoField(pointwise(lambda rho: 1.0 / rho, r.rho, mask=np.abs(r.rho.values) < 1e-8),
                        r.branch_eps)
    raise ValueError(f"unknown symmetry {which!r}; expected 'Z2' or 'I'")


class SpinMatrix:
    """Pointwise 2x2 matrix S = (1+|rho|^2)^{-1} [[1-|rho|^2, 2 conj(rho)],
    [2 rho, |rho|^2-1]]: Hermitian, traceless, S^2 = 1."""

    def __init__(self, s11: ComplexField, s12: ComplexField,
                 s21: ComplexField, s22: ComplexField):
        self.s11, self.s12, self.s21, self.s22 = s11, s12, s21, s22

    @property
    def grid(self) -> GridSpec:
        return self.s11.grid

    @property
    def mask(self) -> np.ndarray:
        return self.s11.mask | self.s12.mask | self.s21.mask | self.s22.mask

    def entries(self):
        return (self.s11, self.s12, self.s21, self.s22)

    def algebra_report(self, name: str = "spin_algebra",
                       exclude_rings: int = 0) -> ResidualReport:
        """Hermiticity, tracelessness and involution defects."""
        a, b, c, d = (e.values for e in self.entries())
        mask = self.mask
        parts = [
            ("hermitian_diag", np.abs(a.imag) + np.abs(d.imag), mask),
            ("hermitian_off", b - np.conj(c), mask),
            ("trace", a + d, mask),
            ("involution_11", a * a + b * c - 1.0, mask),
            ("involution_12", b * (a + d), mask),
            ("involution_21", c * (a + d), mask),
            ("involution_22", d * d + b * c - 1.0, mask),
        ]
        return report_from_parts(name, self.grid, parts, exclude_rings=exclude_rings)


def spin_matrix(r: RhoField) -> SpinMatrix:
    # entries as functions of rho and m = 1 + |rho|^2
    entries = (lambda rho, m: (2.0 - m) / m, lambda rho, m: 2.0 * conj(rho) / m,
               lambda rho, m: 2.0 * rho / m, lambda rho, m: (m - 2.0) / m)
    return SpinMatrix(*(pointwise(lambda rho, e=e: e(rho, 1.0 + rho * conj(rho)), r.rho)
                        for e in entries))


def _commutator_with_mixed(S: SpinMatrix):
    d11 = mixed_dzbar_dz(S.s11)
    d12 = mixed_dzbar_dz(S.s12)
    d21 = mixed_dzbar_dz(S.s21)
    d22 = mixed_dzbar_dz(S.s22)
    a, b, c, d = (e.values for e in S.entries())
    e11, e12, e21, e22 = d11.values, d12.values, d21.values, d22.values

    c11 = b * e21 - c * e12
    c12 = a * e12 + b * e22 - e11 * b - e12 * d
    c21 = c * e11 + d * e21 - e21 * a - e22 * c
    c22 = c * e12 - b * e21
    mask = S.mask | d11.mask | d12.mask | d21.mask | d22.mask
    return (c11, c12, c21, c22), mask


def landau_lifshitz_residual(S: SpinMatrix,
                             name: str = "landau_lifshitz",
                             exclude_rings: int = 0) -> ResidualReport:
    """Max norm of the commutator [S, d dbar S] over the grid."""
    (c11, c12, c21, c22), mask = _commutator_with_mixed(S)
    parts = [("c11", c11, mask), ("c12", c12, mask), ("c21", c21, mask), ("c22", c22, mask)]
    return report_from_parts(name, S.grid, parts, exclude_rings=exclude_rings)


@dataclass(frozen=True)
class DeformationMatrices:
    """Pointwise matrices R (rho-dependent) and Hmat (ln H derivatives)
    whose product supplies the inhomogeneity of the deformed spin equation.

    Hmat's lower-right entry contains 1/rho, so points with small |rho|
    are masked rather than regularized (regularizing would change the
    identity being certified).
    """

    r11: np.ndarray
    r12: np.ndarray
    r21: np.ndarray
    r22: np.ndarray
    h11: np.ndarray
    h12: np.ndarray
    h21: np.ndarray
    h22: np.ndarray
    mask: np.ndarray

    def product(self):
        """Entries of R * Hmat."""
        return (self.r11 * self.h11 + self.r12 * self.h21,
                self.r11 * self.h12 + self.r12 * self.h22,
                self.r21 * self.h11 + self.r22 * self.h21,
                self.r21 * self.h12 + self.r22 * self.h22)


def deformation_matrices(r: RhoField, H: MeanCurvature,
                         rho_eps: float = 1e-8) -> DeformationMatrices:
    """Build R and Hmat; entry signs are fixed by the commutator identity

        [S, d dbar S] = 4 (1+|rho|^2)^{-2} [[cb f - rho fb, cb^2 f + fb],
                                            [-(f + rho^2 fb), rho fb - cb f]]

    (cb = conj(rho), f the sigma operator applied to rho, fb its
    conjugate), derived by formal jet computation; the product R*Hmat must
    cancel the ln-H part of f and fb entrywise.
    """
    grid = r.grid
    lz, lzb, lmask = H.log_derivatives(grid)
    rho = r.rho.values
    drho = d_z(r.rho)
    dbrho = d_zbar(r.rho)
    cdr = np.conj(drho.values)       # dbar conj(rho)

    m = 1.0 + np.abs(rho) ** 2
    pref = 4.0 / m**2
    rho_mask = r.rho.mask | (np.abs(rho) < rho_eps)
    mask = lmask | drho.mask | dbrho.mask | rho_mask
    with np.errstate(all="ignore"):
        inv_rho = np.where(rho_mask, 0, 1.0 / np.where(rho_mask, 1.0, rho))
    return DeformationMatrices(
        r11=-pref * np.conj(rho) * drho.values,
        r12=pref * rho * cdr,
        r21=pref * drho.values,
        r22=pref * rho**2 * cdr,
        h11=lzb, h12=np.conj(rho) * lzb,
        h21=lz, h22=-inv_rho * lz,
        mask=mask,
    )


def deformed_ll_residual(r: RhoField, H: MeanCurvature,
                         name: str = "deformed_landau_lifshitz",
                         rho_eps: float = 1e-8,
                         exclude_rings: int = 0) -> ResidualReport:
    """Residual of [S, d dbar S] + R*Hmat, the inhomogeneous spin equation.

    Vanishes modulo the sigma-model system; for constant H the
    inhomogeneity is zero and this reduces to the homogeneous equation.
    """
    grid = r.grid
    S = spin_matrix(r)
    (c11, c12, c21, c22), cmask = _commutator_with_mixed(S)
    dm = deformation_matrices(r, H, rho_eps=rho_eps)
    p11, p12, p21, p22 = dm.product()
    mask = cmask | dm.mask

    parts = [
        ("e11", c11 + p11, mask),
        ("e12", c12 + p12, mask),
        ("e21", c21 + p21, mask),
        ("e22", c22 + p22, mask),
    ]
    return report_from_parts(name, grid, parts, exclude_rings=exclude_rings)


def _require_unimodular(r: RhoField, tol: float) -> None:
    dev = np.abs(np.abs(r.rho.values[~r.rho.mask]) - 1.0)
    if dev.size == 0 or float(np.max(dev)) > tol:
        raise ValueError("input is not unimodular (|rho| must equal 1)")


def multisoliton_product(r1: RhoField, r2: RhoField,
                         tol: float = 1e-10) -> RhoField:
    """Product of two unimodular solutions; stays a solution for constant H."""
    if r1.grid != r2.grid:
        raise ValueError("factors live on different grids")
    _require_unimodular(r1, tol)
    _require_unimodular(r2, tol)
    return RhoField(pointwise(operator.mul, r1.rho, r2.rho), r1.branch_eps)


def unimodular_H_constancy_check(r: RhoField, H: MeanCurvature,
                                 tol: float = 1e-10,
                                 name: str = "unimodular_h_constancy") -> ResidualReport:
    """Unimodular solutions force constant H; report the observed spread.

    max_norm is max |H - mean(H)| over unmasked points; details carry the
    mean, the variance, and a consistency flag (1 = constant within tol).
    """
    _require_unimodular(r, max(tol, 1e-10))
    h = H.sample(r.grid)
    mask = h.mask | r.rho.mask
    vals = h.values[~mask]
    if vals.size == 0:
        raise ValueError("no unmasked points to test")
    mean = float(np.mean(vals))
    spread = float(np.max(np.abs(vals - mean)))
    variance = float(np.var(vals))
    mx, l2 = norms(h.values - mean, r.grid, mask)
    return ResidualReport(
        name=name, grid=r.grid, max_norm=mx, l2_norm=l2,
        masked_points=int(np.count_nonzero(mask)),
        parts=(),
        details={"h_mean": mean, "h_spread": spread, "h_variance": variance,
                 "consistent": bool(spread <= tol)},
    )


def compatibility_residual(r: RhoField, H: MeanCurvature,
                           tol_unimodular: float = 1e-10,
                           name: str = "potential_compatibility",
                           exclude_rings: int = 0) -> ResidualReport:
    """Cross-derivative compatibility of the potential defined by
    d phi = ln(d ln rho), dbar phi = ln H.

    The residual dbar(ln(d ln rho)) - d(ln H) is computed via logarithmic
    derivatives, avoiding branch cuts. Points with d ln rho = 0 are masked
    (a constant rho has no admissible potential).
    """
    _require_unimodular(r, tol_unimodular)
    grid = r.grid
    drho = d_z(r.rho)
    rho = r.rho.values
    mask0 = r.rho.mask | drho.mask
    with np.errstate(all="ignore"):
        w = np.where(mask0, 0, drho.values / np.where(mask0, 1.0, rho))
    wscale = float(np.max(np.abs(w), initial=0.0))
    mask = mask0 | (np.abs(w) < 1e-12 * max(wscale, 1e-300))

    wf = ComplexField._derived(grid, np.where(mask, 0, w), mask)
    dw = d_zbar(wf)
    lz, _, lmask = H.log_derivatives(grid)
    totmask = mask | dw.mask | lmask
    with np.errstate(all="ignore"):
        vals = np.where(totmask, 0, dw.values / np.where(totmask, 1.0, w) - lz)
    return report_from_parts(name, grid, [("compatibility", vals, totmask)],
                             exclude_rings=exclude_rings)
