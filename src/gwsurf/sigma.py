"""The rho-representation and its second-order sigma-model system.

rho = psi1 / conj(psi2) turns the first-order spinor system into

    d dbar rho - 2 conj(rho) (1+|rho|^2)^{-1} d rho dbar rho
        = dbar(ln H) d rho,

together with its conjugate. The inverse transform

    psi1 = eps rho (dbar conj(rho))^{1/2} / (H^{1/2} (1+|rho|^2)),
    psi2 = eps (d rho)^{1/2} / (H^{1/2} (1+|rho|^2)),   eps = +-1,

requires H > 0 and a square-root branch. Branch policy: principal branch
pointwise, then a sign-continuation sweep from a reference point so that
grid neighbors stay continuous. gwsurf takes eps = +1: the spinor system
is linear in (psi1, psi2), so -psi is the other preimage of rho.
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

from .calculus import _once, d_z, d_zbar, mixed_dzbar_dz
from .closedform import conj, pointwise, sqrt
from .grid import ComplexField, GridSpec, NumericalBreakdown, RealField, _shared
from .reporting import (STENCIL_RINGS, ResidualPart, ResidualReport, _masked_count, _unmasked,
                        joined, norms, report_from_parts)
from .weierstrass import SpinorField, log_derivatives

__all__ = [
    "SpinMatrix", "LLCommutator",
    "rho_from_psi", "psi_from_rho", "sigma_residual", "apply_discrete_symmetry",
    "spin_matrix", "ll_commutator", "landau_lifshitz_residual",
    "deformed_ll_residual", "multisoliton_product",
    "unimodular_H_constancy_check", "compatibility_residual",
]


def rho_from_psi(s: SpinorField) -> ComplexField:
    """rho = psi1 / conj(psi2); zeros of psi2 are masked."""
    a = np.abs(s.psi2.stored[0])
    scale = float(np.max(a, initial=0.0))
    if scale == 0.0:
        raise NumericalBreakdown("psi2 vanishes identically; rho undefined")
    return pointwise(lambda p1, p2: p1 / conj(p2), s.psi1, s.psi2, mask=a < 1e-14 * scale)


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


def psi_pair(rho, drho, h):
    """The square-root transform: (psi1, psi2) from rho, d rho and H.

    w = sqrt(d rho), den = sqrt(H) (1 + rho conj(rho)), psi1 = rho
    conj(w) / den and psi2 = w / den, written with closedform's
    functions so that it runs on jets and on plain arrays alike.
    """
    w = sqrt(drho)
    den = sqrt(h) * (1 + rho * conj(rho))
    return rho * conj(w) / den, w / den


def psi_from_rho(rho: ComplexField, h: RealField) -> SpinorField:
    """Invert the representation: build the spinor pair from rho and H.

    Points where |d rho| is below 1e-12 of its largest value are masked
    (the square root degenerates there); H must be positive on the
    unmasked region. Each component is `psi_pair` of rho, d rho and H,
    with an analytic source when all three have one. Where the branch
    continuation flips a sign, a component is the principal one times
    that sign, in its values and in every slot of its source alike.
    """
    _, mask = _shared(rho, h)
    if np.any((h.stored[0] <= 0) & ~mask):
        raise NumericalBreakdown("transform requires H > 0 at unmasked points")

    drho = d_z(rho)
    dr, dmask = drho.stored
    scale = float(np.max(np.abs(dr), initial=0.0))
    mask = mask | dmask | (np.abs(dr) < 1e-12 * max(scale, 1e-300))
    psi = [pointwise(lambda r, dr, hv, k=k: psi_pair(r, dr, hv)[k],
                     rho, drho, h, mask=mask) for k in (0, 1)]

    # flipping sqrt(d rho) flips both components; on a column, the sweep
    # along y finds nothing to flip. The sign is constant between flips, so
    # the continued branch's jet is the principal jet times the sign
    sign = _continue_sign(np.sqrt(dr), ~mask)
    if np.any((sign < 0) & ~mask):
        psi = [pointwise(lambda v: sign * v, f) for f in psi]
    return SpinorField(*psi)


def sigma_residual(rho: ComplexField, h: RealField) -> ResidualReport:
    """Residuals of the second-order sigma-model system and its conjugate.

    A rho with an analytic source is judged at every point; a stencil-path
    rho (no source) leaves out STENCIL_RINGS boundary rings, where its
    mixed derivative composes two one-sided stencils.
    """
    grid, mask = _shared(rho, h)
    lz, lzb, lmask = log_derivatives(h)

    drho, m1 = d_z(rho).stored
    dbrho, m2 = d_zbar(rho).stored
    mix, m3 = mixed_dzbar_dz(rho).stored
    mask = mask | m1 | m2 | m3 | lmask

    r = rho.stored[0]
    m = 1.0 + np.abs(r) ** 2
    res1 = mix - 2.0 * np.conj(r) / m * drho * dbrho - lzb * drho
    res2 = np.conj(mix) - 2.0 * r / m * np.conj(drho) * np.conj(dbrho) - lz * np.conj(drho)
    return report_from_parts(grid, [("rho", res1, mask), ("conj_rho", res2, mask)],
                             exclude_rings=0 if rho.source is not None else STENCIL_RINGS)


def apply_discrete_symmetry(rho: ComplexField, which: str) -> ComplexField:
    """Discrete symmetries of the sigma system: 'Z2' (rho -> -rho) and
    'I' (rho -> 1/rho, zeros masked)."""
    if which == "Z2":
        return pointwise(operator.neg, rho)
    if which == "I":
        return pointwise(lambda r: 1.0 / r, rho, mask=np.abs(rho.stored[0]) < 1e-8)
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

    def entries(self):
        return (self.s11, self.s12, self.s21, self.s22)

    def algebra_report(self) -> ResidualReport:
        """Hermiticity, tracelessness and involution defects."""
        a, b, c, d = (e.stored[0] for e in self.entries())
        _, mask = _shared(*self.entries())
        parts = [
            ("hermitian_diag", np.abs(a.imag) + np.abs(d.imag), mask),
            ("hermitian_off", b - np.conj(c), mask),
            ("trace", a + d, mask),
            ("involution_11", a * a + b * c - 1.0, mask),
            ("involution_12", b * (a + d), mask),
            ("involution_21", c * (a + d), mask),
            ("involution_22", d * d + b * c - 1.0, mask),
        ]
        return report_from_parts(self.grid, parts)


def spin_matrix(rho: ComplexField) -> SpinMatrix:
    # entries as functions of rho and m = 1 + |rho|^2
    entries = (lambda rho, m: (2.0 - m) / m, lambda rho, m: 2.0 * conj(rho) / m,
               lambda rho, m: 2.0 * rho / m, lambda rho, m: (m - 2.0) / m)
    return SpinMatrix(*(pointwise(lambda r, e=e: e(r, 1.0 + r * conj(r)), rho)
                        for e in entries))


@dataclass(frozen=True)
class LLCommutator:
    """The commutator [S, d dbar S] for the spin matrix S of `rho`: its
    four entries (c11, c12, c21, c22) and the union of their masks, as
    stored arrays (columns when rho is one, see grid)."""

    rho: ComplexField
    entries: tuple
    mask: np.ndarray

    @property
    def grid(self) -> GridSpec:
        return self.rho.grid


def ll_commutator(rho: ComplexField) -> LLCommutator:
    """[S, d dbar S] for S = spin_matrix(rho), which both spin equations
    read. Each entry of S is differentiated once, so its stencils go as
    soon as its d dbar is formed."""
    S = spin_matrix(rho)
    dd = [_once(mixed_dzbar_dz, e) for e in S.entries()]
    a, b, c, d = (e.stored[0] for e in S.entries())
    e11, e12, e21, e22 = (e.stored[0] for e in dd)

    c11 = b * e21 - c * e12
    c12 = a * e12 + b * e22 - e11 * b - e12 * d
    c21 = c * e11 + d * e21 - e21 * a - e22 * c
    c22 = c * e12 - b * e21
    _, mask = _shared(*S.entries(), *dd)
    return LLCommutator(rho, (c11, c12, c21, c22), mask)


def landau_lifshitz_residual(c: LLCommutator) -> ResidualReport:
    """Max norm of the commutator [S, d dbar S]. Boundary rings are left
    out as in `sigma_residual`, by the source of `c.rho`."""
    parts = [(k, e, c.mask) for k, e in zip(("c11", "c12", "c21", "c22"), c.entries)]
    return report_from_parts(c.grid, parts,
                             exclude_rings=0 if c.rho.source is not None else STENCIL_RINGS)


def deformed_ll_residual(c: LLCommutator, h: RealField) -> ResidualReport:
    """Residual of [S, d dbar S] + R*Hmat, the inhomogeneous spin equation,
    for the commutator `c` of rho and the mean curvature `h`.

    Vanishes modulo the sigma-model system; for constant H the
    inhomogeneity is zero and this reduces to the homogeneous equation.
    The pointwise matrices R (rho-dependent) and Hmat (ln H derivatives)
    have entry signs fixed by the commutator identity

        [S, d dbar S] = 4 (1+|rho|^2)^{-2} [[cb f - rho fb, cb^2 f + fb],
                                            [-(f + rho^2 fb), rho fb - cb f]]

    (cb = conj(rho), f the sigma operator applied to rho, fb its
    conjugate), derived by formal jet computation; R*Hmat must cancel the
    ln-H part of f and fb entrywise. Hmat's lower-right entry contains
    1/rho, so points with |rho| < 1e-8 are masked rather than regularized
    (regularizing would change the identity being certified). Boundary
    rings are left out as in `sigma_residual`, by the source of `c.rho`.
    """
    rho = c.rho
    grid, _ = _shared(rho, h)
    c11, c12, c21, c22 = c.entries
    lz, lzb, lmask = log_derivatives(h)
    dr, dmask = d_z(rho).stored
    dbmask = d_zbar(rho).stored[1]
    r = rho.stored[0]
    rho_mask = rho.stored[1] | (np.abs(r) < 1e-8)
    mask = c.mask | lmask | dmask | dbmask | rho_mask

    cdr = np.conj(dr)   # dbar conj(rho)
    m = 1.0 + np.abs(r) ** 2
    pref = 4.0 / m**2
    with np.errstate(all="ignore"):
        inv_rho = np.where(rho_mask, 0, 1.0 / np.where(rho_mask, 1.0, r))
    r11, r12 = -pref * np.conj(r) * dr, pref * r * cdr
    r21, r22 = pref * dr, pref * r**2 * cdr
    # Hmat = [[dbar ln H, conj(rho) dbar ln H], [d ln H, -d ln H / rho]]
    h12, h22 = np.conj(r) * lzb, -inv_rho * lz
    parts = [
        ("e11", c11 + (r11 * lzb + r12 * lz), mask),
        ("e12", c12 + (r11 * h12 + r12 * h22), mask),
        ("e21", c21 + (r21 * lzb + r22 * lz), mask),
        ("e22", c22 + (r21 * h12 + r22 * h22), mask),
    ]
    return report_from_parts(grid, parts,
                             exclude_rings=0 if rho.source is not None else STENCIL_RINGS)


# how far |rho| may be from 1 in a unimodular input, and H from its mean in a
# consistent constant-H report
_UNIMODULAR_TOL = 1e-10


def _require_unimodular(rho: ComplexField) -> None:
    values, mask = rho.stored
    dev = np.abs(np.abs(values[~mask]) - 1.0)
    if dev.size == 0 or float(np.max(dev)) > _UNIMODULAR_TOL:
        raise ValueError("input is not unimodular (|rho| must equal 1)")


def multisoliton_product(r1: ComplexField, r2: ComplexField) -> ComplexField:
    """Product of two unimodular solutions; stays a solution for constant H."""
    _require_unimodular(r1)
    _require_unimodular(r2)
    return pointwise(operator.mul, r1, r2)


def unimodular_H_constancy_check(rho: ComplexField, h: RealField) -> ResidualReport:
    """Unimodular solutions force constant H; report the observed spread.

    The one part, h_spread, is H - mean(H) over unmasked points, so
    max_norm is the spread max |H - mean(H)|; details carry the mean, the
    variance, and a consistency flag (1 = constant within 1e-10).
    """
    grid, mask = _shared(rho, h)
    _require_unimodular(rho)
    vals = _unmasked(h.stored[0], grid, mask)
    if vals.size == 0:
        raise ValueError("no unmasked points to test")
    mean = float(np.mean(vals))
    spread = ResidualPart("h_spread", *norms(h.stored[0] - mean, grid, mask))
    return joined(grid, _masked_count(mask, grid), [spread], {
        "h_mean": mean, "h_variance": float(np.var(vals)),
        "consistent": bool(spread.max_norm <= _UNIMODULAR_TOL)})


def compatibility_residual(rho: ComplexField, h: RealField) -> ResidualReport:
    """Cross-derivative compatibility of the potential defined by
    d phi = ln(d ln rho), dbar phi = ln H.

    The residual dbar(ln(d ln rho)) - d(ln H) is computed via logarithmic
    derivatives, avoiding branch cuts. Points with d ln rho = 0 are masked
    (a constant rho has no admissible potential). w = d ln rho keeps an
    analytic source when rho has one, so dbar w is then exact. The
    STENCIL_RINGS boundary rings are left out.
    """
    grid, _ = _shared(rho, h)
    _require_unimodular(rho)
    w = pointwise(operator.truediv, d_z(rho), rho)
    wv = np.abs(w.stored[0])
    # the same w and source, also masked where |w| is negligible
    w = pointwise(lambda v: v, w, mask=wv < 1e-12 * max(float(np.max(wv, initial=0.0)), 1e-300))

    dw, dwmask = d_zbar(w).stored
    lz, _, lmask = log_derivatives(h)
    wv, wmask = w.stored
    totmask = wmask | dwmask | lmask
    with np.errstate(all="ignore"):
        vals = np.where(totmask, 0, dw / np.where(totmask, 1.0, wv) - lz)
    return report_from_parts(grid, [("compatibility", vals, totmask)],
                             exclude_rings=STENCIL_RINGS)
