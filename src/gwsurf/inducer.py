"""Surface inducing: from a spinor solution to coordinates in R^3.

The three coordinate functions come from line integrals of spinor
bilinears,

    X1 + i X2 = 2i Int( conj(psi1)^2 dz' - conj(psi2)^2 dzbar' ),
    X1 - i X2 = 2i Int( psi2^2 dz' - psi1^2 dzbar' ),
    X3       = -2 Int( conj(psi1) psi2 dz' + psi1 conj(psi2) dzbar' ),

taken from a base point along grid-aligned paths (composite trapezoid,
second order, matching the stencil order everywhere else). The two
conservation laws make the integrands closed forms, so the integrals are
path independent up to discretization error; the module measures that
honestly (L-path against reversed-L) instead of assuming it.

Closing the loop: first and second fundamental forms of the sampled
surface give a numeric mean curvature to compare against the prescribed
one (on |H|, since the inducing formulas fix no normal orientation), and
a numeric Gauss curvature to compare against the intrinsic formula from
the density.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .calculus import _cumulative_trapezoid, d_z, d_zbar, dx, dxx, dxy, dy, dyy
from .grid import ComplexField, GridSpec, NumericalBreakdown, RealField, _write_grid_csv
from .reporting import ResidualReport, norms, report_from_parts
from .weierstrass import MeanCurvature, SpinorField, density_p

__all__ = [
    "Surface", "FundamentalForms",
    "induce_surface", "path_independence_report",
    "fundamental_forms", "mean_curvature_numeric", "gauss_curvature_numeric",
    "gauss_curvature_consistency", "rigid_string_residual",
    "export_mesh", "load_mesh_vertices", "surface_to_csv",
]


@dataclass(frozen=True)
class Surface:
    """Coordinate fields over the grid plus inducing diagnostics.

    imag_residue is the largest imaginary part left in the coordinate
    integrals (they are real by construction; the residue is reported, not
    dropped silently). determination_consistency compares the two
    independent determinations of X1 + i X2.
    """

    x1: RealField
    x2: RealField
    x3: RealField
    basepoint: complex
    imag_residue: float
    determination_consistency: float
    degenerate: bool

    @property
    def grid(self) -> GridSpec:
        return self.x1.grid

    @property
    def mask(self) -> np.ndarray:
        return self.x1.mask | self.x2.mask | self.x3.mask


def _one_forms(s: SpinorField):
    """(A, B) coefficient arrays of the three inducing one-forms A dz + B dzbar."""
    p1, p2 = s.psi1.values, s.psi2.values
    c1, c2 = np.conj(p1), np.conj(p2)
    return [
        (2j * c1**2, -2j * c2**2),        # X1 + i X2
        (2j * p2**2, -2j * p1**2),        # X1 - i X2
        (-2 * c1 * p2, -2 * p1 * c2),     # X3
    ]


def _seg_or(bad: np.ndarray, k0: int, axis: int) -> np.ndarray:
    """True where any bad point lies between index k0 and the target (inclusive)."""
    b = np.moveaxis(bad, axis, 0)
    out = np.zeros_like(b)
    out[k0:] = np.logical_or.accumulate(b[k0:], axis=0)
    out[: k0 + 1] = np.maximum(out[: k0 + 1],
                               np.logical_or.accumulate(b[k0::-1], axis=0)[::-1])
    return np.moveaxis(out.astype(bool), 0, axis)


def _cum_from(vals: np.ndarray, h: float, axis: int, k0: int) -> np.ndarray:
    c = _cumulative_trapezoid(vals, h, axis)
    ref = np.take(c, k0, axis=axis)
    return c - np.expand_dims(ref, axis)


def _integrate_path(A, B, grid, i0, j0, mask, order: str):
    """Trapezoid line integral of A dz + B dzbar along a rectilinear path.

    order 'xy': along the base row (real direction) then up the column;
    order 'yx': along the base column (imaginary direction) then the row.
    Along a row dz = dzbar = dx; along a column dz = i dy, dzbar = -i dy.
    """
    horiz = A + B
    vert = 1j * (A - B)
    if order == "xy":
        row = _cum_from(horiz[:, j0], grid.hx, 0, i0)
        col = _cum_from(vert, grid.hy, 1, j0)
        phi = row[:, None] + col
        rowbad = _seg_or(mask[:, j0][:, None], i0, 0)
        bad = np.broadcast_to(rowbad, mask.shape) | _seg_or(mask, j0, 1)
    elif order == "yx":
        col = _cum_from(vert[i0, :], grid.hy, 0, j0)
        row = _cum_from(horiz, grid.hx, 0, i0)
        phi = col[None, :] + row
        colbad = _seg_or(mask[i0, :][None, :], j0, 1)
        bad = np.broadcast_to(colbad, mask.shape) | _seg_or(mask, i0, 0)
    else:
        raise ValueError(order)
    return phi, bad


def _resolve_basepoint(grid: GridSpec, z0) -> tuple[int, int]:
    if z0 is None:
        return grid.center_index()
    if isinstance(z0, tuple):
        x0, y0 = z0
    else:
        z0 = complex(z0)
        x0, y0 = z0.real, z0.imag
    return grid.index_of(x0, y0)


def closedness_defect(s: SpinorField) -> float:
    """Max norm of d(B) - dbar(A) over the three inducing one-forms."""
    worst = 0.0
    mask = s.mask
    for A, B in _one_forms(s):
        fa = ComplexField(s.grid, np.where(mask, 0, A), mask)
        fb = ComplexField(s.grid, np.where(mask, 0, B), mask)
        da = d_zbar(fa)
        db = d_z(fb)
        mx, _ = norms(db.values - da.values, s.grid, da.mask | db.mask)
        worst = max(worst, mx)
    return worst


def induce_surface(s: SpinorField, z0=None, warn_tol: float = 1e-3) -> Surface:
    """Build the surface coordinates from a spinor by L-path integrals.

    Warns (does not fail) when the inducing one-forms are measurably not
    closed, since then the result is path dependent. A vanishing spinor
    produces the degenerate single-point surface, flagged as such.
    """
    grid = s.grid
    i0, j0 = _resolve_basepoint(grid, z0)
    if s.mask[i0, j0]:
        raise ValueError("basepoint is masked")

    defect = closedness_defect(s)
    if defect > warn_tol:
        warnings.warn(f"inducing one-forms are not closed (defect {defect:.3e}); "
                      "surface coordinates will be path dependent", stacklevel=2)

    phis = []
    badmask = np.zeros(grid.shape, dtype=bool)
    for A, B in _one_forms(s):
        phi, bad = _integrate_path(A, B, grid, i0, j0, s.mask, "xy")
        phis.append(phi)
        badmask |= bad
    if badmask.all():
        raise NumericalBreakdown("every integration path crosses a masked point")

    plus, minus, three = phis
    x1c = 0.5 * (plus + minus)
    x2c = (plus - minus) / 2j
    x3c = three

    imag_residue = max(float(np.max(np.abs(c.imag[~badmask]), initial=0.0))
                       for c in (x1c, x2c, x3c))
    consistency = float(np.max(np.abs(plus - np.conj(minus))[~badmask], initial=0.0))
    degenerate = float(np.max(density_p(s).values, initial=0.0)) < 1e-14

    xs = grid.xs()
    ys = grid.ys()
    return Surface(
        x1=RealField(grid, np.where(badmask, 0, x1c.real), badmask),
        x2=RealField(grid, np.where(badmask, 0, x2c.real), badmask),
        x3=RealField(grid, np.where(badmask, 0, x3c.real), badmask),
        basepoint=complex(xs[i0], ys[j0]),
        imag_residue=imag_residue,
        determination_consistency=consistency,
        degenerate=degenerate,
    )


def path_independence_report(s: SpinorField, z0, z1,
                             name: str = "path_independence") -> ResidualReport:
    """|X(L-path) - X(reversed-L)| at z1, maximized over the coordinates."""
    grid = s.grid
    i0, j0 = _resolve_basepoint(grid, z0)
    i1, j1 = _resolve_basepoint(grid, z1)

    worst = 0.0
    per = {}
    for label, (A, B) in zip(("plus", "minus", "x3"), _one_forms(s)):
        phi_a, bad_a = _integrate_path(A, B, grid, i0, j0, s.mask, "xy")
        phi_b, bad_b = _integrate_path(A, B, grid, i0, j0, s.mask, "yx")
        if bad_a[i1, j1] or bad_b[i1, j1]:
            raise NumericalBreakdown("a comparison path crosses a masked point")
        diff = abs(phi_a[i1, j1] - phi_b[i1, j1])
        per[label] = float(diff)
        worst = max(worst, float(diff))
    return ResidualReport(name=name, grid=grid, max_norm=worst, l2_norm=worst,
                          masked_points=int(np.count_nonzero(s.mask)),
                          details=per)


@dataclass(frozen=True)
class FundamentalForms:
    """First (E, F, G) and second (e, f, g) fundamental forms plus the unit normal."""

    E: RealField
    F: RealField
    G: RealField
    e: RealField
    f: RealField
    g: RealField
    normal: np.ndarray            # (3, nx, ny)
    degenerate_mask: np.ndarray   # immersion failure: EG - F^2 <= eps

    @property
    def grid(self) -> GridSpec:
        return self.E.grid

    @property
    def mask(self) -> np.ndarray:
        return self.E.mask

    @property
    def fully_degenerate(self) -> bool:
        free = ~self.E.mask
        return bool(np.all(self.degenerate_mask[free])) if free.any() else True


def fundamental_forms(srf: Surface, degeneracy_eps: float = 1e-18) -> FundamentalForms:
    """Forms of the sampled surface from second-order stencils.

    Points where EG - F^2 <= eps are flagged degenerate (not an immersion
    there) and masked in the curvature fields derived from the forms.
    """
    comps = (srf.x1, srf.x2, srf.x3)
    Xx = [dx(c) for c in comps]
    Xy = [dy(c) for c in comps]
    Xxx = [dxx(c) for c in comps]
    Xyy = [dyy(c) for c in comps]
    Xxy = [dxy(c) for c in comps]

    mask = srf.mask.copy()
    for fields in (Xx, Xy, Xxx, Xyy, Xxy):
        for f in fields:
            mask |= f.mask

    ax = np.stack([f.values for f in Xx])
    ay = np.stack([f.values for f in Xy])
    E = np.einsum("kij,kij->ij", ax, ax)
    F = np.einsum("kij,kij->ij", ax, ay)
    G = np.einsum("kij,kij->ij", ay, ay)

    w2 = E * G - F**2
    degenerate = (w2 <= degeneracy_eps) & ~mask
    safe_w = np.sqrt(np.where(w2 > degeneracy_eps, w2, 1.0))

    cross = np.stack([
        ax[1] * ay[2] - ax[2] * ay[1],
        ax[2] * ay[0] - ax[0] * ay[2],
        ax[0] * ay[1] - ax[1] * ay[0],
    ])
    normal = cross / safe_w

    sxx = np.stack([f.values for f in Xxx])
    syy = np.stack([f.values for f in Xyy])
    sxy = np.stack([f.values for f in Xxy])
    e = np.einsum("kij,kij->ij", normal, sxx)
    f_ = np.einsum("kij,kij->ij", normal, sxy)
    g = np.einsum("kij,kij->ij", normal, syy)

    formmask = mask | degenerate

    def fld(v):
        return RealField(srf.grid, np.where(formmask, 0, v), formmask)

    return FundamentalForms(E=fld(E), F=fld(F), G=fld(G),
                            e=fld(e), f=fld(f_), g=fld(g),
                            normal=np.where(formmask[None, :, :], 0, normal),
                            degenerate_mask=degenerate)


def mean_curvature_numeric(ff: FundamentalForms) -> RealField:
    """H = (eG - 2fF + gE) / (2 (EG - F^2)); sign depends on orientation."""
    mask = ff.mask
    E, F, G = ff.E.values, ff.F.values, ff.G.values
    e, f, g = ff.e.values, ff.f.values, ff.g.values
    w2 = np.where(mask, 1.0, E * G - F**2)
    vals = (e * G - 2 * f * F + g * E) / (2 * w2)
    return RealField(ff.grid, np.where(mask, 0, vals), mask)


def gauss_curvature_numeric(ff: FundamentalForms) -> RealField:
    """K = (eg - f^2) / (EG - F^2)."""
    mask = ff.mask
    w2 = np.where(mask, 1.0, ff.E.values * ff.G.values - ff.F.values**2)
    vals = (ff.e.values * ff.g.values - ff.f.values**2) / w2
    return RealField(ff.grid, np.where(mask, 0, vals), mask)


def gauss_curvature_consistency(ff: FundamentalForms, p: RealField,
                                name: str = "gauss_consistency") -> ResidualReport:
    """K from the forms against K from the intrinsic density formula."""
    from .weierstrass import gaussian_curvature_from_p
    k_num = gauss_curvature_numeric(ff)
    k_form = gaussian_curvature_from_p(p)
    mask = k_num.mask | k_form.mask
    return report_from_parts(name, ff.grid,
                             [("k_difference", k_num.values - k_form.values, mask)])


def _laplace_beltrami(ff: FundamentalForms, field: RealField) -> RealField:
    """Surface Laplacian via the metric: div(sqrt(g) g^{ab} grad)/sqrt(g)."""
    mask = ff.mask | field.mask
    E, F, G = ff.E.values, ff.F.values, ff.G.values
    w = np.sqrt(np.where(mask, 1.0, E * G - F**2))
    fx = dx(field)
    fy = dy(field)
    P = (G * fx.values - F * fy.values) / w
    Q = (E * fy.values - F * fx.values) / w
    mask = mask | fx.mask | fy.mask
    Pf = RealField(ff.grid, np.where(mask, 0, P), mask)
    Qf = RealField(ff.grid, np.where(mask, 0, Q), mask)
    dP = dx(Pf)
    dQ = dy(Qf)
    outmask = mask | dP.mask | dQ.mask
    vals = (dP.values + dQ.values) / w
    return RealField(ff.grid, np.where(outmask, 0, vals), outmask)


def rigid_string_residual(H: MeanCurvature, K: RealField, gamma: float, alpha: float,
                          ff: FundamentalForms,
                          name: str = "rigid_string") -> ResidualReport:
    """Pointwise Euler-Lagrange residual -2 gamma H + alpha (Lap H + 2 H^3 + R H).

    The scalar curvature enters through R = -2K. The boundary ring is
    excluded from the norm because the Laplace-Beltrami stencil composes
    two first derivatives there.
    """
    grid = ff.grid
    h = H.sample(grid)
    lap = _laplace_beltrami(ff, h)
    mask = h.mask | lap.mask | K.mask
    vals = -2 * gamma * h.values + alpha * (lap.values + 2 * h.values**3
                                            - 2 * K.values * h.values)
    return report_from_parts(name, grid, [("euler_lagrange", np.where(mask, 0, vals), mask)],
                             exclude_rings=1)


def export_mesh(srf: Surface, path) -> tuple[int, int]:
    """Write the surface as an OBJ mesh; deterministic byte-for-byte.

    One `v` line per unmasked grid vertex in row-major (i, j) order; each
    fully-unmasked grid cell becomes two triangles. Returns (vertex
    count, face count). Coordinates print as Python float reprs; the file
    is written one grid row at a time.
    """
    mask = srf.mask
    if mask.all():
        raise NumericalBreakdown("fully masked surface; nothing to export")
    keep = ~mask
    count = int(np.count_nonzero(keep))
    idx = np.zeros(mask.shape, dtype=np.int64)
    idx[keep] = np.arange(1, count + 1)
    # cell (i, j) has corners (i, j), (i+1, j), (i+1, j+1), (i, j+1)
    corners = (idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:])
    whole = np.all([c > 0 for c in corners], axis=0)
    coords = (srf.x1.values, srf.x2.values, srf.x3.values)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for i, row in enumerate(keep):
            xyz = [map(repr, c[i, row].tolist()) for c in coords]
            fh.write("".join(map("v {} {} {}\n".format, *xyz)))
        for i, row in enumerate(whole):
            abcd = [c[i, row].tolist() for c in corners]
            fh.write("".join(map("f {0} {1} {2}\nf {0} {2} {3}\n".format, *abcd)))
    return count, 2 * int(np.count_nonzero(whole))


def load_mesh_vertices(path) -> np.ndarray:
    """Read back OBJ vertex coordinates (row-major order of export)."""
    verts = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("v "):
                _, xs, ys, zs = line.split()
                verts.append((float(xs), float(ys), float(zs)))
    return np.asarray(verts, dtype=float)


def surface_to_csv(srf: Surface, path, ff: FundamentalForms | None = None) -> None:
    """Dump x, y, X1, X2, X3, H_num, K_num rows for external plotting.

    `ff` are the surface's fundamental forms when the caller already has
    them; they are computed otherwise.
    """
    if ff is None:
        ff = fundamental_forms(srf)
    cols = (srf.x1.values, srf.x2.values, srf.x3.values,
            mean_curvature_numeric(ff).values, gauss_curvature_numeric(ff).values)
    _write_grid_csv(path, srf.grid, "x,y,X1,X2,X3,H_num,K_num", cols)
