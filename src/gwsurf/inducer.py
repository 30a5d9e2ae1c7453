"""Surface inducing: from a spinor solution to coordinates in R^3.

The three coordinate functions come from line integrals of spinor
bilinears,

    X1 + i X2 = 2i Int( conj(psi1)^2 dz' - conj(psi2)^2 dzbar' ),
    X1 - i X2 = 2i Int( psi2^2 dz' - psi1^2 dzbar' ),
    X3       = -2 Int( conj(psi1) psi2 dz' + psi1 conj(psi2) dzbar' ),

taken from a base point along grid-aligned paths (composite trapezoid,
second order, matching the stencil order everywhere else). For any
spinor, the form of X1 - i X2 is the conjugate of that of X1 + i X2, and
X3's is real: X1 and X2 are the real and imaginary parts of the one
integral of X1 + i X2. The two conservation laws make the integrands
closed forms, so the integrals are path independent up to discretization
error; the module measures that honestly (L-path against reversed-L)
instead of assuming it. Each coordinate is integrated from its line
forms as stored, and is a column (see grid) when its y-line form is
zero and the spinor's mask is a column.

Closing the loop: the first and second fundamental forms of the sampled
surface give a numeric mean curvature to compare against the prescribed
one (on |H|, since the inducing formulas fix no normal orientation), and
a numeric Gauss curvature to compare against the intrinsic formula from
the density; `fundamental_forms` returns those two curvatures.
"""
import math
import warnings
from typing import NamedTuple

import numpy as np

from .calculus import _integrate_from, _once, dx, dxx, dy, dyy
from .grid import ComplexField, GridSpec, NumericalBreakdown, RealField, _shared
from .reporting import RATIO_MIN, ResidualPart, ResidualReport, _masked_count, joined
from .weierstrass import SpinorField, potential_conservation_residual

__all__ = [
    "Surface", "FundamentalForms",
    "induce_surface", "path_independence_report",
    "fundamental_forms",
    "export_mesh",
]


class Surface(NamedTuple):
    """Coordinate fields over the grid, integrated from a basepoint. X1 and
    X2 are the real and imaginary parts of the one integral of X1 + i X2.
    A coordinate may be stored as one column (see grid), as
    `induce_surface` stores one whose y-line form is zero under a column
    mask."""

    x1: RealField
    x2: RealField
    x3: RealField

    @property
    def grid(self) -> GridSpec:
        return self.x1.grid

    @property
    def mask(self) -> np.ndarray:
        """The union of the coordinates' stored masks, as a new array of
        the grid's shape."""
        mask = np.zeros(self.grid.shape, dtype=bool)
        for c in (self.x1, self.x2, self.x3):
            mask |= c.stored[1]
        return mask


def _one_forms(s: SpinorField):
    """(A, B) coefficient arrays of the inducing one-forms A dz + B dzbar of
    X1 + i X2 and of X3, as stored (columns for a compact spinor, see grid).
    X1 - i X2's form, (2i psi2^2, -2i psi1^2), is (conj B, conj A) of the
    first; X3's B is conj A."""
    p1, p2 = s.psi1.stored[0], s.psi2.stored[0]
    c1, c2 = np.conj(p1), np.conj(p2)
    return [
        (2j * c1**2, -2j * c2**2),        # X1 + i X2
        (-2 * c1 * p2, -2 * p1 * c2),     # X3
    ]


def _line_forms(s: SpinorField):
    """The line forms A dz + B dzbar along a row (dz = dzbar = dx) and along
    a column (dz = i dy, dzbar = -i dy) of X1 + i X2 and of X3, as stored
    (columns for a compact spinor). X3's are the real parts: their
    imaginary parts are zero (-0.0 where a part of psi is an exact zero)."""
    plus, x3 = ([A + B, 1j * (A - B)] for A, B in _one_forms(s))
    return plus, [f.real for f in x3]


def _integrate_path(fx, fy, grid, i0, j0, mask):
    """Trapezoid line integral of the line forms `fx` (along a row) and
    `fy` (along a column) from (i0, j0) to every grid point, along the base
    row (real direction) then along the column, and where that path
    crosses a masked point. The forms and `mask` may be columns. Under a
    column mask, a `fy` with no nonzero entry gives the base row's
    integral as a column, plus the +0.0 that the integral along y is at
    j0; otherwise `fy` is integrated on the whole grid."""
    wide = np.broadcast_to(mask, grid.shape)
    # the base row through the basepoint, kept two-dimensional to broadcast
    phi0, bad0 = _integrate_from(np.broadcast_to(fx, grid.shape)[:, [j0]], wide[:, [j0]],
                                 grid.hx, 0, i0)
    if mask.shape[1] == 1 and not fy.any():
        return phi0 + 0.0, bad0 | mask
    phi, bad = _integrate_from(np.broadcast_to(fy, grid.shape), wide, grid.hy, 1, j0)
    return phi0 + phi, bad0 | bad


def _resolve_basepoint(grid: GridSpec, z0) -> tuple[int, int]:
    if z0 is None:
        return grid.center_index()
    if isinstance(z0, tuple):
        x0, y0 = z0
    else:
        z0 = complex(z0)
        x0, y0 = z0.real, z0.imag
    return grid.index_of(x0, y0)


def _shrinks_like_h2(s: SpinorField, defect: float) -> bool:
    """Whether the every-other-point subgrid (spacings 2hx, 2hy) measures at
    least RATIO_MIN times `defect`, the conservation residual of the
    stencil-path spinor `s` on its grid: then `defect` is the O(h^2) error
    of the stencils, not forms that fail to close. False when that subgrid
    is too small for the stencils."""
    grid = s.grid
    nx, ny = (grid.nx + 1) // 2, (grid.ny + 1) // 2
    if min(nx, ny) < 3:
        return False
    coarse = GridSpec(grid.x_min, grid.x_min + 2 * grid.hx * (nx - 1),
                      grid.y_min, grid.y_min + 2 * grid.hy * (ny - 1), nx, ny)
    sub = SpinorField(*(ComplexField._derived(coarse, v[::2, ::2], m[::2, ::2], finite=True)
                        for v, m in (s.psi1.stored, s.psi2.stored)))
    return potential_conservation_residual(sub).max_norm >= RATIO_MIN * defect


def induce_surface(s: SpinorField, z0=None) -> Surface:
    """Build the surface coordinates from a spinor by L-path integrals of
    X1 + i X2 and X3; X1 and X2 are the real and imaginary parts of the
    first.

    Warns (does not fail) when the inducing one-forms are measurably not
    closed, since then the result is path dependent. Their closedness
    conditions are the two conservation laws (d(B) - dbar(A) is -2i times
    the conjugate of the potential law for X1 + i X2, -2 times the
    bilinear law for X3), so it warns when the stencil-path
    `potential_conservation_residual` exceeds 5e-4 and does not shrink
    like h^2 (the stencils leave an O(h^2) defect on exact solutions too).
    A vanishing spinor produces the single-point surface, whose
    fundamental forms are fully degenerate. Raises NumericalBreakdown when
    every path crosses a masked point, as every path from a masked
    basepoint does.

    X1, X2 and X3 are three real line integrals: of the real and the
    imaginary parts of X1 + i X2's line forms, then of X3's. A coordinate
    is stored as a column (see grid) when its y-line form is zero and the
    spinor's mask is a column: then it is constant along y and nothing is
    integrated along y. On a real spinor the y-line forms of X2 and X3 are
    zeros, so on rational, exponential and trig X2 and X3 are columns and
    X1 is grid-shaped; on unimodular and holomorphic every coordinate is
    grid-shaped.
    """
    grid, mask = _shared(s)
    i0, j0 = _resolve_basepoint(grid, z0)

    stencil = s.without_sources()
    defect = potential_conservation_residual(stencil).max_norm
    if defect > 5e-4 and not _shrinks_like_h2(stencil, defect):
        warnings.warn(f"inducing one-forms are not closed (defect {defect:.3e}); "
                      "surface coordinates will be path dependent", stacklevel=2)

    (fx, fy), x3_forms = _line_forms(s)
    coords = []
    for forms in ((fx.real, fy.real), (fx.imag, fy.imag), x3_forms):
        values, bad = _integrate_path(*forms, grid, i0, j0, mask)
        if bad.all():
            raise NumericalBreakdown("every integration path crosses a masked point")
        coords.append(RealField._derived(grid, np.where(bad, 0, values), bad))
    return Surface(*coords)


def path_independence_report(s: SpinorField, z0, z1) -> ResidualReport:
    """|X(L-path) - X(reversed-L)| at z1: one part per integrated form,
    `plus` (X1 + i X2) and `x3`, each gap its part's max and L2 norm.

    The L-path runs along the row through z0, then along the column
    through z1 (`_integrate_path`'s); the reversed L runs along the column
    through z0, then along the row through z1. Only those four grid lines
    are integrated. Raises NumericalBreakdown when a path passes a masked
    point, its ends included."""
    grid, stored = _shared(s)
    i0, j0 = _resolve_basepoint(grid, z0)
    i1, j1 = _resolve_basepoint(grid, z1)
    mask = np.broadcast_to(stored, grid.shape)

    def along(form, line, h, k0, k1):
        phi, bad = _integrate_from(form[line], mask[line], h, 0, k0)
        if bad[k1]:
            raise NumericalBreakdown("a comparison path crosses a masked point")
        return phi[k1]

    parts = []
    for label, forms in zip(("plus", "x3"), _line_forms(s)):
        fx, fy = (np.broadcast_to(f, grid.shape) for f in forms)
        phi_a = (along(fx, np.s_[:, j0], grid.hx, i0, i1)
                 + along(fy, np.s_[i1, :], grid.hy, j0, j1))
        phi_b = (along(fy, np.s_[i0, :], grid.hy, j0, j1)
                 + along(fx, np.s_[:, j1], grid.hx, i0, i1))
        gap = float(abs(phi_a - phi_b))
        parts.append(ResidualPart(label, gap, gap))
    return joined(grid, _masked_count(stored, grid), parts)


class FundamentalForms(NamedTuple):
    """The mean and Gauss curvatures of a sampled surface, from its first
    (E, F, G) and second (e, f, g) fundamental forms, both masked where
    the surface is masked or not an immersion."""

    mean_curvature: RealField    # H = (eG - 2fF + gE) / (2 (EG - F^2)); sign by orientation
    gauss_curvature: RealField   # K = (eg - f^2) / (EG - F^2)

    @property
    def fully_degenerate(self) -> bool:
        return bool(self.mean_curvature.mask.all())


# EG - F^2 at or below which the sampled surface is not an immersion
_DEGENERATE = 1e-18


def fundamental_forms(srf: Surface) -> FundamentalForms:
    """Mean and Gauss curvatures of the sampled surface from its forms,
    made with second-order stencils.

    Points where EG - F^2 <= 1e-18 are degenerate (not an immersion there)
    and masked in both curvatures.

    The forms are summed one coordinate at a time: each of E, F, G, e, f
    and g starts from +0.0 and adds the products of X1, X2 and X3 in that
    order, as einsum("kij,kij->ij") sums three stacked coordinates, so the
    forms are bitwise einsum's (three -0.0 products sum to +0.0, where a
    plain sum of them stays -0.0). Each second derivative is made, added
    into its form and dropped; the first derivatives are stencilled through
    `_once` and dropped once the normal is formed (the x-derivatives once
    their dxy is), so no coordinate derivative outlives the forms or stays
    on the surface. The coordinates are read as stored: a column's
    derivatives are columns, its y-derivatives exact zeros (see calculus),
    and they broadcast into the grid-shaped forms. On induced rational
    data, whose X2 and X3 are columns, the function traces 6.2 MiB at
    251x251 and 15.8 MiB at 401x401 (7.8 and 19.8 MiB with every
    coordinate grid-shaped), against 25.2 and 64.3 MiB with the fifteen
    derivatives held at once and stacked for einsum.
    """
    grid = srf.grid
    mask = srf.mask

    def take(field):
        # the field's stored values; its mask joins the forms'
        values, fmask = field.stored
        np.logical_or(mask, fmask, out=mask)
        return values

    comps = (srf.x1, srf.x2, srf.x3)
    xs = [_once(dx, c) for c in comps]      # kept for dxy = dy(dx)
    ax = [take(f) for f in xs]
    ay = [take(_once(dy, c)) for c in comps]
    E, F, G = (np.zeros(grid.shape) for _ in range(3))
    for a, b in zip(ax, ay):
        E += a * a
        F += a * b
        G += b * b

    w2 = E * G - F**2
    low = w2 <= _DEGENERATE
    safe_w = np.sqrt(np.where(w2 > _DEGENERATE, w2, 1.0))
    normal = [(ax[(k + 1) % 3] * ay[(k + 2) % 3] - ax[(k + 2) % 3] * ay[(k + 1) % 3]) / safe_w
              for k in range(3)]
    del ax, ay, w2, safe_w

    e, f, g = (np.zeros(grid.shape) for _ in range(3))
    for k, c in enumerate(comps):
        e += normal[k] * take(dxx(c))
        g += normal[k] * take(dyy(c))
        f += normal[k] * take(dy(xs[k]))
        xs[k] = None

    del normal
    mask |= low
    w2 = np.where(mask, 1.0, E * G - F**2)

    def fld(v):
        return RealField._derived(grid, np.where(mask, 0, v), mask)

    return FundamentalForms(mean_curvature=fld((e * G - 2 * f * F + g * E) / (2 * w2)),
                            gauss_curvature=fld((e * g - f**2) / w2))


# grid rows formatted together: enough repeats to share each string within
# a block, while the tables stay small when every value is distinct; a
# value that recurs in the next block keeps its string. On distinct values
# at 251x251 the export's traced peak is 1.7 MiB at 8 rows, 2.7 at 16 and
# 5.4 at 32, so 16 rows keep it under 3 MiB with fewer, larger blocks
_BLOCK_ROWS = 16


def _reprs(values, last=None):
    """The Python float repr of each of `values`, as an "S" array of their
    shape, and the (keys, table) pair of their distinct bit patterns,
    sorted, and those patterns' reprs. Keying by bit pattern keeps 0.0
    and -0.0 apart. Each run of equal neighbouring patterns, in row-major
    order, is first reduced to its head, as a curvature constant along y
    repeats along each row. One argsort of the heads gives the keys, by
    comparing neighbours in sorted order, and each head's key index, by
    scattering the running key count back through it (a binary search per
    value is slower when most values are distinct); each value takes its
    run's. `last` is the pair of the same column's previous block: only
    the keys not in it are formatted, so a value is formatted once per run
    of consecutive blocks it appears in."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64).ravel()
    head = np.empty(bits.size, dtype=bool)
    head[0] = True
    np.not_equal(bits[1:], bits[:-1], out=head[1:])
    heads = bits[head]
    order = np.argsort(heads)
    ordered = heads[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    keys = ordered[first]
    new = np.ones(len(keys), dtype=bool)
    if last is not None:
        old_keys, old_table = last
        at = np.minimum(np.searchsorted(old_keys, keys), len(old_keys) - 1)
        np.not_equal(old_keys[at], keys, out=new)
    fresh = np.array(list(map(repr, keys[new].view(float).tolist())), dtype="S")
    if new.all():
        table = fresh
    else:
        table = np.empty(len(keys), np.promote_types(fresh.dtype, old_table.dtype))
        table[new] = fresh
        table[~new] = old_table[at[~new]]
    inverse = np.empty(heads.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    if heads.size < bits.size:
        inverse = inverse[np.cumsum(head) - 1]
    return table[inverse.reshape(np.shape(values))], (keys, table)


def _text(*cols) -> bytearray:
    """The text of `cols` side by side, element by element in row-major
    order, as bytes that a binary file's `write` takes as they are: each
    column is an "S" array, all broadcasting together, or a bytes constant
    such as b",". The columns are the fields of one structured array laid
    over one buffer, so each is written into it by one assignment. The
    NUL padding of the shorter values is dropped, so no value may contain
    a NUL byte."""
    cols = [np.asarray(c) for c in cols]
    shape = np.broadcast_shapes(*(c.shape for c in cols))
    dtype = np.dtype([(f"f{k}", c.dtype) for k, c in enumerate(cols)])
    buf = bytearray(dtype.itemsize * math.prod(shape))
    lines = np.frombuffer(buf, dtype).reshape(shape)
    for k, c in enumerate(cols):
        lines[f"f{k}"] = c
    return buf.translate(None, b"\0") if b"\0" in buf else buf


def _labels(n: int) -> np.ndarray:
    """The decimal strings of 0, 1, ..., n as one "S<digits of n>" array
    (what np.arange(n + 1).astype("S...") gives), written digit by digit
    into a byte table: the numbers of d digits are one slice of its rows,
    left-aligned and NUL-padded like the cast's."""
    w = len(str(n))
    table = np.zeros((n + 1, w), dtype=np.uint8)
    k = np.arange(n + 1, dtype=np.int32)
    for d in range(1, w + 1):
        rows = slice(10 ** (d - 1) if d > 1 else 0, min(10 ** d, n + 1))
        rest = k[rows]
        for c in range(d - 1, -1, -1):
            np.remainder(rest, 10, out=table[rows, c], casting="unsafe")
            rest //= 10
        table[rows, :d] += ord("0")
    return table.view(f"S{w}").reshape(n + 1)


def _write_faces(fh, keep: np.ndarray) -> int:
    """Write two triangles per grid cell whose four corners are all kept,
    indexing the kept vertices 1, 2, ... in row-major order; returns the
    face count. The index strings are gathered once into a grid, whose
    four shifted views are the cells' corners; a block of _BLOCK_ROWS cell
    rows drops the cells with a masked corner only when it holds one."""
    n = int(np.count_nonzero(keep))
    idx = np.zeros(keep.shape, dtype=np.int64)
    idx[keep] = np.arange(1, n + 1)
    labels = _labels(n)[idx]
    # cell (i, j) has corners (i, j), (i+1, j), (i+1, j+1), (i, j+1)
    corners = (labels[:-1, :-1], labels[1:, :-1], labels[1:, 1:], labels[:-1, 1:])
    whole = keep[:-1, :-1] & keep[1:, :-1] & keep[1:, 1:] & keep[:-1, 1:]
    for i in range(0, len(whole), _BLOCK_ROWS):
        rows = slice(i, i + _BLOCK_ROWS)
        cells = np.s_[:] if whole[rows].all() else whole[rows]
        a, b, c, d = (k[rows][cells] for k in corners)
        fh.write(_text(b"f ", a, b" ", b, b" ", c, b"\nf ", a, b" ", c, b" ", d, b"\n"))
    return 2 * int(np.count_nonzero(whole))


def export_mesh(srf: Surface, obj_path, csv_path, ff: FundamentalForms) -> tuple[int, int]:
    """Write the surface as an OBJ mesh to `obj_path` and the rows x, y, X1,
    X2, X3, H_num, K_num to `csv_path` for external plotting, in one pass;
    deterministic byte-for-byte. Returns the mesh's (vertex count, face
    count).

    The OBJ has one `v` line per unmasked grid vertex in row-major (i, j)
    order, then two triangles per fully-unmasked grid cell; the CSV has a
    row per grid point, row-major. `ff` are the surface's fundamental
    forms, for the CSV's curvatures. Values print as Python float reprs. The
    files are written a block of _BLOCK_ROWS (16) grid rows at a time: each
    value is formatted once per run of consecutive blocks it appears in,
    for both files, and each block's lines are laid into one byte buffer,
    ending in LF on every platform. Every field is read as stored: a
    coordinate kept as a column is formatted on its column, whose strings
    broadcast along the block's rows.
    """
    keep = ~srf.mask
    if not keep.any():
        raise NumericalBreakdown("fully masked surface; nothing to export")
    grid = srf.grid
    cols = [f.stored[0] for f in (srf.x1, srf.x2, srf.x3,
                                  ff.mean_curvature, ff.gauss_curvature)]
    (xs, _), (ys, _) = _reprs(grid.xs()), _reprs(grid.ys())
    last = [None] * len(cols)
    with open(obj_path, "wb") as obj, open(csv_path, "wb") as csv:
        csv.write(b"x,y,X1,X2,X3,H_num,K_num\n")
        for i in range(0, grid.nx, _BLOCK_ROWS):
            rows = slice(i, i + _BLOCK_ROWS)
            strings, last = zip(*(_reprs(c[rows], t) for c, t in zip(cols, last)))
            cells = [p for s in strings for p in (b",", s)]
            csv.write(_text(xs[rows, None], b",", ys, *cells, b"\n"))
            points = np.s_[:] if keep[rows].all() else keep[rows]
            x1, x2, x3 = (np.broadcast_to(s, keep[rows].shape)[points] for s in strings[:3])
            obj.write(_text(b"v ", x1, b" ", x2, b" ", x3, b"\n"))
        nfaces = _write_faces(obj, keep)
    return int(np.count_nonzero(keep)), nfaces

