"""Surface inducing, curvature closure, OBJ export."""
import warnings

import numpy as np
import pytest

import gwsurf
from gwsurf import (ComplexField, GridSpec, NumericalBreakdown, RealField, ResidualPart,
                    SpinorField, build_family, density_p, export_mesh, family_holomorphic,
                    family_rational, fundamental_forms, gaussian_curvature_from_p, induce_surface,
                    norms, path_independence_report, potential_conservation_residual)
from gwsurf.cli import main
from gwsurf.calculus import _integrate_from, dx, dxx, dy, dyy
from gwsurf.grid import _shared
from gwsurf.inducer import (_DEGENERATE, FundamentalForms, Surface, _integrate_path,
                            _line_forms, _one_forms, _resolve_basepoint)
from memtrace import traced_peak

G = GridSpec(-1, 1, -1, 1, 101, 101)


def zero_spinor(g=G):
    z = np.zeros(g.shape, complex)
    return SpinorField(ComplexField(g, z), ComplexField(g, z))


def param_surface(g, fx, fy, fz, mask=None):
    X, Y = np.meshgrid(g.xs(), g.ys(), indexing="ij")
    return Surface(RealField(g, fx(X, Y), mask), RealField(g, fy(X, Y), mask),
                   RealField(g, fz(X, Y), mask))


def sphere_surface(r=2.0, n=81):
    g = GridSpec(0.5, 2.2, 0.0, 3.0, n, n)
    return param_surface(
        g,
        lambda u, v: r * np.sin(u) * np.cos(v),
        lambda u, v: r * np.sin(u) * np.sin(v),
        lambda u, v: r * np.cos(u) + 0 * v,
    )


class TestInduce:
    def test_zero_spinor_degenerate_point(self):
        srf = induce_surface(zero_spinor(), 0.0)
        assert fundamental_forms(srf).fully_degenerate
        for c in (srf.x1, srf.x2, srf.x3):
            assert np.all(c.values == 0)

    def test_height_profile_along_real_axis(self):
        # X3 restricted to the base row integrates to -log(1 + s^2)
        fam = family_rational(1.0)
        srf = induce_surface(fam.spinor(G), 0.0)
        j0 = G.index_of(0.0, 0.0)[1]
        xs = G.xs()
        expect = -np.log(1.0 + (2 * xs) ** 2)
        assert np.max(np.abs(srf.x3.values[:, j0] - expect)) < 5e-4

    def test_nonsolution_warns(self):
        s = zero_spinor()
        bumped = SpinorField(ComplexField(G, s.psi1.values + G.zmesh() * np.conj(G.zmesh())),
                             ComplexField(G, s.psi2.values + 1.0))
        with pytest.warns(UserWarning):
            induce_surface(bumped, 0.0)

    def test_nonsolution_warns_without_a_subgrid(self):
        # 4x4 has no every-other-point subgrid with three points per axis
        g = GridSpec(-1, 1, -1, 1, 4, 4)
        bumped = SpinorField(ComplexField(g, g.zmesh() * np.conj(g.zmesh())),
                             ComplexField(g, np.ones(g.shape, complex)))
        with pytest.warns(UserWarning):
            induce_surface(bumped)

    @pytest.mark.parametrize("n", [31, 41, 51])
    def test_exact_solution_does_not_warn(self, n):
        # the O(h^2) stencil defect of an exact solution exceeds the 5e-4
        # warning threshold at these grids but shrinks like h^2, so it is
        # not reported
        fam = family_holomorphic(h0=1.0)
        s = fam.spinor(GridSpec(*fam.default_domain, n, n))
        assert potential_conservation_residual(s.without_sources()).max_norm > 5e-4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            induce_surface(s)

    def test_masked_basepoint_rejected(self):
        s = family_rational(1.0).spinor(G)
        mask = np.zeros(G.shape, bool)
        mask[G.index_of(0.0, 0.0)] = True
        masked = SpinorField(ComplexField(G, s.psi1.values, mask),
                             ComplexField(G, s.psi2.values, mask))
        with pytest.raises(ValueError):
            induce_surface(masked, 0.0)

    def test_masked_point_shadows_paths(self):
        # points whose only route from the basepoint crosses a mask are
        # themselves masked in the built surface
        s = family_rational(1.0).spinor(G)
        mask = np.zeros(G.shape, bool)
        blk = G.index_of(0.5, 0.0)
        mask[blk] = True
        masked = SpinorField(ComplexField(G, s.psi1.values, mask),
                             ComplexField(G, s.psi2.values, mask))
        srf = induce_surface(masked, 0.0)
        i_b, j_b = blk
        assert srf.mask[i_b + 1, j_b]          # behind the block on the base row
        assert not srf.mask[i_b - 1, j_b]      # in front of it is fine

    def test_crossed_mask_keeps_constant_coordinates_on_the_grid(self):
        # every coordinate of a zero spinor is +0.0 along y, but a masked
        # point off the base row crosses only part of its column: a column
        # would lose that
        g = GridSpec(-1, 1, -1, 1, 9, 9)
        mask = np.zeros(g.shape, bool)
        mask[6, 7] = True
        z = np.zeros(g.shape, complex)
        srf = induce_surface(SpinorField(ComplexField(g, z, mask), ComplexField(g, z, mask)))
        crossed = np.zeros(g.shape, bool)
        crossed[6, 7:] = True
        for c in (srf.x1, srf.x2, srf.x3):
            values, stored_mask = c.stored
            assert values.shape == g.shape
            assert not np.signbit(values).any()
            assert np.array_equal(stored_mask, crossed)

    def test_default_basepoint_is_domain_center(self):
        s = family_rational(1.0).spinor(G)
        srf, centred = induce_surface(s), induce_surface(s, 0j)
        for a, b in zip((srf.x1, srf.x2, srf.x3), (centred.x1, centred.x2, centred.x3)):
            assert np.array_equal(a.values, b.values)
            assert a.values[G.center_index()] == 0.0


class TestPathIndependence:
    def test_same_point_is_zero(self):
        s = family_rational(1.0).spinor(G)
        rep = path_independence_report(s, 0.0, 0.0)
        assert rep.max_norm == 0.0

    def test_two_dimensional_solution_converges(self):
        # a z-dependent solution exercises genuinely different paths
        fam = family_holomorphic()

        def gap(n):
            g = GridSpec(-1, 1, -1, 1, n, n)
            s = fam.spinor(g)
            return path_independence_report(s, 0.0, 1.0 + 1.0j).max_norm

        g1, g2 = gap(51), gap(101)
        assert g2 < 1e-3
        assert 3.5 < g1 / g2 < 4.5

    def test_profile_families_identical_paths(self):
        # one-dimensional profiles make both rectilinear paths agree exactly
        s = family_rational(1.0).spinor(G)
        rep = path_independence_report(s, 0.0, 1.0 + 1.0j)
        assert rep.max_norm < 1e-12

    def test_perturbed_spinor_breaks_independence(self):
        s = family_rational(1.0).spinor(G).without_sources()
        bumped = SpinorField(ComplexField(G, s.psi1.values + 0.01), s.psi2)
        rep = path_independence_report(bumped, 0.0, 1.0 + 1.0j)
        assert rep.max_norm > 1e-2


def full_grid_paths(s, z0, z1):
    """Reference for path_independence_report: both L-paths of each one-form
    integrated to every grid point and read at z1, as ({label: |difference|},
    whether a path crosses a masked point)."""
    grid, mask = _shared(s)
    i0, j0 = _resolve_basepoint(grid, z0)
    i1, j1 = _resolve_basepoint(grid, z1)
    mask = np.broadcast_to(mask, grid.shape)
    steps, base = (grid.hx, grid.hy), (i0, j0)
    per, crossed = {}, False
    for label, (A, B) in zip(("plus", "x3"), _one_forms(s)):
        forms = [np.broadcast_to(f, grid.shape) for f in (A + B, 1j * (A - B))]
        ends = []
        for a, b in ((0, 1), (1, 0)):   # base-line axis, sweep axis
            phi0, bad0 = _integrate_from(np.take(forms[a], [base[b]], axis=b),
                                         np.take(mask, [base[b]], axis=b),
                                         steps[a], a, base[a])
            phi, bad = _integrate_from(forms[b], mask, steps[b], b, base[b])
            ends.append((phi0 + phi)[i1, j1])
            crossed |= bool((bad0 | bad)[i1, j1])
        per[label] = float(abs(ends[0] - ends[1]))
    return per, crossed


def grid_points(g, k0):
    """The grid point at index k0, then every corner and an edge midpoint on each side."""
    xs, ys = g.xs(), g.ys()
    idx = [k0, (0, 0), (g.nx - 1, 0), (0, g.ny - 1), (g.nx - 1, g.ny - 1),
           (g.nx // 2, 0), (g.nx // 2, g.ny - 1), (0, g.ny // 2), (g.nx - 1, g.ny // 2)]
    return [(float(xs[i]), float(ys[j])) for i, j in idx]


def gap_parts(per):
    """`full_grid_paths`'s gaps as the report's parts: each gap is its
    part's max and L2 norm."""
    return tuple(ResidualPart(label, gap, gap) for label, gap in per.items())


class TestPathIndependenceReference:
    """path_independence_report integrates four grid lines; it agrees bit for
    bit with both L-paths integrated over the whole grid."""

    @pytest.mark.parametrize("family, g", [
        ("rational", GridSpec(-1, 1, -1, 1, 41, 41)),
        ("rational", GridSpec(-1, 1, -0.5, 1.5, 31, 17)),
        ("holomorphic", GridSpec(-1, 1, -1, 1, 41, 41)),
        ("holomorphic", GridSpec(-1, 1, -0.5, 1.5, 31, 17)),
    ], ids=["rational", "rational-31x17", "holomorphic", "holomorphic-31x17"])
    def test_matches_full_grid_paths(self, family, g):
        s = build_family(family).spinor(g)
        assert s.psi1.stored[0].shape == ((g.nx, 1) if family == "rational" else g.shape)
        points = grid_points(g, (g.nx // 3, g.ny // 4))
        for z0 in points[:2]:                       # an interior point, a corner
            for z1 in points:
                want, crossed = full_grid_paths(s, z0, z1)
                assert not crossed
                rep = path_independence_report(s, z0, z1)
                assert rep.parts == gap_parts(want), (z0, z1)
                assert rep.max_norm == max(want.values())
                assert rep.l2_norm == rep.max_norm
        assert path_independence_report(s, points[0], points[0]).max_norm == 0.0

    def masked(self, k):
        """Holomorphic data on 21x17, masked at index k, and z0, z1 at the
        indices (5, 4), (15, 12): the L-path runs along row 4 and column
        15, the reversed L along column 5 and row 12."""
        g = GridSpec(-1, 1, -0.5, 1.5, 21, 17)
        s = family_holomorphic().spinor(g)
        mask = np.zeros(g.shape, bool)
        mask[k] = True
        s = SpinorField(ComplexField(g, s.psi1.values, mask),
                        ComplexField(g, s.psi2.values, mask))
        return s, (g.xs()[5], g.ys()[4]), (g.xs()[15], g.ys()[12])

    @pytest.mark.parametrize("k", [(10, 4), (15, 8), (5, 8), (10, 12),
                                   (5, 4), (15, 4), (5, 12), (15, 12)],
                             ids=["row-j0", "column-i1", "column-i0", "row-j1",
                                  "z0", "corner-xy", "corner-yx", "z1"])
    def test_masked_point_on_a_line_raises(self, k):
        s, z0, z1 = self.masked(k)
        assert full_grid_paths(s, z0, z1)[1]
        with pytest.raises(NumericalBreakdown, match="comparison path"):
            path_independence_report(s, z0, z1)

    @pytest.mark.parametrize("k", [(10, 8), (2, 4), (15, 14), (5, 2), (18, 12), (0, 0)])
    def test_masked_point_off_the_lines(self, k):
        s, z0, z1 = self.masked(k)
        want, crossed = full_grid_paths(s, z0, z1)
        assert not crossed
        rep = path_independence_report(s, z0, z1)
        assert rep.parts == gap_parts(want)
        assert rep.max_norm == max(want.values())
        assert rep.masked_points == 1


def three_form_surface(s, z0=None):
    """[X1, X2, X3, mask] as the three one-forms of X1 + i X2, X1 - i X2 and
    X3 integrated one by one over the whole grid, X1 and X2 read off as
    0.5 (plus + minus) and (plus - minus) / 2i: the oracle that
    induce_surface, which integrates X1 + i X2 once and X3's real line
    forms, must match bit for bit."""
    grid, mask = _shared(s)
    i0, j0 = _resolve_basepoint(grid, z0)
    mask = np.broadcast_to(mask, grid.shape)
    p1, p2 = s.psi1.stored[0], s.psi2.stored[0]
    c1, c2 = np.conj(p1), np.conj(p2)
    phis, crossed = [], np.zeros(grid.shape, bool)
    for A, B in ((2j * c1**2, -2j * c2**2), (2j * p2**2, -2j * p1**2),
                 (-2 * c1 * p2, -2 * p1 * c2)):
        fx, fy = (np.broadcast_to(f, grid.shape) for f in (A + B, 1j * (A - B)))
        phi0, bad0 = _integrate_from(fx[:, [j0]], mask[:, [j0]], grid.hx, 0, i0)
        phi, bad = _integrate_from(fy, mask, grid.hy, 1, j0)
        phis.append(phi0 + phi)
        crossed |= bad0 | bad
    plus, minus, x3 = phis
    coords = (0.5 * (plus + minus), (plus - minus) / 2j, x3)
    return [np.where(crossed, 0, c.real) for c in coords] + [crossed]


def random_parts(rng, shape, zeros):
    """Complex standard normal values of `shape`; with `zeros`, a third of
    the real and imaginary parts are exact zeros of either sign, and in two
    draws of three every value is real, or every value imaginary."""
    parts = rng.standard_normal((2, *shape))
    if zeros:
        parts[rng.random(parts.shape) < 1 / 3] = 0.0
        parts *= rng.choice([1.0, -1.0], parts.shape)
        kind = rng.integers(3)
        if kind:
            parts[kind - 1] = 0.0
    return parts[0] + 1j * parts[1]


def random_spinor(seed):
    """A spinor that solves nothing, on a 3x3 to 11x11 grid: random parts
    with exact zeros, stored as columns in every third case, masked at
    random in every other one; and a basepoint at a random unmasked point."""
    rng = np.random.default_rng(seed)
    g = GridSpec(-1, 1, -0.5, 1.5, *map(int, rng.integers(3, 12, 2)))
    shape = (g.nx, 1) if seed % 3 == 0 else g.shape
    mask = rng.random(shape) < 0.15 if seed % 2 else np.zeros(shape, bool)
    psi = [ComplexField._derived(g, np.where(mask, 0, random_parts(rng, shape, True)), mask)
           for _ in range(2)]
    free = np.argwhere(~np.broadcast_to(mask, g.shape))
    i0, j0 = free[rng.integers(len(free))]
    return SpinorField(*psi), (g.xs()[i0], g.ys()[j0])


def family_case(name, grid=None, domain=None, z0=None):
    fam = build_family(name)
    g = GridSpec(*(domain or fam.default_domain), *(grid or (31, 27)))
    return fam.spinor(g), z0


ONE_INTEGRAL_CASES = {
    **{name: lambda name=name: family_case(name) for name in gwsurf.FAMILY_NAMES},
    # the guard band masks the strip's ends, and whatever lies behind them
    "trig-guard-band": lambda: family_case("trig", (41, 37), (-0.2, 1.0, -1.0, 1.0)),
    "exponential-off-centre": lambda: family_case("exponential", (41, 21), z0=(0.5, 0.5)),
    "holomorphic-off-centre": lambda: family_case("holomorphic", (61, 33), z0=(0.2, -0.25)),
    **{f"random-{k}": lambda k=k: random_spinor(k) for k in range(40)},
}


class TestOneIntegral:
    """induce_surface integrates the real and imaginary parts of X1 + i X2's
    line forms, not X1 - i X2's, and X3's real line forms."""

    @pytest.mark.parametrize("case", list(ONE_INTEGRAL_CASES))
    def test_matches_three_form_integration_bitwise(self, case):
        s, z0 = ONE_INTEGRAL_CASES[case]()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # a random spinor's forms are not closed
            srf = induce_surface(s, z0)
        *want, crossed = three_form_surface(s, z0)
        for got, ref in zip((srf.x1, srf.x2, srf.x3), want):
            assert np.array_equal(got.values.view(np.int64), ref.view(np.int64)), case
        assert np.array_equal(srf.mask, crossed)
        assert not crossed.all()

    @pytest.mark.parametrize("zeros", [False, True], ids=["generic", "zero-parts"])
    def test_minus_form_is_the_conjugate_and_x3_is_real(self, zeros):
        # for any spinor, not just solutions. Bit for bit on generic values;
        # where a part of psi is an exact zero, only the signs of zeros may
        # differ (+0.0 against -0.0), and the integrals above still agree
        rng = np.random.default_rng(11)
        g = GridSpec(-1, 1, -1, 1, 40, 25)
        p1, p2 = (random_parts(rng, g.shape, zeros) for _ in range(2))
        s = SpinorField(ComplexField(g, p1), ComplexField(g, p2))
        (A, B), (A3, B3) = _one_forms(s)
        minus = (2j * p2**2, -2j * p1**2)           # the paper's X1 - i X2
        for got, want in zip(minus, (np.conj(B), np.conj(A))):
            assert np.array_equal(got, want)
            assert zeros or np.array_equal(got.view(np.int64), want.view(np.int64))
        for f in (A3 + B3, 1j * (A3 - B3)):     # X3's line forms, complex
            assert np.all(f.imag == 0)
            assert zeros or not np.signbit(f.imag).any()
        assert np.array_equal(_line_forms(s)[1][1], (1j * (A3 - B3)).real)

    def test_three_real_integrals_and_no_y_integral_of_a_zero_form(self, monkeypatch):
        # the base row and the columns of X1's, X2's and X3's real line
        # forms: a complex cumsum of X1 + i X2 is two real ones, so this is
        # the arithmetic of one complex and one real integral. On rational
        # the y-line forms of X2 and X3 are zeros under a column mask, and
        # only X1's columns are integrated on the whole grid
        from gwsurf import inducer
        calls = []

        def spy(values, *args):
            calls.append((np.asarray(values).dtype.kind, np.shape(values)))
            return _integrate_from(values, *args)

        monkeypatch.setattr(inducer, "_integrate_from", spy)
        g = GridSpec(-1, 1, -1, 1, 21, 21)
        induce_surface(family_holomorphic().spinor(g))
        assert calls == [("f", (21, 1)), ("f", (21, 21))] * 3
        calls.clear()
        induce_surface(family_rational(1.0).spinor(g))
        assert calls == [("f", (21, 1)), ("f", (21, 21)), ("f", (21, 1)), ("f", (21, 1))]

    @pytest.mark.parametrize("name", ["rational", "holomorphic", "trig", "unimodular"])
    def test_x1_x2_are_the_parts_of_the_one_integral(self, name):
        # bit for bit the half sum of X1 + i X2 and its conjugate, and
        # their half difference over i, signed zeros too
        fam = build_family(name)
        s = fam.spinor(GridSpec(*fam.default_domain, 31, 31))
        grid, mask = _shared(s)
        plus, bad = _integrate_path(*_line_forms(s)[0], grid,
                                    *_resolve_basepoint(grid, None), mask)
        minus = np.conj(plus)
        srf = induce_surface(s)
        for got, want in ((srf.x1, 0.5 * (plus + minus)), (srf.x2, (plus - minus) / 2j)):
            want = np.where(bad, 0, want.real)
            assert np.array_equal(got.values.view(np.int64), want.view(np.int64))


# rational's, exponential's and trig's spinors are real, so the y-line forms
# of X2 and X3 vanish: both are constant along y. The guard band masks whole
# rows
COLUMN_CASES = {
    "rational": ("rational", (31, 27), None),
    "exponential": ("exponential", (31, 27), None),
    "trig": ("trig", (31, 27), None),
    "trig-guard-band": ("trig", (41, 37), (-0.2, 1.0, -1.0, 1.0)),
}
GRID_CASES = {name: (name, (31, 27), None) for name in ("unimodular", "holomorphic")}


@pytest.mark.parametrize("case", [*COLUMN_CASES, *GRID_CASES])
def test_y_constant_coordinates_are_stored_as_columns(case):
    family, shape, domain = {**COLUMN_CASES, **GRID_CASES}[case]
    s, _ = family_case(family, shape, domain)
    srf = induce_surface(s)
    grid, mask = _shared(s)
    i0, j0 = _resolve_basepoint(grid, None)
    forms, x3_forms = _line_forms(s)
    plus, bad = _integrate_path(*forms, grid, i0, j0, mask)
    x3, _ = _integrate_path(*x3_forms, grid, i0, j0, mask)
    columns = ("x2", "x3") if case in COLUMN_CASES else ()
    for name, whole in (("x1", plus.real), ("x2", plus.imag), ("x3", x3)):
        values, stored_mask = getattr(srf, name).stored
        want = (grid.nx, 1) if name in columns else grid.shape
        assert values.shape == stored_mask.shape == want, (case, name)
        # the stored array broadcasts to the whole-grid integral, bit for bit
        whole = np.where(bad, 0, whole).view(np.int64)
        assert (values.view(np.int64) == whole).all(), (case, name)
        assert (stored_mask == bad).all(), (case, name)
    if case == "trig-guard-band":
        assert srf.x2.stored[1].any()


class TestFundamentalForms:
    def test_plane(self):
        g = GridSpec(0, 1, 0, 1, 21, 21)
        pl = param_surface(g, lambda x, y: x, lambda x, y: y, lambda x, y: 0 * x)
        ff = fundamental_forms(pl)
        for k in (ff.mean_curvature, ff.gauss_curvature):
            assert np.max(np.abs(k.values)) < 1e-10
        assert not ff.fully_degenerate

    def test_sphere_curvatures(self):
        srf = sphere_surface(r=2.0)
        ff = fundamental_forms(srf)
        hn = ff.mean_curvature
        kn = ff.gauss_curvature
        inner = np.zeros(srf.grid.shape, bool)
        inner[2:-2, 2:-2] = True
        assert np.max(np.abs(np.abs(hn.values[inner]) - 0.5)) < 1e-3
        assert np.max(np.abs(kn.values[inner] - 0.25)) < 1e-3

    def test_degenerate_immersion_flagged(self):
        g = GridSpec(0, 1, 0, 1, 11, 11)
        flat = param_surface(g, lambda x, y: x, lambda x, y: 2 * x, lambda x, y: 0 * x)
        ff = fundamental_forms(flat)
        assert ff.fully_degenerate


def stacked_fundamental_forms(srf):
    """The curvatures from the forms as einsum("kij,kij->ij") gives them
    from the fifteen coordinate derivatives stacked by coordinate: the
    oracle that the streamed `fundamental_forms` must match bit for bit."""
    comps = (srf.x1, srf.x2, srf.x3)
    derivs = [[op(c) for c in comps] for op in (dx, dy, dxx, dyy, lambda f: dy(dx(f)))]
    mask = srf.mask.copy()
    for fields in derivs:
        for f in fields:
            mask |= f.mask
    ax, ay, sxx, syy, sxy = (np.stack([f.values for f in fields]) for fields in derivs)
    E = np.einsum("kij,kij->ij", ax, ax)
    F = np.einsum("kij,kij->ij", ax, ay)
    G = np.einsum("kij,kij->ij", ay, ay)
    w2 = E * G - F**2
    degenerate = (w2 <= _DEGENERATE) & ~mask
    safe_w = np.sqrt(np.where(w2 > _DEGENERATE, w2, 1.0))
    normal = np.stack([ax[1] * ay[2] - ax[2] * ay[1],
                       ax[2] * ay[0] - ax[0] * ay[2],
                       ax[0] * ay[1] - ax[1] * ay[0]]) / safe_w
    e, f, g = (np.einsum("kij,kij->ij", normal, s) for s in (sxx, sxy, syy))
    formmask = mask | degenerate
    w2 = np.where(formmask, 1.0, w2)

    def fld(v):
        return RealField._derived(srf.grid, np.where(formmask, 0, v), formmask)

    return FundamentalForms(mean_curvature=fld((e * G - 2 * f * F + g * E) / (2 * w2)),
                            gauss_curvature=fld((e * g - f**2) / w2))


def induced(name, n=31):
    fam = build_family(name)
    return induce_surface(fam.spinor(GridSpec(*fam.default_domain, n, n)))


def tilted_plane():
    """X = (y, x, -x - y): the unit normal has three negative components
    and every second derivative is an exact zero, so each second-form sum
    adds three -0.0 products."""
    g = GridSpec(-1, 1, -1, 1, 9, 9)
    return param_surface(g, lambda x, y: y, lambda x, y: x, lambda x, y: -x - y)


FORM_SURFACES = {
    "rational": lambda: induced("rational"),
    "holomorphic": lambda: induced("holomorphic"),
    "trig": lambda: induced("trig"),
    "masked": lambda: masked_surface(),
    "awkward": lambda: awkward_surface(),
    "sphere": lambda: sphere_surface(),
    "tilted_plane": tilted_plane,
}


@pytest.mark.parametrize("name", list(FORM_SURFACES))
def test_fundamental_forms_match_the_stacked_einsum_bitwise(name):
    make = FORM_SURFACES[name]
    got, want = fundamental_forms(make()), stacked_fundamental_forms(make())
    for part in ("mean_curvature", "gauss_curvature"):
        fields = [getattr(ff, part) for ff in (got, want)]
        assert np.array_equal(*(k.values.view(np.int64) for k in fields)), part
        assert np.array_equal(*(k.mask for k in fields)), part
    assert got.fully_degenerate == want.fully_degenerate


def grid_shaped(srf):
    """`srf` with every coordinate stored on the whole grid."""
    return Surface(*(RealField(srf.grid, c.values, c.mask) for c in (srf.x1, srf.x2, srf.x3)))


@pytest.mark.parametrize("case", list(COLUMN_CASES))
def test_column_coordinates_move_curvatures_only_on_the_y_boundary_lines(case, tmp_path,
                                                                         monkeypatch, capsys):
    # a column's y-derivatives are exact zeros, where the one-sided
    # y-stencils of its grid-shaped twin leave round-off on the boundary
    # lines j = 0 and j = ny - 1; the central stencil gives exact zeros
    family, shape, domain = COLUMN_CASES[case]
    s, _ = family_case(family, shape, domain)
    srf = induce_surface(s)
    got, want = fundamental_forms(srf), fundamental_forms(grid_shaped(srf))
    moved = 0.0
    for part in ("mean_curvature", "gauss_curvature"):
        a, b = (getattr(ff, part) for ff in (got, want))
        assert np.array_equal(a.mask, b.mask), part
        inner = (a.values[:, 1:-1], b.values[:, 1:-1])
        assert np.array_equal(*(v.view(np.int64) for v in inner)), part
        gap = np.abs(a.values[:, [0, -1]] - b.values[:, [0, -1]]).max()
        assert gap <= 1e-11, part
        moved = max(moved, gap)
    assert moved > 0

    # induce's closure report leaves the boundary ring out (exclude_rings=1)
    args = ["induce", "--family", family, "--grid", "%dx%d" % shape]
    if domain is not None:
        args += ["--domain", ",".join(map(str, domain))]
    reports, printed = [], []
    for twin in (False, True):
        if twin:
            monkeypatch.setattr(gwsurf.cli, "induce_surface",
                                lambda *a: grid_shaped(induce_surface(*a)))
        out = tmp_path / str(twin)
        assert main(args + ["--out", str(out)]) == 0
        reports.append((out / f"{family}_curvature_closure.json").read_bytes())
        printed.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert printed[0] == printed[1]


def test_fundamental_forms_leave_no_stencil_on_the_surface():
    srf = induced("rational")
    fundamental_forms(srf)
    assert all(not c._memo for c in (srf.x1, srf.x2, srf.x3))


def test_fundamental_forms_peak_memory():
    # the fifteen coordinate derivatives held at once and stacked into six
    # (3, nx, ny) arrays for einsum traced 25.2 MiB at 251x251
    srf = induced("rational", 251)
    assert traced_peak(lambda: fundamental_forms(srf)) <= 14 * 2**20


def test_induce_peak_memory(tmp_path):
    # at 251x251 the stacked forms made rational's peak, 26.8 MiB traced;
    # on holomorphic's two-dimensional data the conjugate of the integral
    # and the six forms kept beside the curvatures made it 26.6 MiB
    for family, mib in (("rational", 16), ("holomorphic", 25)):
        args = ["induce", "--family", family, "--grid", "251x251", "--out", str(tmp_path)]
        assert traced_peak(lambda: main(args)) <= mib * 2**20, family


def k_gap(ff, s):
    """Max |K from the forms - K from the density formula| over the points
    both leave unmasked."""
    k_num, k_form = ff.gauss_curvature, gaussian_curvature_from_p(density_p(s))
    return norms(k_num.values - k_form.values, k_num.grid, k_num.mask | k_form.mask)[0]


class TestCurvatureClosure:
    def test_rational_family_closes(self):
        fam = family_rational(1.0)
        g = GridSpec(-1, 1, -1, 1, 101, 101)
        s = fam.spinor(g)
        srf = induce_surface(s, 0.0)
        ff = fundamental_forms(srf)
        hn = ff.mean_curvature
        hp = fam.h(g)
        inner = np.zeros(g.shape, bool)
        inner[1:-1, 1:-1] = True
        err = np.abs(np.abs(hn.values) - np.abs(hp.values))[inner & ~hn.mask]
        assert np.max(err) < 5e-3

    def test_gauss_consistency_flat_family(self):
        fam = family_rational(1.0)
        s = fam.spinor(G)
        srf = induce_surface(s, 0.0)
        ff = fundamental_forms(srf)
        assert k_gap(ff, s) < 1e-6

    def test_gauss_consistency_sphere_oracle(self):
        srf = sphere_surface(r=2.0)
        ff = fundamental_forms(srf)
        kn = ff.gauss_curvature
        inner = np.zeros(srf.grid.shape, bool)
        inner[2:-2, 2:-2] = True
        assert np.max(np.abs(kn.values[inner] - 1 / 4.0)) < 1e-3

    def test_gauss_consistency_trig_strip(self):
        from gwsurf import family_trigonometric
        fam = family_trigonometric(1.0)
        g = GridSpec(0.05, 0.6, -0.5, 0.5, 56, 101)
        s = fam.spinor(g)
        srf = induce_surface(s)
        ff = fundamental_forms(srf)
        assert k_gap(ff, s) < 1e-4


def load_mesh_vertices(path) -> np.ndarray:
    """Read back OBJ vertex coordinates (row-major order of export)."""
    verts = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("v "):
                _, xs, ys, zs = line.split()
                verts.append((float(xs), float(ys), float(zs)))
    return np.asarray(verts, dtype=float)


class TestExport:
    def test_small_plane_counts(self, tmp_path):
        g = GridSpec(0, 1, 0, 1, 3, 3)
        pl = param_surface(g, lambda x, y: x, lambda x, y: y, lambda x, y: 0 * x)
        nv, nf = export_mesh(pl, tmp_path / "m.obj", tmp_path / "m.csv", fundamental_forms(pl))
        assert (nv, nf) == (9, 8)

    def test_masked_cells_omitted(self, tmp_path):
        g = GridSpec(0, 1, 0, 1, 3, 3)
        mask = np.zeros(g.shape, bool)
        mask[0, 0] = True
        pl = param_surface(g, lambda x, y: x, lambda x, y: y, lambda x, y: 0 * x,
                           mask=mask)
        nv, nf = export_mesh(pl, tmp_path / "m.obj", tmp_path / "m.csv", fundamental_forms(pl))
        assert nv == 8
        assert nf == 6      # the corner cell is dropped

    def test_round_trip_bitwise(self, tmp_path):
        fam = family_rational(1.0)
        g = GridSpec(-1, 1, -1, 1, 21, 21)
        srf = induce_surface(fam.spinor(g), 0.0)
        path = tmp_path / "m.obj"
        export_mesh(srf, path, tmp_path / "m.csv", fundamental_forms(srf))
        verts = load_mesh_vertices(path)
        stacked = np.stack([srf.x1.values, srf.x2.values, srf.x3.values],
                           axis=-1).reshape(-1, 3)
        assert np.array_equal(verts, stacked)

    def test_deterministic_bytes(self, tmp_path):
        fam = family_rational(1.0)
        g = GridSpec(-1, 1, -1, 1, 11, 11)
        srf = induce_surface(fam.spinor(g), 0.0)
        ff = fundamental_forms(srf)
        export_mesh(srf, tmp_path / "a.obj", tmp_path / "a.csv", ff)
        export_mesh(srf, tmp_path / "b.obj", tmp_path / "b.csv", ff)
        assert (tmp_path / "a.obj").read_bytes() == (tmp_path / "b.obj").read_bytes()

    def test_fully_masked_rejected(self, tmp_path):
        g = GridSpec(0, 1, 0, 1, 3, 3)
        mask = np.ones(g.shape, bool)
        pl = param_surface(g, lambda x, y: x, lambda x, y: y, lambda x, y: 0 * x,
                           mask=mask)
        ff = fundamental_forms(pl)
        with pytest.raises(ValueError):
            export_mesh(pl, tmp_path / "m.obj", tmp_path / "m.csv", ff)

    def test_csv_dump(self, tmp_path):
        fam = family_rational(1.0)
        g = GridSpec(-1, 1, -1, 1, 11, 11)
        srf = induce_surface(fam.spinor(g), 0.0)
        path = tmp_path / "s.csv"
        export_mesh(srf, tmp_path / "s.obj", path, fundamental_forms(srf))
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,X1,X2,X3,H_num,K_num"
        assert len(lines) == 1 + 11 * 11


def loop_export_mesh(srf, path):
    """Per-element OBJ writer the vectorized export must reproduce byte for byte."""
    mask = srf.mask
    grid = srf.grid
    idx = np.full(grid.shape, 0, dtype=int)
    lines = []
    count = 0
    vals = (srf.x1.values, srf.x2.values, srf.x3.values)
    for i in range(grid.nx):
        for j in range(grid.ny):
            if mask[i, j]:
                continue
            count += 1
            idx[i, j] = count
            lines.append(f"v {float(vals[0][i, j])!r} {float(vals[1][i, j])!r} "
                         f"{float(vals[2][i, j])!r}")
    nfaces = 0
    for i in range(grid.nx - 1):
        for j in range(grid.ny - 1):
            corners = idx[i, j], idx[i + 1, j], idx[i + 1, j + 1], idx[i, j + 1]
            if 0 in corners:
                continue
            a, b, c, d = corners
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
            nfaces += 2
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return count, nfaces


def loop_surface_csv(srf, path):
    """Per-element CSV writer the vectorized export must reproduce byte for byte."""
    ff = fundamental_forms(srf)
    hn = ff.mean_curvature
    kn = ff.gauss_curvature
    grid = srf.grid
    xs, ys = grid.xs(), grid.ys()
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("x,y,X1,X2,X3,H_num,K_num\n")
        for i in range(grid.nx):
            for j in range(grid.ny):
                row = (xs[i], ys[j], srf.x1.values[i, j], srf.x2.values[i, j],
                       srf.x3.values[i, j], hn.values[i, j], kn.values[i, j])
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def rational_surface():
    g = GridSpec(-1, 1, -1, 1, 31, 31)
    return induce_surface(family_rational(1.3).spinor(g), 0.0)


def masked_surface():
    g = GridSpec(0.5, 2.2, 0.0, 3.0, 13, 9)
    mask = np.zeros(g.shape, bool)
    mask[0, 0] = mask[6, 4] = mask[12, 3] = True   # a corner, an interior point, an edge
    return param_surface(g, lambda u, v: 2 * np.sin(u) * np.cos(v),
                         lambda u, v: 2 * np.sin(u) * np.sin(v),
                         lambda u, v: 2 * np.cos(u) + 0 * v, mask=mask)


# values whose reprs a formatter that groups equal floats, drops a bit or
# truncates a string gets wrong: signed zeros, one-ulp neighbours,
# subnormals, both sides of the thresholds where repr switches to exponent
# form, and reprs of 24 characters, the longest a float has
AWKWARD = np.array([0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
                    5e-324, np.nextafter(0.0, -1.0), 2.5e-310, 1e16, -1e16,
                    np.nextafter(1e16, 0.0), 1.2345678901234567e17, 1e-4, 9.999999999999999e-5,
                    -1e-5, 3.0e22, 0.1, 0.30000000000000004,
                    -2.2250738585072014e-308, -1.2345678901234567e-100])


def awkward_surface():
    """Coordinates drawn from AWKWARD over rows that span three export row
    blocks, with 0.0 and -0.0 in the same block of each column, a value
    repeated across a block boundary, and masked points (stored as 0.0)."""
    g = GridSpec(-1, 1, -2, 2, 19, 7)
    n = g.nx * g.ny
    cols = [np.resize(np.roll(AWKWARD, 5 * k), n).reshape(g.shape)
            for k in range(3)]
    cols[0][7, 3] = cols[0][8, 3] = 1e16     # rows 7 and 8 lie in different blocks
    mask = np.zeros(g.shape, bool)
    mask[2, 5] = mask[9, 0] = mask[18, 6] = True
    return param_surface(g, *(lambda x, y, c=c: c for c in cols), mask=mask)


def carried_surface():
    """Three export row blocks whose strings carry from block to block: a
    -0.0 in the first block is 0.0 at the same point of the second, a
    24-character repr is carried into a block whose new strings are all
    shorter, and the third block shares no value with the second."""
    g = GridSpec(-1, 1, -2, 2, 24, 5)
    widest = -1.2345678901234567e-100
    first = np.resize([widest, 0.1, 0.30000000000000004, 1e16], (8, 5))
    first[3, 2] = -0.0
    second = np.resize([widest, 0.5, 2.0], (8, 5))
    second[3, 2] = 0.0
    third = np.resize([3.5, -7.25], (8, 5))
    x = np.vstack([first, second, third])
    cols = [x, np.roll(x, 1, axis=1), -x]
    return param_surface(g, *(lambda u, v, c=c: c for c in cols))


def saddle_surface(nx, ny, mask=None):
    g = GridSpec(-1, 1, -1, 1, nx, ny)
    return param_surface(g, lambda x, y: x, lambda x, y: y, lambda x, y: x * y, mask=mask)


# kept-vertex counts at and just below a power of ten: the face indices
# are as wide as the largest one, written in full
def hundred_vertices():
    return saddle_surface(10, 10)


def thousand_vertices():
    return saddle_surface(25, 40)


def ninety_nine_vertices():
    mask = np.zeros((10, 10), bool)
    mask[4, 6] = True
    return saddle_surface(10, 10, mask)


def ten_thousand_vertices():
    """14,640 kept vertices on 121x121, one point masked in the third export
    row block: that block alone drops cells. Face indices are five digits
    wide, and every vertex from row 83 on has five, so the last two
    blocks' face lines hold no NUL padding."""
    mask = np.zeros((121, 121), bool)
    mask[40, 60] = True
    return saddle_surface(121, 121, mask)


def masked_block_surface():
    """Rows 8-15, the whole second export row block, masked: that block
    writes no `v` line and no face; 154 vertices, 240 faces."""
    mask = np.zeros((30, 7), bool)
    mask[8:16] = True
    return saddle_surface(30, 7, mask)


def column_run_surface():
    """X2 stored as one column (nx, 1) and X1, X3 grid-shaped with masked
    points inside the export's row blocks of 16, and runs of equal
    neighbours in row-major order: rows that are one value, a run that
    wraps from one row into the next, rows 15 and 16 of one value across
    the first block boundary, and a 0.0 next to a -0.0 inside a run of
    zeros, along a row of X1 and down X2's column (their bits differ, so
    they must not merge)."""
    g = GridSpec(-1, 1, -2, 2, 40, 9)
    rng = np.random.default_rng(5)
    x1 = rng.choice(AWKWARD, g.shape)
    x1[3] = 2.5
    x1[4] = [0.0, 0.0, -0.0, 0.0, 0.0, 2.5, 2.5, 2.5, 7.0]
    x1[15:17] = 1e16
    x1[20, -3:] = x1[21, :3] = 0.1
    x3 = np.repeat(rng.choice(AWKWARD, (g.nx, 1)), g.ny, axis=1)
    x3[15:17] = -0.0
    x3[30, 2:6] = 0.1
    column = np.resize(AWKWARD[::-1], (g.nx, 1))
    column[9:12] = [[0.0], [-0.0], [0.0]]
    column[15:17] = 0.30000000000000004
    mask = np.zeros(g.shape, bool)
    mask[5, 4] = mask[17, 0] = mask[30, 3] = mask[37, 8] = True
    x2 = RealField._derived(g, column, np.zeros((g.nx, 1), bool))
    assert x2.stored[0].shape == (g.nx, 1)
    return Surface(RealField(g, x1, mask), x2, RealField(g, x3, mask))


@pytest.mark.parametrize("make", [rational_surface, masked_surface, awkward_surface,
                                  carried_surface, hundred_vertices, thousand_vertices,
                                  ninety_nine_vertices, ten_thousand_vertices,
                                  masked_block_surface,
                                  column_run_surface])
def test_export_bytes_match_per_element_writers(make, tmp_path):
    srf = make()
    expect_counts = loop_export_mesh(srf, tmp_path / "loop.obj")
    loop_surface_csv(srf, tmp_path / "loop.csv")
    expect_obj = (tmp_path / "loop.obj").read_bytes()
    expect_csv = (tmp_path / "loop.csv").read_bytes()

    # OBJ and CSV from one pass
    assert export_mesh(srf, tmp_path / "new.obj", tmp_path / "new.csv",
                       fundamental_forms(srf)) == expect_counts
    assert (tmp_path / "new.obj").read_bytes() == expect_obj
    assert (tmp_path / "new.csv").read_bytes() == expect_csv


def test_export_formats_each_value_once_per_run_of_blocks(tmp_path, monkeypatch):
    # the benchmark's induce: on a diagonal family X1 depends on y only,
    # so its 251 values recur in every block and are formatted once;
    # formatting each block's distinct values anew made 13,316 calls, and
    # blocks of 8 rows in place of 16 make 3,301. X2 and X3 are columns
    # and their y-derivatives exact zeros, so H_num and K_num on the
    # y-boundary lines repeat their row: differenced on the whole grid,
    # those lines' round-off made 3,275 calls
    calls = []

    def counted(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(gwsurf.inducer, "repr", counted, raising=False)
    assert main(["induce", "--family", "rational", "--grid", "251x251", "--lambda", "0.9395",
                 "--levels", "2", "--jobs", "1", "--out", str(tmp_path)]) == 0
    assert len(calls) == 2507


def check_induce_bytes(tmp_path, family, shape, domain=None, basepoint=None):
    """`gwsurf induce` writes the OBJ and CSV bytes of the per-element writers."""
    args = ["induce", "--family", family, "--grid", "%dx%d" % shape, "--out", str(tmp_path)]
    if domain is not None:
        args += ["--domain", ",".join(map(str, domain))]
    if basepoint is not None:
        args += ["--basepoint", ",".join(map(str, basepoint))]
    assert main(args) == 0
    fam = build_family(family)
    srf = induce_surface(fam.spinor(GridSpec(*(domain or fam.default_domain), *shape)), basepoint)
    loop_export_mesh(srf, tmp_path / "loop.obj")
    loop_surface_csv(srf, tmp_path / "loop.csv")
    for ext in ("obj", "csv"):
        made = (tmp_path / f"{family}_surface.{ext}").read_bytes()
        assert made == (tmp_path / f"loop.{ext}").read_bytes()
    return srf


def test_induce_command_bytes_match_per_element_writers(tmp_path):
    check_induce_bytes(tmp_path, "exponential", (41, 21), basepoint=(0.5, 0.5))


def test_induce_command_bytes_on_a_masked_grid(tmp_path):
    # the domain reaches past the trig guard band at both ends: masked rows
    # fall in at least two of the export's blocks of _BLOCK_ROWS rows
    srf = check_induce_bytes(tmp_path, "trig", (41, 37), domain=(-0.2, 1.0, -1.0, 1.0))
    masked_rows = np.flatnonzero(srf.mask.any(axis=1))
    assert len(set(masked_rows // gwsurf.inducer._BLOCK_ROWS)) >= 2


def test_export_peak_memory(tmp_path):
    # every value distinct, as on holomorphic data: one whole-grid table of
    # reprs traced 19.5 MB at 251x251, against 1.18 MB for a writer that
    # formats one grid row at a time
    g = GridSpec(-1, 1, -1, 1, 251, 251)
    rng = np.random.default_rng(7)
    srf = param_surface(g, *(lambda x, y: rng.standard_normal(x.shape) for _ in range(3)))
    ff = fundamental_forms(srf)
    peak = traced_peak(lambda: export_mesh(srf, tmp_path / "m.obj", tmp_path / "m.csv", ff))
    assert peak <= 3 * 2**20


@pytest.mark.parametrize("n", [0, 1, 9, 10, 99, 100, 999, 1000, 63001, 160801])
def test_face_labels_are_decimal_strings(n):
    from gwsurf.inducer import _labels
    labels = _labels(n)
    assert labels.dtype == np.dtype(f"S{len(str(n))}")
    assert labels.tolist() == [str(k).encode() for k in range(n + 1)]


def test_face_labels_peak_memory():
    # np.arange(n + 1).astype("S5") traces 0.82 MB at n = 63,001: an int64
    # arange next to the table
    from gwsurf.inducer import _labels
    assert traced_peak(lambda: _labels(63001)) <= 0.82e6


def test_masked_interior_point_drops_its_four_cells(tmp_path):
    srf = masked_surface()
    nv, nf = export_mesh(srf, tmp_path / "m.obj", tmp_path / "m.csv", fundamental_forms(srf))
    cells = (13 - 1) * (9 - 1)
    # corner: 1 cell, interior point: 4 cells, edge point: 2 cells
    assert (nv, nf) == (13 * 9 - 3, 2 * (cells - 1 - 4 - 2))
