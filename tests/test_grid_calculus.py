"""Grid construction, sampling, and Wirtinger-derivative stencils."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gwsurf import ComplexField, GridSpec, d_z, d_zbar, mixed_dzbar_dz, sample
from gwsurf.closedform import ClosedForm, diagonal_form, exp


def grid(n=41, lo=-1.0, hi=1.0):
    return GridSpec(lo, hi, lo, hi, n, n)


def plain(g, fn):
    """Sample a callable into a sourceless field (pure finite-difference path)."""
    return ComplexField(g, fn(g.zmesh()))


class TestGridSpec:
    def test_spacing(self):
        g = GridSpec(-1, 1, 0, 4, 11, 21)
        assert g.hx == pytest.approx(0.2)
        assert g.hy == pytest.approx(0.2)
        assert g.shape == (11, 21)

    @pytest.mark.parametrize("bad", [
        dict(x_min=1, x_max=-1, y_min=0, y_max=1, nx=5, ny=5),
        dict(x_min=0, x_max=1, y_min=2, y_max=1, nx=5, ny=5),
        dict(x_min=0, x_max=1, y_min=0, y_max=1, nx=2, ny=5),
        dict(x_min=0, x_max=1, y_min=0, y_max=1, nx=5, ny=1),
        dict(x_min=0, x_max=np.inf, y_min=0, y_max=1, nx=5, ny=5),
    ])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            GridSpec(**bad)

    def test_refined_halves_spacing(self):
        g = grid(21)
        r = g.refined()
        assert r.hx == pytest.approx(g.hx / 2)
        assert r.nx == 2 * g.nx - 1

    def test_index_of_rejects_off_grid(self):
        g = grid(11)
        assert g.index_of(0.0, 0.0) == (5, 5)
        with pytest.raises(ValueError):
            g.index_of(0.05, 0.0)
        with pytest.raises(ValueError):
            g.index_of(7.0, 0.0)


class TestFields:
    def test_rejects_nonfinite_without_mask(self):
        g = grid(5)
        vals = np.ones(g.shape, dtype=complex)
        vals[2, 2] = np.nan
        with pytest.raises(ValueError):
            ComplexField(g, vals)

    def test_mask_excuses_nonfinite(self):
        g = grid(5)
        vals = np.ones(g.shape, dtype=complex)
        vals[2, 2] = np.inf
        mask = np.zeros(g.shape, bool)
        mask[2, 2] = True
        f = ComplexField(g, vals, mask)
        assert f.values[2, 2] == 0          # sanitized
        assert f.n_masked == 1

    def test_values_read_only(self):
        f = ComplexField(grid(5), np.zeros((5, 5)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


class TestSampling:
    def test_identity(self):
        g = grid(11)
        f = sample(ClosedForm(value=lambda z: z), g)
        assert np.allclose(f.values, g.zmesh())

    def test_z_plus_zbar_is_twice_x(self):
        g = GridSpec(0.3, 1.3, 0.7, 1.7, 11, 11)
        f = sample(ClosedForm(value=lambda z: z + np.conj(z)), g)
        assert f.values[0, 0] == pytest.approx(0.6)

    def test_rational_curvature_value(self):
        # 1/(1 + (z+zbar)^2) at x=1 is 1/5 for any y
        g = GridSpec(1.0, 2.0, -3.0, 3.0, 11, 11)
        f = sample(ClosedForm(value=lambda z: 1.0 / (1.0 + (z + np.conj(z)) ** 2)), g)
        assert np.allclose(f.values[0, :], 0.2)

    def test_guard_masks_singular_points(self):
        cf = ClosedForm(value=lambda z: 1.0 / z,
                        domain_guard=lambda z: np.abs(z) < 1e-12)
        g = grid(11)
        f = sample(cf, g)
        assert f.mask[5, 5]
        assert not f.mask[0, 0]

    def test_unguarded_singularity_is_an_error(self):
        cf = ClosedForm(value=lambda z: 1.0 / z)
        with pytest.raises(ValueError):
            sample(cf, grid(11))


class TestWirtinger:
    def test_dz_of_z_is_one(self):
        f = plain(grid(), lambda z: z)
        d = d_z(f)
        assert np.max(np.abs(d.values - 1.0)) < 1e-13

    def test_dz_of_zbar_is_zero(self):
        d = d_z(plain(grid(), np.conj))
        assert np.max(np.abs(d.values)) < 1e-13

    def test_dzbar_of_zbar_is_one(self):
        d = d_zbar(plain(grid(), np.conj))
        assert np.max(np.abs(d.values - 1.0)) < 1e-13

    def test_dzbar_of_z_is_zero(self):
        d = d_zbar(plain(grid(), lambda z: z))
        assert np.max(np.abs(d.values)) < 1e-13

    def test_dz_quadratic_profile(self):
        # d (z+zbar)^2 = 2 (z+zbar); central differences are exact on quadratics
        g = grid()
        d = d_z(plain(g, lambda z: (z + np.conj(z)) ** 2))
        expect = 2 * (g.zmesh() + np.conj(g.zmesh()))
        assert np.max(np.abs(d.values - expect)) < 1e-12

    def test_dzbar_exponential_at_origin(self):
        g = GridSpec(-0.5, 0.5, -0.5, 0.5, 41, 41)
        d = d_zbar(plain(g, lambda z: np.exp(z + np.conj(z))))
        i, j = g.index_of(0.0, 0.0)
        assert d.values[i, j] == pytest.approx(1.0, abs=5e-4)

    def test_mixed_of_zzbar_is_one(self):
        d = mixed_dzbar_dz(plain(grid(), lambda z: z * np.conj(z)))
        assert np.max(np.abs(d.values - 1.0)) < 1e-11

    def test_mixed_of_holomorphic_square_is_zero(self):
        d = mixed_dzbar_dz(plain(grid(), lambda z: z ** 2))
        assert np.max(np.abs(d.values)) < 1e-11

    def test_mixed_log_against_symbolic_oracle(self):
        sp = pytest.importorskip("sympy")
        from sympy_oracle import S, lambdify
        lam = 1.5
        oracle = lambdify(S, sp.diff(sp.log(1 + lam**2 * S**2), S, 2))

        def err(n):
            g = grid(n)
            d = mixed_dzbar_dz(plain(g, lambda z: np.log(1 + lam**2 * (z + np.conj(z)) ** 2)))
            expect = oracle(2 * np.real(g.zmesh()))
            inner = np.zeros(g.shape, bool)
            inner[2:-2, 2:-2] = True
            return np.max(np.abs(d.values - expect)[inner])

        e1, e2 = err(41), err(81)
        assert e2 < 5e-2
        assert 3.0 < e1 / e2 < 5.0

    def test_analytic_source_bypasses_stencils(self):
        g = grid(5)
        form = diagonal_form(exp)
        f = sample(form, g)
        d = d_z(f)
        expect = np.exp(2 * np.real(g.zmesh()))
        assert np.max(np.abs(d.values - expect)) < 1e-12


class TestStencilProperties:
    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        g = grid(9)
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f1 = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        f2 = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        lhs = d_z(ComplexField(g, a * f1 + b * f2)).values
        rhs = a * d_z(ComplexField(g, f1)).values + b * d_z(ComplexField(g, f2)).values
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_conjugation_commutes_exactly(self, seed):
        rng = np.random.default_rng(seed)
        g = grid(9)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        lhs = d_z(ComplexField(g, np.conj(f))).values
        rhs = np.conj(d_zbar(ComplexField(g, f)).values)
        assert np.array_equal(lhs, rhs)

    def test_convergence_order(self):
        # max |FD - analytic| drops by about 4 when h halves
        def err(n):
            g = grid(n)
            d = d_z(plain(g, lambda z: np.exp(z + np.conj(z)) * np.sin(np.real(z))))
            zz = g.zmesh()
            x = np.real(zz)
            exact = np.exp(2 * x) * np.sin(x) + 0.5 * np.exp(2 * x) * np.cos(x)
            return np.max(np.abs(d.values - exact))

        e1, e2 = err(41), err(81)
        assert 3.5 < e1 / e2 < 4.5

    def test_masked_point_forces_one_sided_fallback(self):
        g = grid(11)
        vals = np.exp(2 * np.real(g.zmesh())).astype(complex)
        mask = np.zeros(g.shape, bool)
        mask[5, 5] = True
        d = d_z(ComplexField(g, vals, mask))
        # neighbors of the masked point remain computable via one-sided stencils
        assert not d.mask[4, 5] and not d.mask[6, 5]
        expect = np.exp(2 * np.real(g.zmesh()))
        assert abs(d.values[4, 5] - expect[4, 5]) < 5e-2
        # the masked point itself stays masked
        assert d.mask[5, 5]

    def test_fully_isolated_point_is_masked(self):
        g = grid(5)
        mask = np.ones(g.shape, bool)
        mask[2, 2] = False
        f = ComplexField(g, np.ones(g.shape, complex), mask)
        d = d_z(f)
        assert d.mask[2, 2]


def _shift_reference(arr, k, fill):
    """out[i] = arr[i + k] along axis 0, padded with `fill`."""
    out = np.full_like(arr, fill)
    if k == 0:
        out[...] = arr
    elif k > 0:
        out[:-k] = arr[k:]
    else:
        out[-k:] = arr[:k]
    return out


def _d1_reference(values, valid, h):
    """Shifted-copy first derivative: every stencil on the whole grid, then
    a per-point choice (central, forward, backward)."""
    a = lambda k: _shift_reference(values, k, 0)
    ok = lambda k: _shift_reference(valid, k, False)
    central = (a(1) - a(-1)) / (2 * h)
    forward = (-3 * values + 4 * a(1) - a(2)) / (2 * h)
    backward = (3 * values - 4 * a(-1) + a(-2)) / (2 * h)
    can_c = ok(1) & ok(-1)
    can_f = ok(1) & ok(2)
    can_b = ok(-1) & ok(-2)
    out = np.where(can_c, central, np.where(can_f, forward, backward))
    bad = ~(valid & (can_c | can_f | can_b))
    return np.where(bad, 0, out), bad


def _d2_reference(values, valid, h):
    """Shifted-copy second derivative, as _d1_reference."""
    a = lambda k: _shift_reference(values, k, 0)
    ok = lambda k: _shift_reference(valid, k, False)
    central = (a(1) - 2 * values + a(-1)) / h**2
    forward = (2 * values - 5 * a(1) + 4 * a(2) - a(3)) / h**2
    backward = (2 * values - 5 * a(-1) + 4 * a(-2) - a(-3)) / h**2
    can_c = ok(1) & ok(-1)
    can_f = ok(1) & ok(2) & ok(3)
    can_b = ok(-1) & ok(-2) & ok(-3)
    out = np.where(can_c, central, np.where(can_f, forward, backward))
    bad = ~(valid & (can_c | can_f | can_b))
    return np.where(bad, 0, out), bad


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("order", [1, 2])
def test_stencils_bitwise_equal_shifted_copy_reference(order, dtype, axis):
    from gwsurf.calculus import _axis_apply, _d1, _d2
    from gwsurf import RealField
    op, reference = {1: (_d1, _d1_reference), 2: (_d2, _d2_reference)}[order]
    rng = np.random.default_rng(100 * order + 10 * axis + (dtype is complex))
    for trial in range(60):
        nx, ny = rng.choice(np.arange(3, 40), 2, replace=False)
        g = GridSpec(-1.0, 0.7, -0.3, 1.9, nx, ny)
        vals = rng.standard_normal(g.shape) * 10.0 ** rng.integers(-6, 6)
        if dtype is complex:
            vals = vals + 1j * rng.standard_normal(g.shape)
        # sparse masks leave isolated masked points, dense ones isolated valid points
        mask = rng.random(g.shape) < (0.05, 0.3, 0.8)[trial % 3]
        if trial % 4 == 0:
            mask[rng.integers(nx), :] = True
        if trial % 4 == 1:
            mask[:, rng.integers(ny)] = True
        f = (RealField if dtype is float else ComplexField)(g, vals, mask)
        h = (g.hx, g.hy)[axis]
        got, got_bad = _axis_apply(op, f, h, axis)
        ref, ref_bad = _axis_apply(reference, f, h, axis)
        assert np.array_equal(got_bad, ref_bad)
        assert got.dtype == ref.dtype and got.flags.c_contiguous == ref.flags.c_contiguous
        assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                              np.ascontiguousarray(ref).view(np.uint64))


def test_field_csv_snapshot(tmp_path):
    from gwsurf import field_to_csv
    g = GridSpec(0, 1, 0, 1, 3, 3)
    f = ComplexField(g, g.zmesh())
    path = tmp_path / "f.csv"
    field_to_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 1 + 9
    x, y, re, im = (float(v) for v in lines[1].split(","))
    assert (x, y, re, im) == (0.0, 0.0, 0.0, 0.0)
    x, y, re, im = (float(v) for v in lines[-1].split(","))
    assert (x, y, re, im) == (1.0, 1.0, 1.0, 1.0)

    # byte-identical to the per-element writer on masked, non-square fields
    from gwsurf import RealField
    rng = np.random.default_rng(11)
    g = GridSpec(-0.7, 1.3, -2.0, 0.5, 13, 9)
    mask = np.zeros(g.shape, bool)
    mask[0, 0] = mask[12, 4] = mask[6, 3] = mask[5, 8] = True
    vals = rng.standard_normal(g.shape) * 10.0 ** rng.integers(-9, 9, g.shape)
    vals[3, 3] = -0.0
    for f in (RealField(g, vals, mask),
              ComplexField(g, vals + 1j * rng.standard_normal(g.shape), mask)):
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        field_to_csv(f, got)
        _field_csv_reference(f, ref)
        assert got.read_bytes() == ref.read_bytes()


def _field_csv_reference(field, path):
    """Per-element reference writer for field_to_csv."""
    grid = field.grid
    xs, ys = grid.xs(), grid.ys()
    vals = np.asarray(field.values, dtype=complex)
    r = repr
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,y,re,im\n")
        for i in range(grid.nx):
            for j in range(grid.ny):
                fh.write(f"{r(float(xs[i]))},{r(float(ys[j]))},"
                         f"{r(float(vals[i, j].real))},{r(float(vals[i, j].imag))}\n")


class TestTrapezoid:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_scipy_bitwise(self, axis, dtype):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        from gwsurf.calculus import _cumulative_trapezoid
        rng = np.random.default_rng(3)
        y = rng.standard_normal((17, 23)).astype(dtype)
        if dtype is complex:
            y = y + 1j * rng.standard_normal((17, 23))
        h = 0.0371
        expect = scipy_integrate.cumulative_trapezoid(y, dx=h, axis=axis, initial=0.0)
        got = _cumulative_trapezoid(y, h, axis)
        assert got.shape == expect.shape and got.dtype == expect.dtype
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))


def test_import_does_not_load_scipy():
    import subprocess
    import sys
    # building every family must not pull in sympy, nor numpy's whole public
    # namespace (numpy.testing, numpy.f2py and with them unittest)
    code = ("import sys, gwsurf, gwsurf.cli; print('scipy' in sys.modules)\n"
            "for name in gwsurf.FAMILY_NAMES: gwsurf.build_family(name)\n"
            "print([m for m in ('scipy', 'sympy', 'numpy.testing', 'numpy.f2py', 'unittest')"
            " if m in sys.modules])")
    import os
    import gwsurf
    # the child imports the same gwsurf as this process, installed or not
    src = os.path.dirname(os.path.dirname(gwsurf.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    assert out.stdout.split("\n")[:2] == ["False", "[]"]
