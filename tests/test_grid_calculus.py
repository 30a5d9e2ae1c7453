"""Grid construction, sampling, and Wirtinger-derivative stencils."""
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gwsurf import (ComplexField, GridSpec, RealField, d_z, d_zbar, dx, dxx, dy,
                    family_rational, fit_riccati_coeffs, log_derivatives, mixed_dzbar_dz,
                    riccati_residual, sample, zero_curvature_residual)
from gwsurf import calculus
from gwsurf.closedform import conj, diagonal_form, exp, form
from memtrace import traced_peak

NON_FINITE = re.escape("non-finite entries at unmasked points; supply a mask for singular points")


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
        assert np.count_nonzero(f.mask) == 1

    @pytest.mark.parametrize("cls", [ComplexField, RealField])
    def test_rejects_shapes_other_than_the_grids(self, cls):
        g = grid(5)
        with pytest.raises(ValueError, match=re.escape("values shape (5, 4) does not match")):
            cls(g, np.ones((5, 4)))
        for mask in (np.zeros((5, 1), bool), np.zeros((4, 5), bool)):
            with pytest.raises(ValueError, match="mask shape does not match grid"):
                cls(g, np.ones(g.shape), mask)

    def test_values_read_only(self):
        f = ComplexField(grid(5), np.zeros((5, 5)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


class TestValidationContract:
    """Each field is validated once, where its values come from outside the
    package or from arithmetic that can overflow; a non-finite value at an
    unmasked point raises wherever it enters."""

    def test_nan_of_an_unguarded_closed_form_raises(self):
        cf = form(lambda z: z / z)       # 0/0 at the grid's centre
        with pytest.raises(ValueError, match=NON_FINITE):
            sample(cf, grid(11))

    @pytest.mark.parametrize("cls", [ComplexField, RealField])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_user_data_raises(self, cls, bad):
        vals = np.ones((5, 5))
        vals[1, 3] = bad
        with pytest.raises(ValueError, match=NON_FINITE):
            cls(grid(5), vals)

    @pytest.mark.parametrize("cls", [ComplexField, RealField])
    def test_masked_nan_is_stored_as_zero(self, cls):
        vals = np.ones((5, 5))
        vals[1, 3] = np.nan
        mask = np.zeros((5, 5), bool)
        mask[1, 3] = True
        f = cls(grid(5), vals, mask)
        assert f.values[1, 3] == 0 and np.isfinite(f.values).all()
        mask[1, 3] = False                  # the field keeps its own copy
        assert f.mask[1, 3]

    @pytest.mark.parametrize("op", [dx, dy, dxx, d_z, d_zbar, mixed_dzbar_dz])
    def test_overflow_on_the_derived_path_raises(self, op):
        # finite inputs whose differences overflow to inf
        g = grid(7)
        vals = np.full(g.shape, 1e308)
        vals[:3] = -1e308
        vals[:, :3] *= -1
        f = RealField(g, vals)
        with pytest.raises(ValueError, match=NON_FINITE), np.errstate(all="ignore"):
            op(f)

    def test_derived_fields_are_read_only(self):
        f = ComplexField(grid(5), np.ones((5, 5)))
        for out in (f.conj(), f.without_source(), dx(f), d_z(f)):
            with pytest.raises(ValueError):
                out.values[0, 0] = 1.0
            with pytest.raises(ValueError):
                out.mask[0, 0] = True

    def test_conj_keeps_masked_zeros_positive(self):
        mask = np.zeros((5, 5), bool)
        mask[2, 2] = True
        c = ComplexField(grid(5), np.full((5, 5), 1 + 1j), mask).conj()
        assert not np.signbit(c.values[2, 2].imag)
        assert np.array_equal(c.values[~mask], np.full(24, 1 - 1j))


class TestGradientOnce:
    """The x and y stencils of a field are computed once, kept in its
    memo and shared by d_z, d_zbar, dx and dy. A without_source() view is
    a new field: it starts with an empty memo."""

    @pytest.fixture
    def d1_calls(self, monkeypatch):
        calls = []
        d1 = calculus._d1

        def counting(*args):
            calls.append(args[0].shape)
            return d1(*args)

        monkeypatch.setattr(calculus, "_d1", counting)
        return calls

    @staticmethod
    def fn(z):
        return z**2 * np.conj(z) + np.exp(z)

    def test_dz_then_dzbar_differences_once(self, d1_calls):
        g = grid(21)
        f = plain(g, self.fn)
        dz, dzb, fx, fy = d_z(f), d_zbar(f), dx(f), dy(f)
        assert len(d1_calls) == 2
        for got, op in ((dz, d_z), (dzb, d_zbar), (fx, dx), (fy, dy)):
            assert np.array_equal(got.values, op(plain(g, self.fn)).values)

    def test_fit_then_residual_differences_rho_once(self, d1_calls):
        rho = family_rational(1.0).rho(grid(21)).without_source()
        coeffs = fit_riccati_coeffs(rho)
        riccati_residual(rho, coeffs)
        assert d1_calls == [(21, 1)]

    def test_coefficients_keep_no_stencils(self, d1_calls):
        # zero_curvature_residual differentiates each coefficient once, so
        # the stencils go with the derivative instead of living on in coeffs
        rho = family_rational(1.0).rho(grid(21)).without_source()
        coeffs = fit_riccati_coeffs(rho)
        zero_curvature_residual(coeffs)
        assert d1_calls == [(21, 1)] * (1 + 6)
        assert not any(f._memo for f in coeffs)

    def test_log_derivatives_once_per_field(self, d1_calls):
        # the sigma, deformed-LL and linear-system residuals share one ln H
        h = family_rational(1.0).h(grid(21)).without_source()
        first = log_derivatives(h)
        assert d1_calls == [(21, 1)]
        second = log_derivatives(h)
        assert d1_calls == [(21, 1)]
        assert all(a is b for a, b in zip(first, second))
        assert not any(a.flags.writeable for a in first)

    def test_conj_differences_its_own_values(self, d1_calls):
        g = grid(21)
        mask = np.zeros(g.shape, bool)
        mask[4, 7] = True
        f = ComplexField(g, self.fn(g.zmesh()), mask)
        d_z(f)
        got = d_z(f.conj())
        assert len(d1_calls) == 4
        ref = d_z(ComplexField(g, np.conj(f.values), mask))
        assert np.array_equal(got.values.view(np.uint64), ref.values.view(np.uint64))
        assert np.array_equal(got.mask, ref.mask)


class TestSampling:
    def test_identity(self):
        g = grid(11)
        f = sample(form(lambda z: z), g)
        assert np.allclose(f.values, g.zmesh())

    def test_z_plus_zbar_is_twice_x(self):
        g = GridSpec(0.3, 1.3, 0.7, 1.7, 11, 11)
        f = sample(form(lambda z: z + conj(z)), g)
        assert f.values[0, 0] == pytest.approx(0.6)

    def test_rational_curvature_value(self):
        # 1/(1 + (z+zbar)^2) at x=1 is 1/5 for any y
        g = GridSpec(1.0, 2.0, -3.0, 3.0, 11, 11)
        f = sample(form(lambda z: 1.0 / (1.0 + (z + conj(z)) ** 2)), g)
        assert np.allclose(f.values[0, :], 0.2)

    def test_guard_masks_singular_points(self):
        cf = form(lambda z: 1.0 / z, guard=lambda z: np.abs(z) < 1e-12)
        g = grid(11)
        f = sample(cf, g)
        assert f.mask[5, 5]
        assert not f.mask[0, 0]

    def test_unguarded_singularity_is_an_error(self):
        cf = form(lambda z: 1.0 / z)
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
    cls = RealField if dtype is float else ComplexField
    rng = np.random.default_rng(100 * order + 10 * axis + (dtype is complex))

    def random_values(shape):
        vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6)
        if dtype is complex:
            vals = vals + 1j * rng.standard_normal(shape)
        return vals

    def check(f, g):
        h = (g.hx, g.hy)[axis]
        got, got_bad = _axis_apply(op, f, h, axis)
        ref, ref_bad = _axis_apply(reference, f, h, axis)
        assert np.array_equal(got_bad, ref_bad)
        assert got.dtype == ref.dtype and got.flags.c_contiguous == ref.flags.c_contiguous
        assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                              np.ascontiguousarray(ref).view(np.uint64))

    for trial in range(60):
        nx, ny = rng.choice(np.arange(3, 40), 2, replace=False)
        g = GridSpec(-1.0, 0.7, -0.3, 1.9, nx, ny)
        vals = random_values(g.shape)
        # sparse masks leave isolated masked points, dense ones isolated valid points
        mask = rng.random(g.shape) < (0.05, 0.3, 0.8)[trial % 3]
        if trial % 4 == 0:
            mask[rng.integers(nx), :] = True
        if trial % 4 == 1:
            mask[:, rng.integers(ny)] = True
        check(cls(g, vals, mask), g)

    # stored columns (n, 1) along x, the only stencil shape of x-only
    # fields, and axes shorter than _d2's 7-point window, whose windows are
    # clamped at both ends; every other mask has both ends of the axis masked
    cases = [((n, 9), (n, 1)) for n in (3, 4, 5, 6, 7, 101)] if axis == 0 else []
    for n in (3, 4, 5):
        shape = (n, 6) if axis == 0 else (6, n)
        cases.append((shape, shape))
    for shape, stored in cases:
        g = GridSpec(-1.0, 0.7, -0.3, 1.9, *shape)
        for trial in range(12):
            vals = random_values(stored)
            mask = rng.random(stored) < (0.0, 0.2, 0.5)[trial % 3]
            if trial % 2:
                ends = np.moveaxis(mask, axis, 0)
                ends[0] = ends[-1] = True
            check(cls._derived(g, np.where(mask, 0, vals), mask), g)


def _stencil_nonzero_reference(values, valid, central, one_sided, reach):
    """calculus._stencil with its fallback points found by the 2-D
    np.nonzero search."""
    out = np.empty_like(values, dtype=central.dtype)
    out[1:-1] = central
    fallback = valid.copy()
    fallback[1:-1] &= ~(valid[2:] & valid[:-2])
    idx = np.nonzero(fallback)
    forward, can_f, backward, can_b = one_sided(*calculus._windows(values, valid, idx, reach))
    out[idx] = np.where(can_f, forward, backward)
    bad = ~valid
    bad[idx] = ~(can_f | can_b)
    out[bad] = 0
    return out, bad


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("order", [1, 2])
def test_flat_fallback_search_matches_nonzero_bitwise(order, dtype, monkeypatch):
    # the flat search must find the fallback points of np.nonzero, in its
    # order, on both axes and on transposed (non-contiguous) views
    op = {1: calculus._d1, 2: calculus._d2}[order]
    rng = np.random.default_rng(10 * order + (dtype is complex))

    def apply(values, valid, axis, stencil):
        with monkeypatch.context() as mp:
            mp.setattr(calculus, "_stencil", stencil)
            if axis == 0:
                return op(values, valid, 0.03)
            out, bad = op(values.T, valid.T, 0.03)
            return out.T, bad.T

    for trial in range(40):
        shape = tuple(rng.integers(3, 60, 2))
        values = rng.standard_normal(shape)
        if dtype is complex:
            values = values + 1j * rng.standard_normal(shape)
        valid = rng.random(shape) >= (0.05, 0.3, 0.8)[trial % 3]
        if trial % 2:
            values, valid = values.T, valid.T
        for axis in (0, 1):
            got, got_bad = apply(values, valid, axis, calculus._stencil)
            ref, ref_bad = apply(values, valid, axis, _stencil_nonzero_reference)
            assert np.array_equal(got_bad, ref_bad)
            assert got.dtype == ref.dtype and got.strides == ref.strides
            assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(ref).view(np.uint64))


@pytest.mark.parametrize("order, masked, bound_mib", [
    (1, 0.05, 3.91), (1, 0.3, 7.06), (2, 0.05, 4.16), (2, 0.3, 8.0)])
def test_stencil_peak_memory(order, masked, bound_mib):
    # 1.25x the peak of the per-offset gather the windowed one replaced
    # (3.13, 5.65, 3.33 and 6.40 MiB here); a window gathered at every grid
    # point, not only at the fallback points, would break the bound
    from gwsurf.calculus import _d1, _d2
    op = {1: _d1, 2: _d2}[order]
    rng = np.random.default_rng(order)
    values = rng.standard_normal((251, 251)) + 1j * rng.standard_normal((251, 251))
    valid = rng.random(values.shape) >= masked
    assert traced_peak(lambda: op(values, valid, 0.01)) <= bound_mib * 2**20


class TestTrapezoid:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_scipy_bitwise(self, axis, dtype):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        from gwsurf.calculus import _integrate_from
        rng = np.random.default_rng(3)
        y = rng.standard_normal((17, 23)).astype(dtype)
        if dtype is complex:
            y = y + 1j * rng.standard_normal((17, 23))
        h = 0.0371
        expect = scipy_integrate.cumulative_trapezoid(y, dx=h, axis=axis, initial=0.0)
        got, crossed = _integrate_from(y, np.zeros(y.shape, bool), h, axis, 0)
        assert got.shape == expect.shape and got.dtype == expect.dtype
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
        assert not crossed.any()

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_interior_base_matches_concatenated_sum_bitwise(self, axis, dtype):
        # the running sum written after a zero row of one array, and the
        # base taken off in place, against a zero row concatenated to the
        # sum and the base subtracted into a new array; the result keeps
        # the input's layout (C, Fortran, strided or broadcast)
        from gwsurf.calculus import _integrate_from

        def reference(values, mask, h, axis, k0):
            y = np.moveaxis(values, axis, 0)
            bad = np.moveaxis(mask, axis, 0)
            steps = np.cumsum(h * (y[1:] + y[:-1]) / 2.0, axis=0)
            total = np.concatenate([np.zeros((1,) + steps.shape[1:], dtype=steps.dtype),
                                    steps])
            crossed = np.zeros_like(bad)
            crossed[k0:] = np.logical_or.accumulate(bad[k0:], axis=0)
            crossed[: k0 + 1] |= np.logical_or.accumulate(bad[k0::-1], axis=0)[::-1]
            return np.moveaxis(total - total[k0], 0, axis), np.moveaxis(crossed, 0, axis)

        rng = np.random.default_rng(11 + axis + 2 * (dtype is complex))
        for trial in range(40):
            shape = tuple(rng.integers(3, 40, 2))
            y = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6)
            if dtype is complex:
                y = y + 1j * rng.standard_normal(shape)
            y = (y, np.asfortranarray(y), np.repeat(y, 2, axis=0)[::2],
                 np.broadcast_to(y[:, :1], shape))[trial % 4]
            mask = rng.random(shape) < 0.1
            k0 = int(rng.integers(1, shape[axis] - 1))
            got, crossed = _integrate_from(y, mask, 0.0371, axis, k0)
            want, want_crossed = reference(y, mask, 0.0371, axis, k0)
            assert got.dtype == want.dtype and got.strides == want.strides
            if trial % 4 < 2:
                assert got.flags.c_contiguous == y.flags.c_contiguous
                assert got.flags.f_contiguous == y.flags.f_contiguous
            assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64))
            assert np.array_equal(crossed, want_crossed)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_crossed_on_both_sides_of_the_base(self, axis):
        from gwsurf.calculus import _integrate_from
        y = np.arange(11.0)[:, None] * np.ones((1, 3))
        mask = np.zeros(y.shape, bool)
        mask[2, 1] = mask[8, 1] = True      # one masked point either side of k0 = 5
        got, crossed = _integrate_from(np.moveaxis(y, 0, axis), np.moveaxis(mask, 0, axis),
                                       0.5, axis, 5)
        got, crossed = np.moveaxis(got, axis, 0), np.moveaxis(crossed, axis, 0)
        # y = x / h on x = k h: the trapezoid rule is exact, (x^2 - x0^2) / (2 h)
        assert np.array_equal(got[:, 0], 0.25 * (np.arange(11.0) ** 2 - 25))
        assert not crossed[:, [0, 2]].any()
        assert list(np.nonzero(crossed[:, 1])[0]) == [0, 1, 2, 8, 9, 10]


def test_import_does_not_load_scipy():
    import subprocess
    import sys
    # building every family must not pull in sympy, nor numpy's whole public
    # namespace (numpy.testing, numpy.f2py and with them unittest), nor a
    # thread pool (concurrent.futures, and with it logging)
    code = ("import sys, gwsurf, gwsurf.cli; print('scipy' in sys.modules)\n"
            "for name in gwsurf.FAMILY_NAMES: gwsurf.build_family(name)\n"
            "print([m for m in ('scipy', 'sympy', 'numpy.testing', 'numpy.f2py', 'unittest',"
            " 'concurrent.futures', 'logging') if m in sys.modules])")
    import os
    import gwsurf
    # the child imports the same gwsurf as this process, installed or not
    src = os.path.dirname(os.path.dirname(gwsurf.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    assert out.stdout.split("\n")[:2] == ["False", "[]"]
