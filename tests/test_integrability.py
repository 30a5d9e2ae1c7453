"""Riccati constraints, zero-curvature conditions, sinh-Gordon, linearization."""
import numpy as np
import pytest

from gwsurf import (ComplexField, GridSpec, MeanCurvature, RhoField, SpinorField,
                    current_J, d_z, d_zbar, density_p, family_exponential,
                    family_holomorphic, family_rational,
                    family_trigonometric, fit_riccati_coeffs, h_from_profile,
                    h_integrability_residual, linear_system_residual,
                    linearization_constraint_residual, riccati_residual,
                    sinh_gordon_residual, zero_curvature_residual)
from gwsurf.integrability import HolomorphicProfile, RiccatiCoeffs

G = GridSpec(-1, 1, -1, 1, 101, 101)
TRIG_G = GridSpec(0.05, 0.6, -1, 1, 101, 101)


def const_field(c, g=G):
    return ComplexField(g, np.full(g.shape, c, dtype=complex))


def coeffs(g=G, **kw):
    fields = {k: const_field(kw.get(k, 0.0), g)
              for k in ("a10", "a11", "a12", "a20", "a21", "a22")}
    return RiccatiCoeffs(**fields)


class TestProfiles:
    def test_cosh_profile_satisfies_criterion(self):
        H = h_from_profile(np.cosh)
        rep = h_integrability_residual(H, G, exclude_rings=2)
        assert rep.max_norm < 1e-3

    def test_constant_profile_gives_constant_h(self):
        H = h_from_profile(lambda z: np.full(np.shape(z), 4.0, dtype=complex))
        f = H.sample(G)
        assert np.allclose(f.values, 1 / 8.0)

    def test_two_argument_profile_rejected(self):
        with pytest.raises(ValueError):
            HolomorphicProfile(lambda z, zbar: z * zbar)

    def test_complex_on_real_axis_rejected(self):
        with pytest.raises(ValueError):
            HolomorphicProfile(lambda z: 1j * z + 1j)

    def test_denominator_zeros_masked(self):
        H = h_from_profile(lambda z: z)          # Q(z)+Q(zbar) = 2x
        f = H.sample(G)
        assert f.mask[G.index_of(0.0, 0.0)]


class TestIntegrabilityClassifier:
    def test_rational_family_fixed_defect(self):
        # 1/H = 1 + lam^2 s^2 has constant mixed derivative 2 lam^2
        for lam in (1.0, 2.0):
            fam = family_rational(lam)
            rep = h_integrability_residual(fam.mean_curvature, G)
            assert rep.max_norm == pytest.approx(2 * lam**2, abs=1e-6)

    def test_exponential_family_bounded_away_from_zero(self):
        fam = family_exponential(1.0)
        rep = h_integrability_residual(fam.mean_curvature, G)
        assert rep.max_norm >= 1.0

    def test_constant_h_integrable(self):
        rep = h_integrability_residual(MeanCurvature.constant(3.0), G)
        assert rep.max_norm < 1e-12

    def test_vanishing_h_rejected(self):
        zz = G.zmesh()
        from gwsurf.grid import RealField
        field = RealField(G, 2 * np.real(zz))
        with pytest.raises(ValueError):
            h_integrability_residual(MeanCurvature.from_field(field), G)


class TestRiccati:
    def test_linear_profile_constant_coefficients(self):
        # rho = lam*s has d rho = dbar rho = lam: order-zero coefficients
        lam = 1.0
        rho = family_rational(lam).rho(G, analytic=False)
        rep = riccati_residual(rho, coeffs(a10=lam, a20=lam))
        assert rep.max_norm < 1e-12

    def test_zero_rho_zero_coefficients(self):
        rho = RhoField(const_field(0.0))
        rep = riccati_residual(rho, coeffs())
        assert rep.max_norm == 0.0

    def test_exponential_profile_order_one(self):
        lam = 1.0
        rho = family_exponential(lam).rho(G)
        rep = riccati_residual(rho, coeffs(a11=lam, a21=lam))
        assert rep.max_norm < 1e-12

    def test_fit_recovers_families(self):
        for fam in (family_rational(1.0), family_exponential(1.0)):
            rho = fam.rho(G)
            c = fit_riccati_coeffs(rho)
            assert riccati_residual(rho, c, exclude_rings=2).max_norm < 1e-9, fam.name
            assert zero_curvature_residual(c, exclude_rings=2).max_norm < 1e-9, fam.name


    @pytest.mark.parametrize("case", ["rational", "trig", "holomorphic"])
    def test_fit_bitwise_equal_full_batch_reference(self, case):
        # diagonal families repeat one design per grid row; the trig domain
        # crosses the guard band (masked rows); holomorphic rho repeats nothing
        fam, g = {
            "rational": (family_rational(1.3), GridSpec(-1, 1, -1, 1, 41, 37)),
            "trig": (family_trigonometric(1.5), GridSpec(0.0, 0.6, -1, 1, 41, 37)),
            "holomorphic": (family_holomorphic(), GridSpec(-1, 1, -1, 1, 41, 37)),
        }[case]
        rho = fam.rho(g, analytic=False)
        assert case != "trig" or rho.rho.mask.any()
        got = fit_riccati_coeffs(rho)
        for f, ref in zip(got.fields(), _fit_riccati_reference(rho)):
            assert np.array_equal(f.values.view(np.uint64), ref.view(np.uint64))


def _fit_riccati_reference(r):
    """One batched pinv over every point's weighted 3x3-neighbourhood design."""
    rho = r.rho.values
    drho, dbrho = d_z(r.rho), d_zbar(r.rho)
    valid = ~(r.rho.mask | drho.mask | dbrho.mask)
    nx, ny = r.grid.shape
    ii, jj = np.arange(nx), np.arange(ny)
    offs = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    ni = np.stack([np.clip(ii[:, None] + di, 0, nx - 1).repeat(ny, 1)
                   for di, _ in offs], axis=-1)
    nj = np.stack([np.clip(jj[None, :] + dj, 0, ny - 1).repeat(nx, 0)
                   for _, dj in offs], axis=-1)
    rho_n = rho[ni, nj]
    w = valid[ni, nj].astype(float)
    design = np.stack([np.ones_like(rho_n), rho_n, rho_n**2], axis=-1) * w[..., None]
    pinv = np.linalg.pinv(design)
    coefs = [np.einsum("...ck,...k->...c", pinv, f.values[ni, nj] * w) for f in (drho, dbrho)]
    return [np.where(valid, c[..., k], 0) for c in coefs for k in range(3)]


class TestZeroCurvature:
    def test_all_zero(self):
        assert zero_curvature_residual(coeffs()).max_norm == 0.0

    def test_constant_coefficients_with_cancelling_products(self):
        # equal row pairs cancel every bilinear term
        rep = zero_curvature_residual(coeffs(a10=0.3, a20=0.3, a11=1.1, a21=1.1,
                                             a12=-0.7, a22=-0.7))
        assert rep.max_norm < 1e-12


class TestSinhGordon:
    def test_rational_family(self):
        fam = family_rational(1.0)
        rep = sinh_gordon_residual(fam.spinor(G), fam.mean_curvature, exclude_rings=2)
        assert rep.max_norm < 1e-10

    def test_pointwise_identity_constant_density(self):
        # constant p forces |J|^2 = p^4 H^2 pointwise
        for fam in (family_rational(1.0), family_exponential(1.0)):
            s = fam.spinor(G)
            J = current_J(s).j
            p = density_p(s)
            h = fam.mean_curvature.sample(G)
            gap = np.abs(J.values) ** 2 - p.values**4 * h.values**2
            assert np.max(np.abs(gap)) < 1e-10, fam.name

    def test_trig_family_strip(self):
        fam = family_trigonometric(1.0)
        rep = sinh_gordon_residual(fam.spinor(TRIG_G), fam.mean_curvature,
                                   exclude_rings=2)
        assert rep.max_norm < 1e-10

    def test_zero_density_rejected(self):
        z = np.zeros(G.shape, complex)
        s = SpinorField(ComplexField(G, z), ComplexField(G, z))
        with pytest.raises(ValueError):
            sinh_gordon_residual(s, MeanCurvature.constant(1.0))


class TestLinearization:
    def test_rational_constraints_hold(self):
        fam = family_rational(1.0)
        rep = linearization_constraint_residual(fam.spinor(G))
        assert rep.max_norm < 1e-12
        assert rep.details["p_variance"] < 1e-10

    def test_random_spinor_fails(self):
        rng = np.random.default_rng(7)
        s = SpinorField(
            ComplexField(G, rng.standard_normal(G.shape) + 1j * rng.standard_normal(G.shape)),
            ComplexField(G, rng.standard_normal(G.shape) + 1j * rng.standard_normal(G.shape)))
        rep = linearization_constraint_residual(s)
        assert rep.max_norm > 1.0

    def test_zero_spinor(self):
        z = np.zeros(G.shape, complex)
        s = SpinorField(ComplexField(G, z), ComplexField(G, z))
        assert linearization_constraint_residual(s).max_norm == 0.0


class TestLinearSystem:
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_families_with_their_density(self, lam):
        for make in (family_rational, family_exponential):
            fam = make(lam)
            rep = linear_system_residual(fam.spinor(G), fam.mean_curvature, lam,
                                         exclude_rings=2)
            assert rep.max_norm < 1e-10, fam.name

    def test_zero_spinor(self):
        z = np.zeros(G.shape, complex)
        s = SpinorField(ComplexField(G, z), ComplexField(G, z))
        rep = linear_system_residual(s, MeanCurvature.constant(1.0), 1.0)
        assert rep.max_norm == 0.0

    def test_wrong_density_constant_fails(self):
        fam = family_rational(1.0)
        rep = linear_system_residual(fam.spinor(G), fam.mean_curvature, 3.0,
                                     exclude_rings=2)
        assert rep.max_norm > 1e-2
