"""First-order system residuals, conservation laws, and currents."""
import numpy as np
import pytest

from gwsurf import (ComplexField, GridSpec, RealField, SpinorField, conservation_defect,
                    current_J, d_zbar, dbar_J_defect, density_p,
                    family_exponential, family_rational, family_unimodular, form,
                    gaussian_curvature_from_p, modified_current,
                    potential_conservation_residual, sample_real, weierstrass_residual)

G = GridSpec(-1, 1, -1, 1, 101, 101)
ONE = sample_real(form(lambda z: 1.0), G)


def zero_spinor(g=G):
    z = np.zeros(g.shape, complex)
    return SpinorField(ComplexField(g, z), ComplexField(g, z))


def perturbed(s, delta=0.01):
    return SpinorField(ComplexField(s.grid, s.psi1.values + delta),
                       s.psi2.without_source())


class TestDensity:
    def test_zero_spinor(self):
        p = density_p(zero_spinor())
        assert np.all(p.values == 0)

    def test_rational_density_is_lambda(self):
        p = density_p(family_rational(1.0).spinor(G))
        assert np.max(np.abs(p.values - 1.0)) < 1e-12

    def test_exponential_density_is_lambda(self):
        p = density_p(family_exponential(2.0).spinor(G))
        assert np.max(np.abs(p.values - 2.0)) < 1e-12


class TestSystemResidual:
    def test_rational_analytic_machine_zero(self):
        fam = family_rational(1.0)
        rep = weierstrass_residual(fam.spinor(G), fam.h(G))
        assert rep.max_norm < 1e-12
        assert {p.name for p in rep.parts} == {
            "d_psi1", "dbar_psi2", "dbar_conj_psi1", "d_conj_psi2"}

    def test_zero_spinor_zero_residual(self):
        rep = weierstrass_residual(zero_spinor(), ONE)
        assert rep.max_norm == 0.0

    def test_fd_residual_converges_second_order(self):
        fam = family_rational(1.0)

        def res(n):
            g = GridSpec(-1, 1, -1, 1, n, n)
            return weierstrass_residual(fam.spinor(g).without_sources(), fam.h(g)).max_norm

        r1, r2 = res(51), res(101)
        assert 3.5 < r1 / r2 < 4.5


class TestConservation:
    def test_families_conserve(self):
        for fam in (family_rational(1.0), family_exponential(1.0)):
            rep = potential_conservation_residual(fam.spinor(G))
            assert rep.max_norm < 1e-12, fam.name

    def test_zero_spinor(self):
        assert potential_conservation_residual(zero_spinor()).max_norm == 0.0

    def test_non_solution_fails(self):
        # generic fields conserve nothing: the same test must reject them
        fam = family_rational(1.0)
        rep = potential_conservation_residual(perturbed(fam.spinor(G).without_sources()))
        assert rep.max_norm > 1e-3


class TestCurrent:
    def test_zero_spinor_current_vanishes(self):
        assert np.all(current_J(zero_spinor()).values == 0)

    def test_rational_current_closed_form(self):
        # for the rational family at lambda=1 the current is -1/(1+s^2)
        s = family_rational(1.0).spinor(G)
        J = current_J(s)
        expect = -1.0 / (1.0 + (2 * np.real(G.zmesh())) ** 2)
        assert np.max(np.abs(J.values - expect)) < 1e-12

    def test_defect_identity_families(self):
        for fam in (family_rational(1.0), family_exponential(1.0)):
            def res(n):
                g = GridSpec(-1, 1, -1, 1, n, n)
                return dbar_J_defect(fam.spinor(g), fam.h(g)).max_norm
            r1, r2 = res(51), res(101)
            assert r2 < 1e-2
            assert 3.0 < r1 / r2 < 5.0, fam.name

    def test_constant_h_current_conserved(self):
        # dbar J = -p^2 dH vanishes outright when H is constant
        fam = family_unimodular(1.0, 1.0)
        rep = conservation_defect(current_J(fam.spinor(G)))
        assert rep.max_norm < 1e-3

    def test_constant_h_holomorphic_solution_conserved(self):
        from gwsurf import family_holomorphic
        fam = family_holomorphic(h0=1.0)
        rep = conservation_defect(current_J(fam.spinor(G)))
        assert rep.max_norm < 1e-3

    def test_zero_spinor_defect(self):
        rep = dbar_J_defect(zero_spinor(), ONE)
        assert rep.max_norm == 0.0


class TestModifiedCurrent:
    def test_rational_restores_conservation(self):
        fam = family_rational(1.0)

        def res(n):
            g = GridSpec(-1, 1, -1, 1, n, n)
            cur = modified_current(fam.spinor(g), fam.h(g), 0.0)
            return conservation_defect(cur).max_norm

        r1, r2 = res(51), res(101)
        assert r2 < 1e-3
        assert 3.0 < r1 / r2 < 5.0

    def test_constant_h_reduces_to_plain_current(self):
        fam = family_unimodular(1.0, 1.0)
        s = fam.spinor(G)
        cur = modified_current(s, fam.h(G), 0.0)
        assert np.array_equal(cur.values, current_J(s).values)

    def test_basepoint_shift_changes_by_conserved_field(self):
        fam = family_rational(1.0)
        s = fam.spinor(G)
        a = modified_current(s, fam.h(G), 0.0)
        b = modified_current(s, fam.h(G), 0.5)
        diff = ComplexField(G, a.values - b.values, a.mask | b.mask)
        rep = d_zbar(diff)
        assert np.max(np.abs(rep.values[2:-2, 2:-2])) < 1e-3

    def test_basepoint_off_grid_rejected(self):
        fam = family_rational(1.0)
        with pytest.raises(ValueError):
            modified_current(fam.spinor(G), fam.h(G), 0.0123456)

    def test_base_abscissa_checked_as_index_of_does(self):
        # hx = 0.01, hy = 0.1: index_of allows 1e-9 of the larger spacing,
        # so 5e-10 off the line x = 0 is not a grid point
        g = GridSpec(0, 1, 0, 1, 101, 11)
        fam = family_rational(1.0)
        s, h = fam.spinor(g), fam.h(g)
        with pytest.raises(ValueError, match="not a grid point"):
            g.index_of(5e-10, g.y_min)
        with pytest.raises(ValueError, match="not a grid point"):
            modified_current(s, h, 5e-10)
        assert np.array_equal(modified_current(s, h, 1e-11).values,
                              modified_current(s, h, 0.0).values)


class TestGaussCurvature:
    def test_constant_density_flat(self):
        p = RealField(G, np.full(G.shape, 3.7))
        assert np.max(np.abs(gaussian_curvature_from_p(p).values)) == 0.0

    def test_rational_family_flat(self):
        # p is constant, so the intrinsic curvature vanishes identically
        p = density_p(family_rational(1.0).spinor(G))
        assert np.max(np.abs(gaussian_curvature_from_p(p).values)) < 1e-12

    def test_against_symbolic_oracle(self):
        # p = 1 + |z|^2 has K = -1/(1+|z|^2)^4
        def err(n):
            g = GridSpec(-1, 1, -1, 1, n, n)
            zz = g.zmesh()
            p = RealField(g, 1.0 + np.abs(zz) ** 2)
            K = gaussian_curvature_from_p(p)
            expect = -1.0 / (1.0 + np.abs(zz) ** 2) ** 4
            return np.max(np.abs(K.values - expect)[2:-2, 2:-2])

        e1, e2 = err(51), err(101)
        assert e2 < 1e-3
        assert 3.0 < e1 / e2 < 5.0

    def test_nonpositive_density_rejected(self):
        p = RealField(G, np.zeros(G.shape))
        with pytest.raises(ValueError):
            gaussian_curvature_from_p(p)
