"""rho-representation: transforms, symmetries, spin matrix, deformations."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gwsurf import (ComplexField, GridSpec, ResidualPart, SpinorField, apply_discrete_symmetry,
                    build_family, compatibility_residual, d_z,
                    deformed_ll_residual, family_exponential, family_rational,
                    family_trigonometric, family_unimodular, form,
                    landau_lifshitz_residual, ll_commutator, multisoliton_product, psi_from_rho,
                    pointwise, rho_from_psi, sample, sample_real, sigma_residual, spin_matrix,
                    unimodular_H_constancy_check, weierstrass_residual)
from gwsurf.sigma import _continue_sign, psi_pair

G = GridSpec(-1, 1, -1, 1, 101, 101)
TRIG_G = GridSpec(0.05, 0.6, -1, 1, 101, 101)


def _bits(values):
    # a constant slot is a broadcast view, whose bits need a contiguous copy
    return np.ascontiguousarray(values).view(np.uint64)


def rho_of(values, g=G):
    return ComplexField(g, values)


def const_h(c, g=G):
    return sample_real(form(lambda z: c), g)


class TestRhoFromPsi:
    def test_rational_profile(self):
        # psi1/conj(psi2) collapses to lambda*(z+zbar)
        r = rho_from_psi(family_rational(1.0).spinor(G))
        expect = 2 * np.real(G.zmesh())
        assert np.max(np.abs(r.values - expect)) < 1e-12

    def test_exponential_profile(self):
        r = rho_from_psi(family_exponential(1.0).spinor(G))
        expect = np.exp(2 * np.real(G.zmesh()))
        assert np.max(np.abs(r.values - expect)) < 5e-12

    def test_equal_real_components_give_one(self):
        ones = ComplexField(G, np.full(G.shape, 0.7))
        r = rho_from_psi(SpinorField(ones, ones))
        assert np.max(np.abs(r.values - 1.0)) < 1e-14

    def test_zero_psi2_rejected(self):
        zero = ComplexField(G, np.zeros(G.shape))
        one = ComplexField(G, np.ones(G.shape))
        with pytest.raises(ValueError):
            rho_from_psi(SpinorField(one, zero))


class TestPsiFromRho:
    def test_rational_point_values(self):
        # at z=0: (psi1, psi2) = (0, 1); at z=1 (s=2): (2/sqrt5, 1/sqrt5)
        fam = family_rational(1.0)
        s = psi_from_rho(fam.rho(G), fam.h(G))
        i0, j0 = G.index_of(0.0, 0.0)
        assert abs(s.psi1.values[i0, j0]) < 1e-14
        assert s.psi2.values[i0, j0] == pytest.approx(1.0)
        i1, j1 = G.index_of(1.0, 0.0)
        assert s.psi1.values[i1, j1] == pytest.approx(2 / np.sqrt(5))
        assert s.psi2.values[i1, j1] == pytest.approx(1 / np.sqrt(5))

    def test_round_trip_rho_psi_rho(self):
        fam = family_rational(1.0)
        rho = fam.rho(G)
        back = rho_from_psi(psi_from_rho(rho, fam.h(G)))
        assert np.max(np.abs(back.values - rho.values)) < 1e-12

    def test_round_trip_psi_rho_psi(self):
        fam = family_exponential(1.0)
        s = fam.spinor(G)
        back = psi_from_rho(rho_from_psi(s), fam.h(G))
        for a, b in ((back.psi1, s.psi1), (back.psi2, s.psi2)):
            assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_nonpositive_h_rejected(self):
        fam = family_rational(1.0)
        with pytest.raises(ValueError):
            psi_from_rho(fam.rho(G), const_h(-1.0))

    def test_branch_continuation_crosses_principal_cut(self):
        # d rho of exp(2i x) sweeps the circle; the continued square root
        # must stay smooth where the principal branch jumps
        fam = family_unimodular(2.0, 1.0)
        s = psi_from_rho(fam.rho(G).without_source(), fam.h(G))
        steps = np.abs(np.diff(s.psi2.values, axis=0))
        assert np.max(steps) < 0.1    # no O(1) sign-flip line

    def test_flipped_components_keep_signed_jets(self):
        # the continued branch is the principal one times a sign that is
        # constant between flips, so every slot of its jet is the principal
        # slot times that sign, bit for bit
        fam = build_family("unimodular")
        g = GridSpec(*fam.default_domain, 101, 101)
        rho, h = fam.rho(g), fam.h(g)
        s = psi_from_rho(rho, h)
        drho = d_z(rho)
        mask = s.psi1.stored[1]
        sign = _continue_sign(np.sqrt(drho.stored[0]), ~mask)
        assert np.any((sign < 0) & ~mask)
        for k, f in enumerate((s.psi1, s.psi2)):
            principal = pointwise(lambda r, dr, hv: psi_pair(r, dr, hv)[k], rho, drho, h,
                                  mask=mask)
            assert f.source is not None
            assert f.source.order == principal.source.order >= 1
            for a, b in zip(f.source.jet().slots(), principal.source.jet().slots()):
                assert np.array_equal(_bits(a), _bits(sign * b))

    def test_transform_on_partially_masked_grid(self):
        # sampling the trig profile beyond its admissible strip masks the
        # outside; the transform must still be a solution on the inside
        fam = family_trigonometric(1.0)
        wide = GridSpec(-0.5, 1.0, -1, 1, 61, 61)
        s = psi_from_rho(fam.rho(wide), fam.h(wide))
        assert s.psi1.mask.any() and not s.psi1.mask.all()
        rep = weierstrass_residual(s, fam.h(wide))
        assert rep.max_norm < 1e-12


class TestSigmaResidual:
    def test_families_analytic(self):
        for fam, g in ((family_rational(1.0), G), (family_exponential(1.0), G),
                       (family_trigonometric(1.0), TRIG_G)):
            rep = sigma_residual(fam.rho(g), fam.h(g))
            assert rep.max_norm < 1e-12, fam.name

    def test_holomorphic_square_constant_h(self):
        # dbar rho = 0 kills every term; stencils reproduce that exactly
        zz = G.zmesh()
        rep = sigma_residual(rho_of(zz**2), const_h(1.0))
        assert rep.max_norm < 1e-12

    def test_nonpositive_h_rejected(self):
        with pytest.raises(ValueError):
            sigma_residual(rho_of(G.zmesh()), const_h(0.0))


class TestDiscreteSymmetries:
    def test_inversion_twice_is_identity(self):
        fam = family_exponential(1.0)
        r = fam.rho(G)
        twice = apply_discrete_symmetry(apply_discrete_symmetry(r, "I"), "I")
        ok = ~twice.mask
        assert np.max(np.abs(twice.values[ok] - r.values[ok])) < 1e-12

    def test_sign_flip_preserves_residual(self):
        fam = family_rational(1.0)
        r2 = apply_discrete_symmetry(fam.rho(G), "Z2")
        rep = sigma_residual(r2, fam.h(G))
        assert rep.max_norm < 1e-12

    def test_inversion_preserves_solutions_away_from_zero(self):
        # the sigma operator obeys LHS(1/rho) = -LHS(rho)/rho^2, so the
        # inverse of a solution is a solution wherever rho is not small
        fam = family_rational(1.0)
        inv = apply_discrete_symmetry(fam.rho(G), "I")
        extra = np.abs(fam.rho(G).values) < 0.25
        masked = pointwise(lambda v: v, inv, mask=extra)
        rep = sigma_residual(masked, fam.h(G))
        assert rep.max_norm < 1e-10

    def test_unknown_symmetry_rejected(self):
        with pytest.raises(ValueError):
            apply_discrete_symmetry(rho_of(G.zmesh()), "Z9")


class TestSpinMatrix:
    def test_zero_rho_is_diagonal(self):
        S = spin_matrix(rho_of(np.zeros(G.shape)))
        assert np.allclose(S.s11.values, 1.0)
        assert np.allclose(S.s22.values, -1.0)
        assert np.allclose(S.s12.values, 0.0)

    def test_unit_rho_is_offdiagonal(self):
        S = spin_matrix(rho_of(np.ones(G.shape)))
        assert np.allclose(S.s11.values, 0.0)
        assert np.allclose(S.s12.values, 1.0)
        assert np.allclose(S.s21.values, 1.0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_algebra_for_random_fields(self, seed):
        rng = np.random.default_rng(seed)
        g = GridSpec(-1, 1, -1, 1, 9, 9)
        vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        rep = spin_matrix(ComplexField(g, vals)).algebra_report()
        assert rep.max_norm < 1e-12


class TestCommutatorIdentity:
    def test_closed_form_of_commutator(self):
        # For any rho, [S, d dbar S] equals
        #   4 (1+|rho|^2)^{-2} [[cb f - rho fb, cb^2 f + fb],
        #                       [-(f + rho^2 fb), rho fb - cb f]]
        # with f the sigma operator applied to rho and fb its conjugate.
        # Checked on a generic two-dimensional rho with pure stencils on
        # both sides, so the agreement is independent of the jet algebra;
        # the gap must shrink at second order.
        from gwsurf.calculus import d_z, d_zbar, mixed_dzbar_dz

        def gap(n):
            g = GridSpec(-1, 1, -1, 1, n, n)
            zz = g.zmesh()
            vals = (1 + zz**2 * np.conj(zz) / 3 + 1j * np.conj(zz) ** 2 - 2 * zz) / 7
            rho_f = ComplexField(g, vals)
            c = ll_commutator(rho_f)
            (c11, c12, c21, c22), cmask = c.entries, c.mask

            rho = rho_f.values
            cb = np.conj(rho)
            m = 1.0 + np.abs(rho) ** 2
            dr = d_z(rho_f).values
            dbr = d_zbar(rho_f).values
            f = mixed_dzbar_dz(rho_f).values - 2 * cb / m * dr * dbr
            fb = np.conj(f)
            pref = 4.0 / m**2
            claim = (pref * (cb * f - rho * fb), pref * (cb**2 * f + fb),
                     -pref * (f + rho**2 * fb), pref * (rho * fb - cb * f))

            inner = np.zeros(g.shape, bool)
            inner[3:-3, 3:-3] = True
            sel = inner & ~cmask
            return max(np.max(np.abs(got - want)[sel]) for got, want in
                       zip((c11, c12, c21, c22), claim))

        g1, g2 = gap(41), gap(81)
        assert g2 < 1e-2
        assert 3.0 < g1 / g2 < 5.0


class TestLandauLifshitz:
    def test_unimodular_solution(self):
        fam = family_unimodular(1.0, 1.0)
        rep = landau_lifshitz_residual(ll_commutator(fam.rho(G)))
        assert rep.max_norm < 1e-12

    def test_constant_rho_trivial(self):
        # zero up to edge-stencil roundoff amplified by 1/h^2
        rep = landau_lifshitz_residual(ll_commutator(rho_of(np.full(G.shape, 0.3 + 0.4j))))
        assert rep.max_norm < 1e-11

    def test_nonconstant_h_needs_deformation(self):
        # the homogeneous spin equation fails on a solution for varying H
        fam = family_rational(1.0)
        rep = landau_lifshitz_residual(ll_commutator(fam.rho(G)))
        assert rep.max_norm > 1.0


class TestDeformedLandauLifshitz:
    def test_rational_family(self):
        fam = family_rational(1.0)
        rep = deformed_ll_residual(ll_commutator(fam.rho(G)), fam.h(G))
        assert rep.max_norm < 1e-10
        assert rep.masked_points == 101   # the rho = 0 line is masked

    def test_trig_family(self):
        fam = family_trigonometric(1.0)
        rep = deformed_ll_residual(ll_commutator(fam.rho(TRIG_G)), fam.h(TRIG_G))
        assert rep.max_norm < 1e-10

    def test_constant_h_equals_homogeneous(self):
        fam = family_unimodular(1.0, 1.0)
        r = fam.rho(G)
        a = deformed_ll_residual(ll_commutator(r), fam.h(G))
        b = landau_lifshitz_residual(ll_commutator(r))
        assert a.max_norm == pytest.approx(b.max_norm, abs=1e-14)
        # both judge every point of an analytic rho: the same point set
        assert a.masked_points == b.masked_points

    def test_fd_path_converges(self):
        fam = family_rational(1.0)

        def res(n):
            g = GridSpec(-1, 1, -1, 1, n, n)
            return deformed_ll_residual(ll_commutator(fam.rho(g).without_source()),
                                        fam.h(g).without_source()).max_norm

        r1, r2 = res(51), res(101)
        assert 3.0 < r1 / r2 < 5.0


class TestMultisoliton:
    def test_product_of_solutions_is_solution(self):
        r1 = family_unimodular(1.0, 1.0).rho(G)
        r2 = family_unimodular(2.0, 1.0).rho(G)
        prod = multisoliton_product(r1, r2)
        assert np.max(np.abs(np.abs(prod.values) - 1.0)) < 1e-10
        rep = sigma_residual(prod, const_h(1.0))
        assert rep.max_norm < 1e-12

    def test_same_factor_doubles_frequency(self):
        r1 = family_unimodular(1.0, 1.0).rho(G)
        prod = multisoliton_product(r1, r1)
        expect = np.exp(2j * 2 * np.real(G.zmesh()))
        assert np.max(np.abs(prod.values - expect)) < 1e-12

    def test_unit_factor_is_neutral(self):
        r1 = family_unimodular(1.0, 1.0).rho(G)
        one = rho_of(np.ones(G.shape, complex))
        prod = multisoliton_product(r1, one)
        assert np.array_equal(prod.values, r1.values)

    def test_nonunimodular_rejected(self):
        r1 = family_unimodular(1.0, 1.0).rho(G)
        with pytest.raises(ValueError):
            multisoliton_product(r1, rho_of(2 * np.ones(G.shape, complex)))


class TestUnimodularConstancy:
    def test_constant_h_consistent(self):
        r = family_unimodular(1.0, 1.0).rho(G)
        rep = unimodular_H_constancy_check(r, const_h(2.5))
        assert rep.details["consistent"] is True
        assert rep.parts == (ResidualPart("h_spread", 0.0, 0.0),)

    def test_varying_h_flagged(self):
        r = family_unimodular(1.0, 1.0).rho(G)
        rep = unimodular_H_constancy_check(r, family_rational(1.0).h(G))
        assert rep.details["consistent"] is False
        assert rep.max_norm > 0.1

    def test_nonunimodular_precondition(self):
        with pytest.raises(ValueError):
            unimodular_H_constancy_check(rho_of(G.zmesh()), const_h(1.0))


class TestCompatibility:
    def test_unimodular_exponentials(self):
        fam = family_unimodular(1.5, 1.0)
        rep = compatibility_residual(fam.rho(G), fam.h(G))
        assert rep.max_norm < 1e-12

    def test_constant_rho_fully_masked(self):
        r = rho_of(np.ones(G.shape, complex))
        rep = compatibility_residual(r, const_h(1.0))
        assert rep.masked_points == G.nx * G.ny
        assert rep.max_norm == 0.0

    def test_product_solution(self):
        r1 = family_unimodular(1.0, 1.0).rho(G)
        r2 = family_unimodular(2.0, 1.0).rho(G)
        rep = compatibility_residual(multisoliton_product(r1, r2), const_h(1.0))
        assert rep.max_norm < 1e-10


class TestTransformTheorem:
    """Both directions of the spinor <-> rho correspondence at machine precision."""

    @pytest.mark.parametrize("make,g", [
        (lambda: family_rational(1.0), G),
        (lambda: family_exponential(1.0), G),
        (lambda: family_trigonometric(1.0), TRIG_G),
    ])
    def test_both_directions(self, make, g):
        fam = make()
        h = fam.h(g)
        assert weierstrass_residual(psi_from_rho(fam.rho(g), h), h).max_norm < 1e-12
        assert sigma_residual(rho_from_psi(fam.spinor(g)), h).max_norm < 1e-12

    def test_holomorphic_direction(self):
        h = const_h(1.0)
        r = sample(form(lambda z: z), G)
        s = psi_from_rho(r, h)
        assert weierstrass_residual(s, h).max_norm < 1e-12
