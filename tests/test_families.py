"""Closed-form solution families: frozen point values and identities."""
import operator

import numpy as np
import pytest

from gwsurf import (FAMILY_NAMES, GridSpec, RealField, apply_discrete_symmetry,
                    build_family, density_p, family_exponential, family_holomorphic,
                    family_rational, family_trigonometric, family_unimodular,
                    multisoliton_product, psi_from_rho, rho_from_psi, sigma_residual,
                    spin_matrix, weierstrass_residual)
from gwsurf.calculus import _d1, d_z, dy, mixed_dzbar_dz
from gwsurf.closedform import form, pointwise, sample

G = GridSpec(-1, 1, -1, 1, 101, 101)
TRIG_G = GridSpec(0.05, 0.6, -1, 1, 101, 101)


def at(g, field_vals, x, y):
    i, j = g.index_of(x, y)
    return field_vals[i, j]


class TestRational:
    def test_point_values(self):
        fam = family_rational(1.0)
        h = fam.h(G).values
        rho = fam.rho(G).values
        s = fam.spinor(G)
        # at z=0: H=1, rho=0, psi=(0, 1)
        assert at(G, h, 0, 0) == pytest.approx(1.0)
        assert abs(at(G, rho, 0, 0)) < 1e-15
        assert abs(at(G, s.psi1.values, 0, 0)) < 1e-15
        assert at(G, s.psi2.values, 0, 0) == pytest.approx(1.0)
        # at z=1 (s=2): H=1/5, rho=2, psi=(2/sqrt5, 1/sqrt5)
        assert at(G, h, 1, 0) == pytest.approx(0.2)
        assert at(G, rho, 1, 0) == pytest.approx(2.0)
        assert at(G, s.psi1.values, 1, 0) == pytest.approx(2 / np.sqrt(5))
        assert at(G, s.psi2.values, 1, 0) == pytest.approx(1 / np.sqrt(5))

    def test_density_equals_parameter(self):
        p = density_p(family_rational(1.0).spinor(G))
        assert np.max(np.abs(p.values - 1.0)) < 1e-12

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            family_rational(0.0)


class TestExponential:
    def test_point_values(self):
        fam = family_exponential(1.0)
        h = fam.h(G).values
        rho = fam.rho(G).values
        s = fam.spinor(G)
        # at s=0: H = 1/2, rho = 1, psi2 = 1/sqrt2
        assert at(G, h, 0, 0) == pytest.approx(0.5)
        assert at(G, rho, 0, 0) == pytest.approx(1.0)
        assert at(G, s.psi2.values, 0, 0) == pytest.approx(1 / np.sqrt(2))

    def test_rho_derivative_scales_with_rho(self):
        fam = family_exponential(1.5)
        d = d_z(fam.rho(G))
        expect = 1.5 * np.exp(1.5 * 2 * np.real(G.zmesh()))
        assert np.max(np.abs(d.values - expect)) < 1e-10

    def test_density_equals_parameter(self):
        p = density_p(family_exponential(2.0).spinor(G))
        assert np.max(np.abs(p.values - 2.0)) < 1e-12

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            family_exponential(0.0)


class TestTrigonometric:
    def test_point_values(self):
        fam = family_trigonometric(1.0)
        rho = fam.rho(TRIG_G).values
        x = np.pi / 12                      # s = pi/6
        g = GridSpec(x, x + 0.4, -1, 1, 41, 41)
        rho = fam.rho(g).values
        assert rho[0, 0] == pytest.approx(0.5)          # sin(pi/6)
        d = d_z(fam.rho(g))
        assert d.values[0, 0] == pytest.approx(np.sqrt(3) / 2)   # cos(pi/6)

    def test_psi_against_transform(self):
        # the stored spinor must agree with the generic square-root transform
        fam = family_trigonometric(1.0)
        stored = fam.spinor(TRIG_G)
        derived = psi_from_rho(fam.rho(TRIG_G), fam.h(TRIG_G))
        ok = ~(stored.psi1.mask | derived.psi1.mask)
        assert np.max(np.abs(stored.psi1.values - derived.psi1.values)[ok]) < 1e-12
        assert np.max(np.abs(stored.psi2.values - derived.psi2.values)[ok]) < 1e-12

    def test_sigma_solution_on_strip(self):
        fam = family_trigonometric(1.0)
        rep = sigma_residual(fam.rho(TRIG_G), fam.h(TRIG_G))
        assert rep.max_norm < 1e-12

    def test_outside_strip_masked(self):
        fam = family_trigonometric(1.0)
        wide = GridSpec(-1, 1, -1, 1, 41, 41)
        r = fam.rho(wide)
        assert r.mask[wide.index_of(-0.5, 0.0)]
        assert r.mask[wide.index_of(1.0, 0.0)]

    def test_density_equals_parameter(self):
        p = density_p(family_trigonometric(1.0).spinor(TRIG_G))
        vals = p.values[~p.mask]
        assert np.max(np.abs(vals - 1.0)) < 1e-12

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            family_trigonometric(0.0)


class TestUnimodular:
    def test_modulus_one_and_solution(self):
        fam = family_unimodular(1.0, 1.0)
        r = fam.rho(G)
        assert np.max(np.abs(np.abs(r.values) - 1.0)) < 1e-12
        assert sigma_residual(r, fam.h(G)).max_norm < 1e-12

    def test_spinor_solves_system(self):
        fam = family_unimodular(1.0, 2.0)
        rep = weierstrass_residual(fam.spinor(G), fam.h(G))
        assert rep.max_norm < 1e-12

    def test_zero_parameter_is_trivial_constant(self):
        fam = family_unimodular(0.0, 1.0)
        r = fam.rho(G)
        assert np.max(np.abs(r.values - 1.0)) < 1e-15

    def test_nonpositive_h0_rejected(self):
        with pytest.raises(ValueError):
            family_unimodular(1.0, 0.0)

    @pytest.mark.parametrize("build", [lambda h0: family_unimodular(1.0, h0),
                                       lambda h0: family_holomorphic(h0=h0)])
    def test_nan_h0_rejected(self, build):
        with pytest.raises(ValueError, match="must be positive"):
            build(float("nan"))


class TestHolomorphic:
    def test_identity_and_square_solve(self):
        # any non-constant holomorphic rho solves the system with the
        # family's constant H; the family itself takes rho = z
        h = family_holomorphic(h0=1.0).h(G)
        for fn in (lambda z: z, lambda z: z * z):
            rep = sigma_residual(sample(form(fn), G), h)
            assert rep.max_norm < 1e-12

    def test_spinor_solves_system(self):
        fam = family_holomorphic(h0=1.0)
        rep = weierstrass_residual(fam.spinor(G), fam.h(G))
        assert rep.max_norm < 1e-12

    def test_fails_against_varying_h(self):
        # a holomorphic profile is a solution only for constant mean curvature
        fam = family_holomorphic(h0=1.0)
        rep = sigma_residual(fam.rho(G), family_rational(1.0).h(G))
        assert rep.max_norm > 0.1


class TestRegistry:
    @pytest.mark.parametrize("name", ["rational", "exponential", "trig",
                                      "unimodular", "holomorphic"])
    def test_build_by_name(self, name):
        fam = build_family(name)
        assert fam.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_family("spherical")



class TestParameterSweeps:
    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_rational_and_exponential(self, lam):
        g = GridSpec(-0.5, 0.5, -0.5, 0.5, 51, 51)
        for make in (family_rational, family_exponential):
            fam = make(lam)
            assert weierstrass_residual(fam.spinor(g), fam.h(g)).max_norm < 1e-11
            assert sigma_residual(fam.rho(g), fam.h(g)).max_norm < 1e-11
            p = density_p(fam.spinor(g))
            assert np.max(np.abs(p.values - lam)) < 1e-11

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_trig(self, a):
        lo, hi = 0.1 / (2 * a), (np.pi / (2 * a) - 0.1) / 2
        g = GridSpec(lo, hi, -0.5, 0.5, 51, 51)
        fam = family_trigonometric(a)
        assert weierstrass_residual(fam.spinor(g), fam.h(g)).max_norm < 1e-11
        assert sigma_residual(fam.rho(g), fam.h(g)).max_norm < 1e-11

    def test_negative_parameters_supported(self):
        # the transform square roots go complex for lam < 0 but the triple
        # remains an exact solution with density |lam|
        g = GridSpec(-0.5, 0.5, -0.5, 0.5, 51, 51)
        for make in (family_rational, family_exponential):
            fam = make(-1.0)
            assert weierstrass_residual(fam.spinor(g), fam.h(g)).max_norm < 1e-12
            p = density_p(fam.spinor(g))
            assert np.max(np.abs(p.values - 1.0)) < 1e-12
        fam = family_trigonometric(-1.0)
        gt = GridSpec(*fam.default_domain, 41, 41)
        assert weierstrass_residual(fam.spinor(gt), fam.h(gt)).max_norm < 1e-12


FORMS = ("h_form", "rho_form", "psi1_form", "psi2_form")


CASES = ([(n, {}) for n in FAMILY_NAMES]
         + [("rational", {"lam": -1.3}), ("exponential", {"lam": 2.0}),
            ("trig", {"a": 1.5}), ("unimodular", {"lam": -1.0, "h0": 2.0}),
            ("holomorphic", {"h0": 2.0})])


def _bits(values):
    # a constant slot is a broadcast view, whose bits need a contiguous copy
    return np.ascontiguousarray(values).view(np.uint64)


@pytest.mark.parametrize("name,kw", CASES)
def test_value_slot_is_the_jet_value_bitwise(name, kw):
    fam = build_family(name, **kw)
    x0, x1, y0, y1 = fam.default_domain
    rng = np.random.default_rng(11)
    off_mesh = rng.uniform(x0, x1, (6, 7)) + 1j * rng.uniform(y0, y1, (6, 7))
    for attr in FORMS:
        form = getattr(fam, attr)
        if form is None:
            continue
        for z in (GridSpec(*fam.default_domain, 23, 17).zmesh(), off_mesh):
            value = form.jet(z, 0).f
            assert value.shape == z.shape and form.jet(z, 0).fz is None
            assert np.array_equal(_bits(value), _bits(form.jet(z).f)), attr


@pytest.mark.parametrize("name,kw", CASES)
def test_diagonal_forms_have_bitwise_equal_z_and_zbar_slots(name, kw):
    # a diagonal form runs on the seed Jet(s, 1, 1, 0, 0, 0), whose z and
    # zbar slots every rule treats alike
    fam = build_family(name, **kw)
    forms = [getattr(fam, attr) for attr in FORMS]
    diagonal = [f for f in forms if f is not None and f.diagonal]
    assert diagonal and (name == "holomorphic") == (len(diagonal) == 1)
    z = GridSpec(*fam.default_domain, 23, 17).zmesh()
    for form in diagonal:
        for order, groups in ((1, [("fz", "fzb")]),
                              (2, [("fz", "fzb"), ("fzz", "fzzb", "fzbzb")])):
            jet = form.jet(z, order)
            assert jet.order == order
            for group in groups:
                first = _bits(getattr(jet, group[0]))
                for slot in group[1:]:
                    assert np.array_equal(_bits(getattr(jet, slot)), first), slot


@pytest.mark.parametrize("name,kw", CASES)
def test_derived_values_are_their_sources_samples_bitwise(name, kw):
    # a derived field's values and its analytic source come from one
    # formula, so the value slot of the source's jet, on the points the
    # field stores, reproduces the values bit for bit
    fam = build_family(name, **kw)
    g = GridSpec(*fam.default_domain, 23, 17)
    s, rho = fam.spinor(g), fam.rho(g)
    complex_fields = [rho_from_psi(s), *spin_matrix(rho).entries(),
                      pointwise(operator.mul, s.psi1, s.psi2),
                      apply_discrete_symmetry(rho, "Z2"), apply_discrete_symmetry(rho, "I")]
    if name == "unimodular":
        complex_fields.append(multisoliton_product(rho, rho))
    real_fields = [density_p(s), fam.h(g)]
    for k, f in enumerate(complex_fields + real_fields):
        assert f.source is not None, k
        again = np.broadcast_to(f.source.jet(0).f, g.shape)
        if k >= len(complex_fields):
            again = again.real
        ok = ~f.mask
        assert ok.any() and np.array_equal(_bits(f.values[ok]), _bits(again[ok])), k


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_fd_mean_curvature_has_no_source(name):
    # the finite-difference suites differentiate H by stencils, not jets
    fam = build_family(name)
    g = GridSpec(*fam.default_domain, 23, 17)
    h = fam.h(g).without_source()
    assert h.source is None
    values, mask = h.stored
    assert values.shape == (g.nx, 1)
    stencil = d_z(RealField._derived(g, values, mask))
    assert np.array_equal(_bits(d_z(h).values), _bits(stencil.values))
    assert np.array_equal(d_z(h).mask, stencil.mask)
    # H is one column: its d/dy is exactly zero, so d_z is half its d/dx stencil
    assert np.array_equal(_bits(dy(h).values), _bits(np.zeros(g.shape)))
    gx, bad = _d1(values, ~mask, g.hx)
    assert np.array_equal(_bits(d_z(h).stored[0]), _bits(np.where(bad, 0, 0.5 * (gx - 0j))))


@pytest.mark.parametrize("name,kw", CASES + [("unimodular", {"lam": 0.0}), ("trig", {"a": -2.0}),
                                             ("unimodular", {"lam": 2.0, "h0": 0.5})])
def test_stated_facts_hold_on_the_default_grid(name, kw):
    # `gwsurf verify` picks suites by these facts, so a wrong one, False or
    # None included, silently drops or adds a suite
    fam = build_family(name, **kw)
    g = GridSpec(*fam.default_domain, 101, 101)
    h, rho, s = fam.h(g), fam.rho(g), fam.spinor(g)
    ok = ~(h.mask | rho.mask)
    hv, rv = h.values[ok], rho.values[ok]
    assert hv.size
    spread = np.ptp(hv)
    assert spread <= 1e-15 if fam.constant_h else spread > 1e-3
    unit = np.max(np.abs(np.abs(rv) - 1.0))
    assert unit <= 1e-15 if fam.unit_rho else unit > 1e-3
    assert np.all(rv == rv[0]) if fam.constant_rho else np.max(np.abs(rv - rv[0])) > 1e-3

    p = density_p(s)
    pv = p.values[~p.mask]
    if fam.p0 is not None:
        assert pv.size and np.max(np.abs(pv - fam.p0)) <= 1e-12
    else:
        assert pv.size == 0 or np.ptp(pv) > 1e-3

    assert h.source is not None
    ddbar = mixed_dzbar_dz(pointwise(lambda v: 1.0 / v, h))
    dv = ddbar.values[~ddbar.mask]
    assert dv.size
    if fam.ddbar_inv_h is not None:
        assert np.max(np.abs(dv - fam.ddbar_inv_h)) <= 1e-12
    else:
        assert np.ptp(dv.real) > 1e-3

    stored = [h.stored[0], rho.stored[0], s.psi1.stored[0], s.psi2.stored[0]]
    assert (all(a.shape == (g.nx, 1) for a in stored) if fam.one_dimensional
            else all(a.shape == g.shape for a in stored[1:]))
