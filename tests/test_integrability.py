"""Riccati constraints, zero-curvature conditions, sinh-Gordon, linearization."""
import numpy as np
import pytest

from gwsurf import (ComplexField, GridSpec, RealField, SpinorField,
                    current_J, d_z, d_zbar, density_p, family_exponential,
                    family_holomorphic, family_rational,
                    family_trigonometric, fit_riccati_coeffs, form, h_from_profile,
                    h_integrability_residual, linear_system_residual,
                    linearization_constraint_residual, mixed_dzbar_dz, riccati_residual,
                    sample, sample_real, sinh_gordon_residual, zero_curvature_residual)
from gwsurf import integrability
from gwsurf.closedform import cos
from gwsurf.integrability import RiccatiCoeffs
from memtrace import traced_peak

G = GridSpec(-1, 1, -1, 1, 101, 101)
TRIG_G = GridSpec(0.05, 0.6, -1, 1, 101, 101)


def const_field(c, g=G):
    return ComplexField(g, np.full(g.shape, c, dtype=complex))


def const_h(c, g=G):
    return sample_real(form(lambda z: c), g)


def coeffs(g=G, **kw):
    fields = {k: const_field(kw.get(k, 0.0), g)
              for k in ("a10", "a11", "a12", "a20", "a21", "a22")}
    return RiccatiCoeffs(**fields)


# profiles written as formulas, so that they run on jets; both are
# positive on G's square: cosh z + cosh zbar = 2 cosh x cos y
PROFILES = {"cosh": lambda z: cos(1j * z), "quadratic": lambda z: 3 + z * z}


class TestProfiles:
    def test_cosh_profile_satisfies_criterion(self):
        # the stencil classifier on a profile H
        h = sample_real(h_from_profile(PROFILES["cosh"]), G)
        rep = h_integrability_residual(h.without_source())
        assert rep.max_norm < 1e-3

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_profile_satisfies_criterion_on_jets(self, name):
        h = sample_real(h_from_profile(PROFILES[name]), G)
        assert h.source is not None
        assert h_integrability_residual(h).max_norm <= 1e-12

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_profile_slots_converge_to_stencils(self, name):
        # d and dbar at second order over the whole grid, as fd_check judges
        # them; d dbar composes one-sided edge stencils, which are first
        # order, so it is judged on the interior
        h = h_from_profile(PROFILES[name])
        for op, inner in ((d_z, None), (d_zbar, None), (mixed_dzbar_dz, 0.9)):
            errs = []
            for n in (51, 101):
                g = GridSpec(-1, 1, -1, 1, n, n)
                f = sample(h, g)
                err = np.abs(op(f.without_source()).values - op(f).values)
                if inner is not None:
                    z = g.zmesh()
                    err = err[(np.abs(z.real) < inner) & (np.abs(z.imag) < inner)]
                errs.append(np.max(err))
            ratio = errs[0] / errs[1]
            assert errs[1] < 1e-2, (op.__name__, errs)
            assert (3.0 < ratio < 5.0) if inner is None else ratio > 3.0, (op.__name__, ratio)

    @pytest.mark.parametrize("q", [lambda z: 3 + z * z, lambda z: z], ids=["quadratic", "linear"])
    def test_profile_values_are_the_plain_expression(self, q):
        # a profile that runs on plain arrays and on jets gives H the bits of
        # 1/(Q(z) + Q(zbar)) computed on plain arrays, zero where guarded
        z = G.zmesh()
        den = q(z) + q(np.conj(z))
        guard = np.abs(den) < 1e-12
        with np.errstate(all="ignore"):
            want = np.where(guard, 0, 1.0 / den).real
        h = sample_real(h_from_profile(q), G)
        assert np.array_equal(h.mask, guard)
        assert np.array_equal(h.values.view(np.uint64), want.view(np.uint64))

    def test_profile_that_does_not_run_on_a_jet_rejected(self):
        with pytest.raises(ValueError, match="must run on a jet"):
            h_from_profile(np.cosh)

    def test_constant_profile_gives_constant_h(self):
        H = h_from_profile(lambda z: np.full(np.shape(z), 4.0, dtype=complex))
        f = sample_real(H, G)
        assert np.allclose(f.values, 1 / 8.0)

    def test_two_argument_profile_rejected(self):
        with pytest.raises(ValueError, match="callable of one argument"):
            h_from_profile(lambda z, zbar: z * zbar)

    def test_complex_on_real_axis_rejected(self):
        with pytest.raises(ValueError, match="not real-valued on the real axis"):
            h_from_profile(lambda z: 1j * z + 1j)

    def test_denominator_zeros_masked(self):
        H = h_from_profile(lambda z: z)          # Q(z)+Q(zbar) = 2x
        f = sample_real(H, G)
        assert f.mask[G.index_of(0.0, 0.0)]


class TestIntegrabilityClassifier:
    def test_rational_family_fixed_defect(self):
        # 1/H = 1 + lam^2 s^2 has constant mixed derivative 2 lam^2
        for lam in (1.0, 2.0):
            fam = family_rational(lam)
            rep = h_integrability_residual(fam.h(G))
            assert rep.max_norm == pytest.approx(2 * lam**2, abs=1e-6)

    def test_exponential_family_bounded_away_from_zero(self):
        fam = family_exponential(1.0)
        rep = h_integrability_residual(fam.h(G))
        assert rep.max_norm >= 1.0

    def test_constant_h_integrable(self):
        rep = h_integrability_residual(const_h(3.0))
        assert rep.max_norm < 1e-12

    def test_vanishing_h_rejected(self):
        field = RealField(G, 2 * np.real(G.zmesh()))
        with pytest.raises(ValueError):
            h_integrability_residual(field)


class TestRiccati:
    def test_linear_profile_constant_coefficients(self):
        # rho = lam*s has d rho = dbar rho = lam: order-zero coefficients
        lam = 1.0
        rho = family_rational(lam).rho(G).without_source()
        rep = riccati_residual(rho, coeffs(a10=lam, a20=lam))
        assert rep.max_norm < 1e-12

    def test_zero_rho_zero_coefficients(self):
        rho = const_field(0.0)
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
            assert riccati_residual(rho, c).max_norm < 1e-9, fam.name
            assert zero_curvature_residual(c).max_norm < 1e-9, fam.name

    @pytest.mark.parametrize("fam", [family_trigonometric(1.0), family_trigonometric(2.5),
                                     family_rational(1.0), family_exponential(1.0)],
                             ids=["trig-1", "trig-2.5", "rational", "exponential"])
    def test_fit_round_off_does_not_grow(self, fam):
        # a fit in rho itself has a design of condition ~1/h^2: at 801 points
        # its constraint residual read 7.4e-11 (rational) to 3.3e-9 (trig 2.5)
        g = GridSpec(*fam.default_domain, 801, 801)
        rho = fam.rho(g).without_source()
        assert riccati_residual(rho, fit_riccati_coeffs(rho)).max_norm <= 1e-12

    @pytest.mark.parametrize("case", ["rational", "trig", "holomorphic", "patched"])
    def test_fit_bitwise_equal_full_batch_reference(self, case, monkeypatch):
        # diagonal families repeat one design per grid row; the trig domain
        # crosses the guard band (masked rows); holomorphic rho repeats nothing;
        # the patched rational rho has a zero patch, whose designs are
        # rank-deficient (min-norm solutions), and in it one isolated masked
        # point, whose neighbours see the same nine values as other patch
        # points but not the same validity flags
        fam, g = {
            "rational": (family_rational(1.3), GridSpec(-1, 1, -1, 1, 41, 37)),
            "trig": (family_trigonometric(1.5), GridSpec(0.0, 0.6, -1, 1, 41, 37)),
            "holomorphic": (family_holomorphic(), GridSpec(-1, 1, -1, 1, 41, 37)),
            "patched": (family_rational(1.3), GridSpec(-1, 1, -1, 1, 41, 37)),
        }[case]
        rho = fam.rho(g).without_source()
        assert case != "trig" or rho.mask.any()
        if case == "patched":
            vals = np.array(rho.values)
            vals[10:20, 5:15] = 0
            mask = np.zeros(g.shape, bool)
            mask[12, 9] = True
            rho = ComplexField(g, vals, mask)
        # on rows of 37 points, blocks of 30 points hold one row and blocks of
        # 100 two, the last of the 41 rows alone; the rational and trig
        # columns go in blocks of 30 rows, the last of 11, then in one block
        ref = _fit_riccati_reference(rho)
        for points in (30, 100):
            monkeypatch.setattr(integrability, "_FIT_POINTS", points)
            got = fit_riccati_coeffs(rho)
            for f, r in zip(got.fields(), ref):
                assert np.array_equal(f.values.view(np.uint64), r.view(np.uint64)), points
        if case == "patched":
            # its neighbours fall back to one-sided stencils and fit around it
            mask = np.any([f.mask for f in got.fields()], axis=0)
            assert mask[12, 9] and mask.sum() == 1

    def test_fit_peak_memory(self):
        # the dense fit held (nx, ny, 9) index arrays, a 27-wide design and a
        # per-point (nx, ny, 3, 9) pseudo-inverse: 66.6 MB traced at 201x201
        # (about 108 MB for a holomorphic rho). The designs, pseudo-inverses
        # and solutions are built in blocks of about _FIT_POINTS points, so
        # the holomorphic fit traces 18.6 MB and the rational one, fitted on
        # its column, 0.5 MB
        g = GridSpec(-1, 1, -1, 1, 201, 201)
        for fam, bound in ((family_rational(1.0), 12), (family_holomorphic(), 32)):
            rho = fam.rho(g).without_source()
            assert traced_peak(lambda: fit_riccati_coeffs(rho)) < bound * 2**20, fam.name


def _fit_riccati_reference(r):
    """One batched pinv over every point's weighted 3x3-neighbourhood design
    in u = (rho - rho0) / s, mapped back to the coefficients of 1, rho, rho^2."""
    rho = r.values
    drho, dbrho = d_z(r), d_zbar(r)
    valid = ~(r.mask | drho.mask | dbrho.mask)
    nx, ny = r.grid.shape
    ii, jj = np.arange(nx), np.arange(ny)
    offs = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    ni = np.stack([np.clip(ii[:, None] + di, 0, nx - 1).repeat(ny, 1)
                   for di, _ in offs], axis=-1)
    nj = np.stack([np.clip(jj[None, :] + dj, 0, ny - 1).repeat(nx, 0)
                   for _, dj in offs], axis=-1)
    rho_n = rho[ni, nj]
    w = valid[ni, nj].astype(float)
    rho0 = rho_n[..., 4]
    scale = np.max(np.abs(rho_n - rho0[..., None]) * w, axis=-1)
    scale[scale == 0] = 1.0
    u = (rho_n - rho0[..., None]) / scale[..., None]
    design = np.stack([np.ones_like(u), u, u**2], axis=-1) * w[..., None]
    pinv = np.linalg.pinv(design)
    out = []
    for f in (drho, dbrho):
        c = np.einsum("...ck,...k->...c", pinv, f.values[ni, nj] * w)
        a2 = c[..., 2] / scale**2
        out += [c[..., 0] - c[..., 1] * rho0 / scale + a2 * rho0**2,
                c[..., 1] / scale - 2 * a2 * rho0, a2]
    return [np.where(valid, a, 0) for a in out]


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
        rep = sinh_gordon_residual(fam.spinor(G), fam.h(G))
        assert rep.max_norm < 1e-10

    def test_pointwise_identity_constant_density(self):
        # constant p forces |J|^2 = p^4 H^2 pointwise
        for fam in (family_rational(1.0), family_exponential(1.0)):
            s = fam.spinor(G)
            J = current_J(s)
            p = density_p(s)
            h = fam.h(G)
            gap = np.abs(J.values) ** 2 - p.values**4 * h.values**2
            assert np.max(np.abs(gap)) < 1e-10, fam.name

    def test_trig_family_strip(self):
        fam = family_trigonometric(1.0)
        rep = sinh_gordon_residual(fam.spinor(TRIG_G), fam.h(TRIG_G))
        assert rep.max_norm < 1e-10

    def test_zero_density_rejected(self):
        z = np.zeros(G.shape, complex)
        s = SpinorField(ComplexField(G, z), ComplexField(G, z))
        with pytest.raises(ValueError):
            sinh_gordon_residual(s, const_h(1.0))


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
            rep = linear_system_residual(fam.spinor(G), fam.h(G), lam)
            assert rep.max_norm < 1e-10, fam.name

    def test_zero_spinor(self):
        z = np.zeros(G.shape, complex)
        s = SpinorField(ComplexField(G, z), ComplexField(G, z))
        rep = linear_system_residual(s, const_h(1.0), 1.0)
        assert rep.max_norm == 0.0

    def test_wrong_density_constant_fails(self):
        fam = family_rational(1.0)
        rep = linear_system_residual(fam.spinor(G), fam.h(G), 3.0)
        assert rep.max_norm > 1e-2
