"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Grids follow the stated setups: the rational and exponential families live
on [-1,1]^2, the trig family on the strip 0.1 < s < 1.2 (s = z + conj(z),
so x in [0.05, 0.6]). Finite-difference tolerances use the measured model
tol(h) = 10 * C_est * h^2 with C_est calibrated at the coarser level.
Where a residual is identically zero by the symmetry of a profile family
(both rectilinear paths coincide, or a conservation law telescopes), no
convergence ratio exists; those cases are asserted at noise level instead
and the ratio is measured on a genuinely two-dimensional solution.
"""
import os
import time

import numpy as np

from gwsurf import (ComplexField, GridSpec, SpinorField, form, sample_real,
                    compatibility_residual, conservation_defect, current_J,
                    dbar_J_defect, deformed_ll_residual, density_p,
                    family_exponential, family_holomorphic, family_rational,
                    family_trigonometric, family_unimodular, fundamental_forms,
                    gaussian_curvature_from_p, h_from_profile, h_integrability_residual,
                    induce_surface, landau_lifshitz_residual, linear_system_residual,
                    ll_commutator, linearization_constraint_residual,
                    modified_current, multisoliton_product,
                    path_independence_report, potential_conservation_residual,
                    psi_from_rho, rho_from_psi, sigma_residual,
                    unimodular_H_constancy_check, weierstrass_residual)
from gwsurf.cli import main as cli_main
from gwsurf.closedform import cos

SQUARE = GridSpec(-1, 1, -1, 1, 101, 101)
STRIP = GridSpec(0.05, 0.6, -1, 1, 101, 101)      # trig admissible strip

FAMILIES = [
    (family_rational(1.0), SQUARE),
    (family_exponential(1.0), SQUARE),
    (family_trigonometric(1.0), STRIP),
]


def verdict(number, ok, text):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def coarse(g):
    return GridSpec(g.x_min, g.x_max, g.y_min, g.y_max,
                    (g.nx + 1) // 2, (g.ny + 1) // 2)


def fd_tol(coarse_residual, h_coarse, h_fine):
    """tol(h) = 10 * C_est * h^2, floored against machine noise."""
    c_est = coarse_residual / h_coarse**2
    return max(10.0 * c_est * h_fine**2, 1e-9)


def test_criterion_1_exact_identities():
    worst = 0.0
    for fam, g in FAMILIES:
        h = fam.h(g)
        s = fam.spinor(g)
        rho = fam.rho(g)
        worst = max(worst, weierstrass_residual(s, h).max_norm)
        worst = max(worst, sigma_residual(rho, h).max_norm)
        worst = max(worst, potential_conservation_residual(s).max_norm)
        back = rho_from_psi(psi_from_rho(rho, h))
        ok = ~(back.mask | rho.mask)
        worst = max(worst, float(np.max(np.abs(back.values - rho.values)[ok])))
    verdict(1, worst <= 1e-12,
            f"exact identities (system, sigma, conservation, round trip) "
            f"max residual {worst:.3e} <= 1e-12")


def test_criterion_2_fd_convergence():
    ratios = {}
    floors = {}
    for fam, g in FAMILIES:
        gc = coarse(g)
        for label, run in (
            ("system", lambda gg: weierstrass_residual(
                fam.spinor(gg).without_sources(), fam.h(gg).without_source()).max_norm),
            ("sigma", lambda gg: sigma_residual(
                fam.rho(gg).without_source(), fam.h(gg).without_source()).max_norm),
            ("conservation", lambda gg: potential_conservation_residual(
                fam.spinor(gg).without_sources()).max_norm),
            ("roundtrip", lambda gg: _roundtrip_gap(fam, gg)),
        ):
            r_coarse, r_fine = run(gc), run(g)
            key = f"{fam.name}/{label}"
            if r_coarse > 1e-8:
                ratios[key] = r_coarse / r_fine
            else:
                floors[key] = max(r_coarse, r_fine)

    bad_ratio = {k: v for k, v in ratios.items() if not 3.5 <= v <= 4.5}
    bad_floor = {k: v for k, v in floors.items() if v > 1e-8}
    ok = not bad_ratio and not bad_floor
    verdict(2, ok,
            f"finite-difference ratios in [3.5, 4.5]: "
            f"{ {k: round(v, 2) for k, v in ratios.items()} }; "
            f"symmetry-exact residuals at noise level: {sorted(floors)}"
            + (f"; BAD: {bad_ratio} {bad_floor}" if not ok else ""))


def _roundtrip_gap(fam, g):
    s = fam.spinor(g).without_sources()
    back = psi_from_rho(rho_from_psi(s), fam.h(g).without_source())
    mask = s.psi1.mask | back.psi1.mask
    err = np.maximum(np.abs(back.psi1.values - s.psi1.values),
                     np.abs(back.psi2.values - s.psi2.values))
    return float(np.max(err[~mask], initial=0.0))


def test_criterion_3_curvature_closure():
    fam = family_rational(1.0)
    g = GridSpec(-1, 1, -1, 1, 201, 201)
    s = fam.spinor(g)
    srf = induce_surface(s, 0.0)
    ff = fundamental_forms(srf)
    hn = ff.mean_curvature
    hp = fam.h(g)
    interior = np.zeros(g.shape, bool)
    interior[1:-1, 1:-1] = True
    sel = interior & ~hn.mask
    h_gap = float(np.max(np.abs(np.abs(hn.values[sel]) - hp.values[sel])))

    k_form = gaussian_curvature_from_p(density_p(s))
    k_num = ff.gauss_curvature
    selk = interior & ~(k_num.mask | k_form.mask)
    k_gap = float(np.max(np.abs(k_num.values[selk] - k_form.values[selk])))
    k_flat = float(np.max(np.abs(k_form.values[~k_form.mask])))

    ok = h_gap <= 1e-3 and k_gap <= 1e-3 and k_flat <= 1e-12
    verdict(3, ok,
            f"curvature closure on 201x201: | |H_num|-H | = {h_gap:.3e} <= 1e-3, "
            f"|K_num - K_formula| = {k_gap:.3e} <= 1e-3, "
            f"K_formula = {k_flat:.3e} <= 1e-12")


def test_criterion_4_path_independence():
    # h = 0.02 on the unit square
    fam = family_rational(1.0)
    s = fam.spinor(SQUARE)
    gap = path_independence_report(s, 0.0, 1.0 + 1.0j).max_norm

    # convergence rate needs a solution varying in both directions
    hol = family_holomorphic()
    gaps = []
    for g in (coarse(SQUARE), SQUARE):
        gaps.append(path_independence_report(hol.spinor(g), 0.0, 1.0 + 1.0j).max_norm)
    ratio = gaps[0] / gaps[1]

    bumped = SpinorField(ComplexField(SQUARE, s.psi1.values + 0.01),
                         s.psi2.without_source())
    control = path_independence_report(bumped, 0.0, 1.0 + 1.0j).max_norm

    ok = gap <= 1e-3 and 3.5 <= ratio <= 4.5 and control >= 1e-2
    verdict(4, ok,
            f"path independence {gap:.3e} <= 1e-3 at h=0.02; refinement ratio "
            f"{ratio:.2f} in [3.5, 4.5]; perturbed control {control:.3e} >= 1e-2")


def test_criterion_5_currents():
    worst_note = []
    ok = True
    for fam, g in FAMILIES:
        gc = coarse(g)
        hc, hf = max(gc.hx, gc.hy), max(g.hx, g.hy)

        dc = dbar_J_defect(fam.spinor(gc), fam.h(gc)).max_norm
        df = dbar_J_defect(fam.spinor(g), fam.h(g)).max_norm
        ok &= df <= fd_tol(dc, hc, hf)

        x0 = g.xs()[(g.nx - 1) // 2]
        mc = conservation_defect(
            modified_current(fam.spinor(gc), fam.h(gc), gc.xs()[(gc.nx - 1) // 2])).max_norm
        mf = conservation_defect(
            modified_current(fam.spinor(g), fam.h(g), x0)).max_norm
        ok &= mf <= fd_tol(mc, hc, hf)
        worst_note.append(f"{fam.name}: dbarJ {df:.1e}, corrected {mf:.1e}")

    const = family_unimodular(1.0, 1.0)
    raw = conservation_defect(current_J(const.spinor(SQUARE))).max_norm
    ok &= raw <= 1e-3
    verdict(5, ok,
            "current defect and corrected current within tol(h) for all families "
            f"({'; '.join(worst_note)}); constant-H dbar J = {raw:.3e} <= 1e-3")


def test_criterion_6_sinh_gordon():
    from gwsurf import sinh_gordon_residual
    ok = True
    notes = []
    for fam, g in FAMILIES:
        gc = coarse(g)
        rc = sinh_gordon_residual(fam.spinor(gc), fam.h(gc)).max_norm
        rf = sinh_gordon_residual(fam.spinor(g), fam.h(g)).max_norm
        ok &= rf <= fd_tol(rc, max(gc.hx, gc.hy), max(g.hx, g.hy))

        s = fam.spinor(g)
        J = current_J(s)
        p = density_p(s)
        h = fam.h(g)
        sel = ~(J.mask | p.mask | h.mask)
        gap = float(np.max(np.abs(np.abs(J.values) ** 2
                                  - p.values**4 * h.values**2)[sel]))
        ok &= gap <= 1e-10
        notes.append(f"{fam.name}: residual {rf:.1e}, |J|^2=p^4H^2 gap {gap:.1e}")
    verdict(6, ok, "sinh-Gordon identity and pointwise current identity: "
            + "; ".join(notes))


def test_criterion_7_integrability_classifier():
    # Q = cosh, written as a formula; the stencil classifier judges it
    profile_h = sample_real(h_from_profile(lambda z: cos(1j * z)), SQUARE)
    in_class = h_integrability_residual(profile_h.without_source()).max_norm
    fam = family_rational(1.0)
    defect = h_integrability_residual(fam.h(SQUARE)).max_norm
    ok = in_class <= 1e-3 and abs(defect - 2.0) <= 1e-6
    verdict(7, ok,
            f"profile-built H satisfies the criterion ({in_class:.3e} <= 1e-3); "
            f"rational H classified non-integrable (d dbar (1/H) = {defect:.9f} = 2 +- 1e-6)")


def test_criterion_8_landau_lifshitz():
    uni = family_unimodular(1.0, 1.0)
    ll = landau_lifshitz_residual(ll_commutator(uni.rho(SQUARE).without_source())).max_norm
    ok = ll <= 1e-9

    notes = [f"unimodular LL {ll:.1e}"]
    for fam, g in ((family_rational(1.0), SQUARE), (family_trigonometric(1.0), STRIP)):
        gc = coarse(g)
        dc = deformed_ll_residual(ll_commutator(fam.rho(gc).without_source()),
                                  fam.h(gc).without_source()).max_norm
        df = deformed_ll_residual(ll_commutator(fam.rho(g).without_source()),
                                  fam.h(g).without_source()).max_norm
        tol = fd_tol(dc, max(gc.hx, gc.hy), max(g.hx, g.hy))
        ok &= df <= tol
        notes.append(f"{fam.name} deformed {df:.1e} <= {tol:.1e}")
        if fam.name == "rational":
            # deformation necessity: the homogeneous equation must miss by
            # at least an order of magnitude relative to the deformed one
            undeformed = landau_lifshitz_residual(ll_commutator(fam.rho(g))).max_norm
            ok &= undeformed >= 10 * max(df, 1e-9)
            notes.append(f"undeformed control {undeformed:.1e} >= 10x deformed")
    verdict(8, ok, "; ".join(notes))


def test_criterion_9_multisoliton():
    r1 = family_unimodular(1.0, 1.0).rho(SQUARE)
    r2 = family_unimodular(2.0, 1.0).rho(SQUARE)
    prod = multisoliton_product(r1, r2)
    h0 = sample_real(form(lambda z: 1.0), SQUARE)
    res = sigma_residual(prod, h0).max_norm
    unimod = float(np.max(np.abs(np.abs(prod.values) - 1.0)))
    compat = compatibility_residual(prod, h0).max_norm
    flagged = unimodular_H_constancy_check(
        r1, family_rational(1.0).h(SQUARE)).details["consistent"] is False
    ok = res <= 1e-10 and unimod <= 1e-10 and compat <= 1e-10 and flagged
    verdict(9, ok,
            f"product solution residual {res:.3e}, |rho|-1 = {unimod:.3e}, "
            f"compatibility {compat:.3e} (all <= 1e-10); varying-H pairing flagged: {flagged}")


def test_criterion_10_constrained_linearization():
    fam = family_rational(1.0)
    rep = linearization_constraint_residual(fam.spinor(SQUARE))
    lin = linear_system_residual(fam.spinor(SQUARE), fam.h(SQUARE), 1.0).max_norm
    ok = (rep.max_norm <= 1e-12 and rep.details["p_variance"] <= 1e-10
          and lin <= 1e-10)
    verdict(10, ok,
            f"density constraints {rep.max_norm:.3e} <= 1e-12, variance "
            f"{rep.details['p_variance']:.3e} <= 1e-10, linear system {lin:.3e} <= 1e-10")


def test_criterion_11_cli(tmp_path):
    start = time.time()
    ok = True
    for fam in ("rational", "exponential", "trig", "unimodular", "holomorphic"):
        code = cli_main(["verify", "--family", fam, "--out", str(tmp_path / fam)])
        ok &= code == 0

    # determinism: identical configuration, byte-identical reports
    a, b = tmp_path / "det_a", tmp_path / "det_b"
    for out in (a, b):
        ok &= cli_main(["verify", "--family", "rational", "--out", str(out)]) == 0

    def slurp(d):
        return {f: (d / f).read_bytes() for f in sorted(os.listdir(d))}

    ok &= slurp(a) == slurp(b)
    elapsed = time.time() - start
    ok &= elapsed <= 60.0
    verdict(11, ok,
            f"default verify exits 0 for every family, reruns byte-identical, "
            f"total {elapsed:.1f}s <= 60s")
