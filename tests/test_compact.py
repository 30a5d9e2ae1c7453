"""Compact storage: a field that depends on x only is stored as one column
(see gwsurf.grid), and the suites give on it the reports that the same
inputs give stored grid-shaped."""

import numpy as np
import pytest

from gwsurf import cli
from gwsurf.cli import _INPUTS, _level_entry, _run_level, _suites_for
from gwsurf.closedform import sample, sample_real
from gwsurf.families import build_family
from gwsurf.grid import GridSpec
from gwsurf.sigma import psi_pair
from gwsurf.weierstrass import SpinorField

# small non-square grids; trig's crosses the guard band at s = 0.05
CASES = {
    "rational": ({"lam": 1.3}, (-1.0, 1.0, -0.7, 0.9)),
    "exponential": ({"lam": 0.8}, (-1.0, 1.0, -0.7, 0.9)),
    "trig": ({"a": 1.5}, (0.0, 0.45, -0.7, 0.9)),
    "unimodular": ({"lam": 2.0}, (-1.0, 1.0, -0.7, 0.9)),
    "holomorphic": ({}, (-1.0, 1.0, -0.7, 0.9)),
}
DIAGONAL = ("rational", "exponential", "trig", "unimodular")
STENCIL_TOL = 1e-13


def _grid_shaped(fam, name, grid):
    """verify's input `name`, sampled from the family's forms, rebuilt
    grid-shaped: the forms sampled on the whole mesh."""
    def on_mesh(form, sampler=sample):
        return sampler(form._replace(diagonal=False), grid)

    if name == "h":
        return on_mesh(fam.h_form, sample_real)
    if name == "rho":
        return on_mesh(fam.rho_form)
    return SpinorField(on_mesh(fam.psi1_form), on_mesh(fam.psi2_form))


def _reports(fam, grid, inputs):
    suites = _suites_for(fam)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(cli, "_INPUTS", inputs)
        reports = _run_level(suites, fam, grid)
    return {spec.name: (spec, _level_entry(rep)) for spec, rep in zip(suites, reports)}


def _levels(name):
    kw, domain = CASES[name]
    fam = build_family(name, **kw)
    coarse = GridSpec(*domain, 13, 9)
    return fam, (coarse, coarse.refined())


@pytest.mark.parametrize("name", CASES)
def test_suites_agree_on_compact_and_grid_shaped_inputs(name):
    fam, grids = _levels(name)
    # the inputs sampled from the family's forms are rebuilt; the others are
    # derived from them as verify derives them (a spinor without spinor
    # forms by the transform of rho and h)
    sampled = {"rho", "h"} | ({"spinor"} if fam.spinor_forms else set())
    rebuilt = {key: spec._replace(build=lambda f, g, *_, key=key: _grid_shaped(f, key, g))
               if key in sampled else spec
               for key, spec in _INPUTS.items()}
    for grid in grids:
        rho, h = fam.rho(grid), fam.h(grid)
        assert h.stored[0].shape == (grid.nx, 1)
        assert rho.stored[0].shape == ((grid.nx, 1) if name in DIAGONAL else grid.shape)
        assert name != "trig" or rho.mask[0].all()
        compact, full = _reports(fam, grid, _INPUTS), _reports(fam, grid, rebuilt)
        assert compact.keys() == full.keys()
        for suite, (spec, got) in compact.items():
            want = full[suite][1]
            if not any(n.endswith("_fd") for n in spec.inputs):
                assert got == want, suite        # analytic inputs: bit for bit
                continue
            assert got["masked_points"] == want["masked_points"], suite
            assert got["details"].keys() == want["details"].keys(), suite
            for key in ("max_norm", "l2_norm"):
                assert abs(got[key] - want[key]) <= STENCIL_TOL, (suite, key)
            for key, value in got["details"].items():
                assert abs(value - want["details"][key]) <= STENCIL_TOL, (suite, key)


@pytest.mark.parametrize("name", CASES)
def test_inputs_hold_their_forms_at_every_grid_point(name):
    # what the suites compare above must be the family itself: every
    # analytic input equals its form evaluated point by point on the grid
    # (a spinor built by the transform, the transform of the forms of rho
    # and H)
    fam, grids = _levels(name)
    for grid in grids:
        z = grid.zmesh().ravel()
        with np.errstate(all="ignore"):
            rho, h = fam.rho_form.jet(z, 1), fam.h_form.jet(z, 0).f
            psi = ((fam.psi1_form.jet(z, 0).f, fam.psi2_form.jet(z, 0).f) if fam.spinor_forms
                   else psi_pair(rho.f, rho.fz, h))
        s = fam.spinor(grid)
        for field, want in ((fam.rho(grid), rho.f), (fam.h(grid), h), (s.psi1, psi[0]),
                            (s.psi2, psi[1])):
            want = want.reshape(grid.shape)
            want = np.where(field.mask, 0, want.real if field.values.dtype == float else want)
            assert np.array_equal(np.ascontiguousarray(field.values).view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64)), name
