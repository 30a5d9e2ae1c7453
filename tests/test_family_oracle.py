"""Every slot of every family form against symbolic derivatives (sympy oracle)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("sympy")

from sympy_oracle import family_exprs  # noqa: E402

from gwsurf import GridSpec, build_family, d_z, d_zbar, mixed_dzbar_dz, sample  # noqa: E402
from gwsurf.closedform import Jet  # noqa: E402

SWEEP = ([("rational", {"lam": v}) for v in (0.5, 1.0, 1.3, 2.0)]
         + [("exponential", {"lam": v}) for v in (0.5, 1.0, 1.3, 2.0)]
         + [("trig", {"a": v}) for v in (1.0, 1.5, 2.0)]
         + [("unimodular", {"lam": v, "h0": h0}) for v, h0 in ((1.3, 0.5), (-1.0, 2.0), (0.0, 1.0))]
         + [("holomorphic", {"h0": 2.0})])


@pytest.mark.parametrize("name,kw", SWEEP,
                         ids=[f"{n}-{'-'.join(map(str, kw.values()))}" for n, kw in SWEEP])
def test_family_slots_match_symbolic_derivatives(name, kw):
    _check_slots(name, kw)


_NONZERO = st.floats(0.2, 2.5) | st.floats(-2.5, -0.2)
PARAMS = {
    "rational": st.fixed_dictionaries({"lam": _NONZERO}),
    "exponential": st.fixed_dictionaries({"lam": _NONZERO}),
    "trig": st.fixed_dictionaries({"a": st.floats(0.5, 3.0) | st.floats(-3.0, -0.5)}),
    "unimodular": st.fixed_dictionaries({"lam": st.floats(-2.5, 2.5),
                                         "h0": st.floats(0.2, 4.0)}),
}


@pytest.mark.parametrize("name", sorted(PARAMS))
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_parameters_match_symbolic_derivatives(name, data):
    # five fixed draws per family (derandomized), next to the fixed sweep above
    _check_slots(name, data.draw(PARAMS[name], label="params"))


def _check_slots(name, kw):
    fam = build_family(name, **kw)
    oracle = family_exprs(name, **kw)
    g = GridSpec(*fam.default_domain, 101, 3)
    z, keep = g.zmesh(), ~fam.rho(g).mask
    forms = {attr: getattr(fam, attr) for attr in ("h_form", "rho_form", "psi1_form", "psi2_form")
             if getattr(fam, attr) is not None}
    assert forms.keys() == oracle.keys()
    for attr, form in forms.items():
        jet, f = form.jet(z), sample(form, g)
        assert f.source.order == 2 and not (f.mask & keep).any(), attr
        # each slot as the form's jet and as the derivatives of its sample
        dz, dzb = d_z(f), d_zbar(f)
        views = {"f": (jet.f, form.jet(z, 0).f, f.values), "fz": (jet.fz, dz.values),
                 "fzb": (jet.fzb, dzb.values), "fzz": (jet.fzz, d_z(dz).values),
                 "fzzb": (jet.fzzb, d_zbar(dz).values, d_z(dzb).values,
                          mixed_dzbar_dz(f).values),
                 "fzbzb": (jet.fzbzb, d_zbar(dzb).values)}
        for slot, expect_fn in zip(Jet.__slots__, oracle[attr]):
            expect = expect_fn(z)[keep]
            bound = 2e-13 * max(1.0, float(np.max(np.abs(expect))))
            for got in views[slot]:
                assert np.max(np.abs(got[keep] - expect)) <= bound, (attr, slot)
