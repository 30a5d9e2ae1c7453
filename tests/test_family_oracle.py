"""Every slot of every family form against symbolic derivatives (sympy oracle)."""
import numpy as np
import pytest

pytest.importorskip("sympy")

from sympy_oracle import family_exprs  # noqa: E402

from gwsurf import build_family  # noqa: E402
from gwsurf.closedform import _SLOTS  # noqa: E402

SWEEP = ([("rational", {"lam": v}) for v in (0.5, 1.0, 1.3, 2.0)]
         + [("exponential", {"lam": v}) for v in (0.5, 1.0, 1.3, 2.0)]
         + [("trig", {"a": v}) for v in (1.0, 1.5, 2.0)]
         + [("unimodular", {"lam": v, "h0": h0}) for v, h0 in ((1.3, 0.5), (-1.0, 2.0), (0.0, 1.0))]
         + [("holomorphic", {"h0": 2.0})])


@pytest.mark.parametrize("name,kw", SWEEP,
                         ids=[f"{n}-{'-'.join(map(str, kw.values()))}" for n, kw in SWEEP])
def test_family_slots_match_symbolic_derivatives(name, kw):
    fam = build_family(name, **kw)
    oracle = family_exprs(name, **kw)
    g = fam.default_grid(101, 3)
    z, keep = g.zmesh(), ~fam.guard_mask(g)
    forms = {attr: getattr(fam, attr) for attr in ("h_form", "rho_form", "psi1_form", "psi2_form")
             if getattr(fam, attr) is not None}
    assert forms.keys() == oracle.keys()
    for attr, form in forms.items():
        jet = form.jet(z)
        for (name_, slot), expect_fn in zip(_SLOTS, oracle[attr]):
            expect = expect_fn(z)[keep]
            bound = 2e-13 * max(1.0, float(np.max(np.abs(expect))))
            for got in (getattr(form, name_)(z)[keep], getattr(jet, slot)[keep]):
                assert np.max(np.abs(got - expect)) <= bound, (attr, name_)
