"""Jet calculus and closed-form combinators against finite differences."""
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gwsurf import (ComplexField, GridSpec, RealField, d_z, d_zbar, mixed_dzbar_dz, sample,
                    sample_real)
from gwsurf.closedform import (Jet, _Source, conj, cos, diagonal_form, exp, form, log,
                               pointwise, sin, sqrt)


def fd_check(form, op=d_z):
    """Analytic derivative slots must agree with stencils to O(h^2)."""
    def err(n):
        g = GridSpec(-1, 1, -1, 1, n, n)
        f = sample(form, g)
        fd = op(f.without_source())
        an = op(f)
        return np.max(np.abs(fd.values - an.values))

    e1, e2 = err(51), err(101)
    assert e2 < 1e-2
    assert 3.0 < e1 / e2 < 5.0


def test_diagonal_form_derivatives_match_fd():
    fd_check(diagonal_form(lambda s: exp(s) / (1 + s * s)))
    fd_check(diagonal_form(lambda s: exp(s) / (1 + s * s)), op=d_zbar)


def test_holomorphic_form_derivatives_match_fd():
    fd_check(form(lambda z: z * z * z - 2 * z))


def test_conjugate_form_swaps_slots():
    g = GridSpec(-1, 1, -1, 1, 21, 21)
    f = sample(form(lambda z: z * z), g).conj()
    # conj(z^2) has dbar derivative 2 conj(z) and d derivative 0
    d = d_z(f)
    assert np.max(np.abs(d.values)) < 1e-14
    db = d_zbar(f)
    assert np.max(np.abs(db.values - 2 * np.conj(g.zmesh()))) < 1e-13


def test_lift_quotient_and_sqrt_jets():
    # h = sqrt(a / b) for diagonal forms, the formula lifted to the jets of
    # the sampled fields; compare with the direct expression
    g = GridSpec(-1, 1, -1, 1, 31, 31)
    a = sample(diagonal_form(lambda s: 1 + s * s), g)
    b = sample(diagonal_form(lambda s: 2 + cos(s)), g)
    fa = pointwise(lambda ja, jb: sqrt(ja / jb), a, b)
    fb = sample(diagonal_form(lambda s: sqrt((1 + s * s) / (2 + cos(s)))), g)
    assert np.max(np.abs(fa.values - fb.values)) < 1e-13
    assert np.max(np.abs(d_z(fa).values - d_z(fb).values)) < 1e-12
    assert np.max(np.abs(mixed_dzbar_dz(fa).values - mixed_dzbar_dz(fb).values)) < 1e-11


def test_lift_conj_mul_jets():
    g = GridSpec(-1, 1, -1, 1, 21, 21)
    f = pointwise(lambda j: j * conj(j), sample(diagonal_form(lambda s: exp(1j * s)), g))
    assert np.max(np.abs(f.values - 1.0)) < 1e-14      # |rho|^2 = 1
    assert np.max(np.abs(d_z(f).values)) < 1e-14


def test_lift_drops_unavailable_slots():
    g = GridSpec(-1, 1, -1, 1, 5, 3)
    z = g.zmesh()
    # a second derivative's source is of order 0: its jet holds the value only
    value_only = d_z(d_z(sample(form(lambda z: -cos(z)), g)))
    assert np.array_equal(value_only.values, np.cos(z))
    out = pointwise(operator.mul, value_only, value_only)
    assert out.source.order == 0
    jet = out.source.jet(2)
    assert jet.fz is None and jet.fzzb is None
    # an order-0 source leaves the derivative to the stencils
    stencil = d_z(out.without_source())
    assert np.array_equal(d_z(out).values, stencil.values)
    assert np.array_equal(d_z(out).mask, stencil.mask)
    full = sample(diagonal_form(exp), g)
    assert pointwise(operator.mul, full, value_only).source.order == 0
    # a derivative gives up one order, and a formula of it keeps that order
    lowered = pointwise(sqrt, d_z(full))
    assert d_z(full).source.order == lowered.source.order == 1
    assert np.array_equal(lowered.values, np.sqrt(diagonal_form(exp).jet(z).fz))
    assert np.array_equal(lowered.source.jet(0).f, lowered.stored[0])
    assert lowered.source.jet(0).fz is None
    assert pointwise(operator.mul, full, d_z(full)).source.order == 1


def test_field_mul_combines_sources():
    g = GridSpec(-1, 1, -1, 1, 41, 41)
    a = sample(diagonal_form(sin), g)
    b = sample(diagonal_form(exp), g)
    prod = pointwise(operator.mul, a, b)
    assert prod.source is not None
    d = d_z(prod)
    s = 2 * np.real(g.zmesh())
    expect = (np.cos(s) + np.sin(s)) * np.exp(s)      # d/ds (sin s exp s)
    assert np.max(np.abs(d.values - expect)) < 1e-12


def test_pointwise_masks_the_union_and_lifts_only_complete_sources():
    g = GridSpec(-1, 1, -1, 1, 9, 7)
    zero = np.zeros(g.shape, dtype=bool)
    zero[4] = True      # sin(s) vanishes on x = 0
    a = sample(diagonal_form(exp), g)
    a = pointwise(lambda v: v, a, mask=np.eye(9, 7, dtype=bool))
    b = sample(diagonal_form(sin), g)
    f = pointwise(lambda u, v: u / v, a, b, mask=zero)
    assert np.array_equal(f.mask, a.mask | zero) and not f.values[f.mask].any()
    assert isinstance(f, ComplexField) and f.source is not None
    assert pointwise(operator.mul, a, b.without_source()).source is None
    assert isinstance(pointwise(np.abs, a.without_source()), RealField)


def test_field_mul_requires_matching_grids():
    a = sample(diagonal_form(sin), GridSpec(-1, 1, -1, 1, 11, 11))
    b = sample(diagonal_form(sin), GridSpec(-1, 1, -1, 1, 13, 13))
    with pytest.raises(ValueError):
        pointwise(operator.mul, a, b)


def test_sample_real_judges_imaginary_parts_against_the_real_scale():
    g = GridSpec(-1, 1, -1, 1, 11, 11)
    # 1e-8 is within 1e-12 of a real part of 1e6, but not of 1
    assert sample_real(form(lambda z: 1e6 + 1e-8j + 0 * z), g).values.max() == 1e6
    for fn in (lambda z: 1 + 1e-8j + 0 * z, lambda z: z):
        with pytest.raises(ValueError, match="not real-valued on the grid"):
            sample_real(form(fn), g)


def _counted_leaf(asked, diagonal=False):
    """The form 1.5 + 0.5j + z/8 (of s = z + conj(z) when diagonal), whose
    formula records the order of each argument it runs on: 0 for a plain
    array, 2 for a jet."""
    def fn(z):
        asked.append(getattr(z, "order", 0))
        return 1.5 + 0.5j + z / 8
    return diagonal_form(fn) if diagonal else form(fn)


# `pointwise` lifts its formula to its inputs' jets: the source of its
# result runs the formula on them once and keeps the jet it makes, as a
# sample's source keeps its form's jet


def test_nested_lift_evaluates_each_leaf_once_per_level():
    asked, levels = [], []

    def op(a, b):
        levels.append(1)
        return a * b

    depth = 4
    g = GridSpec(-1, 1, -1, 1, 5, 5)
    f = sample(_counted_leaf(asked), g)
    for _ in range(depth):
        f = pointwise(op, f, f)
    # the values ask the leaf for its values only
    assert asked == [0] and len(levels) == depth
    # the first derivative makes one jet per level, at the full order, where
    # evaluating the two inputs of each level separately would cost 2**depth
    # leaf calls; every later derivative reads the jets made
    for op_, want in ((d_z, [2]), (d_zbar, []), (mixed_dzbar_dz, [])):
        asked.clear()
        levels.clear()
        vals = op_(f).values
        assert asked == want and len(levels) == depth * len(want), op_.__name__
        assert np.all(np.isfinite(vals))
    leaf = 1.5 + 0.5j + g.zmesh() / 8
    assert np.allclose(f.values, leaf ** (2 ** depth), rtol=1e-12)
    assert np.allclose(f.source.jet(0).f, leaf ** (2 ** depth), rtol=1e-12)


def test_lift_asks_its_leaves_for_values_and_full_order_once_each():
    asked = []
    g = GridSpec(-1, 1, -1, 1, 5, 5)
    for diagonal in (False, True):
        leaf = _counted_leaf(asked, diagonal)
        for op in (d_z, d_zbar, mixed_dzbar_dz):
            asked.clear()
            fl = sample(leaf, g)
            f = pointwise(lambda a, b: a * conj(b) / b, fl, pointwise(sqrt, fl))
            # sampling asks for the values only, and a derived field's values
            # come from its inputs' values
            assert asked == [0]
            asked.clear()
            # the leaf enters twice, directly and through the inner field, and
            # both read the one jet its sample makes, of order 2
            op(f)
            assert asked == [2], op.__name__
            for again in (d_z, d_zbar, mixed_dzbar_dz):
                again(f)
            assert asked == [2], op.__name__


def test_lift_runs_on_jets_cut_to_its_order_and_keeps_their_slots():
    orders = []

    def op(a, b):
        orders.append((getattr(a, "order", None), getattr(b, "order", None)))
        return a * b

    g = GridSpec(-1, 1, -1, 1, 5, 5)
    a = sample(_counted_leaf([]), g)
    b = d_z(sample(_counted_leaf([]), g))       # a derivative's source is of order 1
    f = pointwise(op, a, b)
    assert f.source.order == 1 and orders == [(None, None)]
    # the order-2 input is cut to the result's order for the one run on jets
    d = d_z(f)
    assert orders == [(None, None), (1, 1)]
    # a cut and a derivative hold the kept jet's slot arrays, not copies
    jet = f.source.jet()
    assert f.source.jet(0).f is jet.f and d.source.jet().f is jet.fz
    assert a.source.jet(1).fz is a.source.jet().fz


def test_psi_from_rho_asks_each_form_for_values_and_full_order_once_each():
    # psi_from_rho's sources run on rho, d rho and H; d rho's source reads
    # rho's kept jet, so rho's form runs once for values and once for its
    # jet, and so does H's, whatever is asked of the component
    from gwsurf import build_family, psi_from_rho, sample_real
    fam = build_family("rational", lam=1.3)
    g = GridSpec(*fam.default_domain, 9, 7)
    asked = {"rho": [], "h": []}

    def recorded(name, form):
        def fn(z):
            asked[name].append(getattr(z, "order", 0))
            return form.fn(z)
        return form._replace(fn=fn)

    for op in (lambda f: f.source.jet(0), d_z, d_zbar, mixed_dzbar_dz):
        for component in ("psi1", "psi2"):
            for orders in asked.values():
                orders.clear()
            psi = getattr(psi_from_rho(sample(recorded("rho", fam.rho_form), g),
                                       sample_real(recorded("h", fam.h_form), g)), component)
            assert psi.source is not None
            op(psi)
            assert asked == {"rho": [0, 2], "h": [0, 2]}, asked


def _slots(f):
    """Every slot of a field's jet read through d_z and d_zbar, up to the
    jet's order (the others would be stencils), as grid-shaped values."""
    out = {"f": f.values}
    if f.source.order >= 1:
        out.update(fz=d_z(f).values, fzb=d_zbar(f).values)
    if f.source.order == 2:
        out.update(fzz=d_z(d_z(f)).values, fzzb=mixed_dzbar_dz(f).values,
                   fzbz=d_z(d_zbar(f)).values, fzbzb=d_zbar(d_zbar(f)).values)
    return out


def _derived_fields(rho, h):
    """Fields that the suites derive from rho and H through `pointwise`."""
    from gwsurf import density_p, psi_from_rho
    s = psi_from_rho(rho, h)
    return [s.psi1, s.psi2, density_p(s), pointwise(lambda v: 1.0 / v, h)]


def test_diagonal_form_mesh_evaluation_is_bitwise_pointwise():
    # sqrt of a negative real argument exercises the complex branch
    fn = lambda s: sqrt(s - 0.3) * sin(3 * s) / (1 + s * s)
    form, g = diagonal_form(fn), GridSpec(-1.3, 0.9, -0.7, 1.1, 37, 23)
    assert form.diagonal
    z = g.zmesh()
    full = form.jet(z)
    for order in range(3):
        on_mesh, pointwise_ = form.jet(z, order), form.jet(z.ravel(), order)
        for k, slot in enumerate(Jet.__slots__):
            got = getattr(on_mesh, slot)
            if k >= (1, 3, 6)[order]:    # a slot not asked for
                assert got is None and getattr(pointwise_, slot) is None
                continue
            assert got.shape == z.shape
            flat = getattr(pointwise_, slot).reshape(z.shape)
            assert np.array_equal(got.view(np.uint64), flat.view(np.uint64))
            assert np.array_equal(got.view(np.uint64), getattr(full, slot).view(np.uint64))
    # fields derived from one-column samples hold, at every grid point and
    # in every slot, the bits of the same fields derived from forms
    # evaluated on the whole mesh
    from gwsurf import build_family
    for name, kw in (("rational", {"lam": 1.3}), ("exponential", {"lam": 0.7}),
                     ("trig", {"a": 1.5})):
        fam = build_family(name, **kw)
        g = GridSpec(*fam.default_domain, 19, 13)
        rho, h = fam.rho(g), fam.h(g)
        assert rho.stored[0].shape == h.stored[0].shape == (g.nx, 1)
        mesh_rho = sample(fam.rho_form._replace(diagonal=False), g)
        mesh_h = sample_real(fam.h_form._replace(diagonal=False), g)
        for compact, mesh in zip(_derived_fields(rho, h), _derived_fields(mesh_rho, mesh_h)):
            assert compact.stored[0].shape == (g.nx, 1) and mesh.stored[0].shape == g.shape
            got, want = _slots(compact), _slots(mesh)
            assert got.keys() == want.keys() and len(got) > 1, name
            for slot in got:
                assert np.array_equal(got[slot].view(np.uint64), want[slot].view(np.uint64)), \
                    (name, slot)


def test_diagonal_lift_runs_its_op_on_one_column():
    shapes = []

    def op(a, b):
        shapes.append((np.shape(a.f if isinstance(a, Jet) else a),
                       np.shape(b.f if isinstance(b, Jet) else b)))
        return a * b

    g = GridSpec(-1, 1, -1, 1, 7, 5)
    diag = diagonal_form(exp)
    # a sample of a diagonal form stores the grid's first column, and its
    # jet runs there; a formula of such fields runs on their columns
    for forms, seen, shape in (((diag, diagonal_form(lambda s: 1 + s * s)), ((7, 1), (7, 1)),
                                (7, 1)),
                               ((form(lambda z: z * z), diag), ((7, 5), (7, 1)),
                                (7, 5))):
        for deriv in (d_z, d_zbar, mixed_dzbar_dz):
            shapes.clear()
            f = pointwise(op, *(sample(form, g) for form in forms))
            assert shapes == [seen]
            assert [a.shape for a in f.stored] == [shape, shape]
            shapes.clear()
            out = deriv(f)
            assert out.values.shape == (7, 5) and out.stored[0].shape == shape
            assert shapes == [seen], deriv.__name__
    f = sample(diag, g)
    assert [a.shape for a in f.stored] == [(7, 1), (7, 1)]
    assert f.source.jet(2).fzzb.shape == (7, 1)


def test_diagonal_guard_depends_on_x_only():
    g = GridSpec(-1, 1, -1, 1, 7, 5)
    # a guard of s = 2x masks whole rows of the grid, stored as one column
    f = sample(diagonal_form(exp, guard=lambda s: s.real > 1.0), g)
    assert f.stored[1].shape == (7, 1)
    assert np.array_equal(f.mask, np.broadcast_to(g.xs()[:, None] > 0.5, (7, 5)))
    # the same guard carried through a formula with a diagonal form stays one
    f = pointwise(operator.mul, f, sample(diagonal_form(lambda s: s), g))
    assert f.stored[1].shape == (7, 1) and f.mask.sum() == 2 * 5


def test_diagonal_form_off_mesh_matches_direct_evaluation():
    fn = lambda s: exp(s) / (2 + cos(s))
    form = diagonal_form(fn)
    rng = np.random.default_rng(7)
    z = rng.uniform(-1, 1, (9, 11)) + 1j * rng.uniform(-1, 1, (9, 11))
    z[:, 0] = z[:, 1].real            # one column repeats its neighbour's abscissa
    direct = fn(Jet((2.0 * z.real).astype(complex), 1.0, 1.0, 0.0, 0.0, 0.0))
    assert np.array_equal(form.jet(z, 1).fz, direct.fz)
    assert np.array_equal(form.jet(z).fzzb, direct.fzzb)
    assert np.array_equal(form.jet(z[0], 0).f, fn((2.0 * z[0].real).astype(complex)))


C, K = 0.7 + 0.4j, -0.3 + 0.5j       # a = exp(C z + K zbar)
P, Q = 0.6 - 0.2j, 0.4 + 0.3j        # b = 2 + cos(P z + Q zbar)


def _input_jets(z):
    """Non-diagonal inputs with hand-written slots, so every rule's z, zbar
    and mixed slots differ: a = exp(C z + K zbar) and b = 2 + cos(u) with
    u = P z + Q zbar."""
    e = np.exp(C * z + K * np.conj(z))
    u = P * z + Q * np.conj(z)
    s, c = np.sin(u), np.cos(u)
    return (Jet(e, C * e, K * e, C * C * e, C * K * e, K * K * e),
            Jet(2 + c, -P * s, -Q * s, -P * P * c, -P * Q * c, -Q * Q * c))


def _wirtinger_stencils(value, z, h):
    """Central-difference d, dbar, dd, d dbar and dbar dbar of value at z."""
    f = {(i, j): value(z + h * (i + 1j * j)) for i in (-1, 0, 1) for j in (-1, 0, 1)}
    fx = (f[1, 0] - f[-1, 0]) / (2 * h)
    fy = (f[0, 1] - f[0, -1]) / (2 * h)
    fxx = (f[1, 0] - 2 * f[0, 0] + f[-1, 0]) / (h * h)
    fyy = (f[0, 1] - 2 * f[0, 0] + f[0, -1]) / (h * h)
    fxy = (f[1, 1] - f[1, -1] - f[-1, 1] + f[-1, -1]) / (4 * h * h)
    return {"fz": (fx - 1j * fy) / 2, "fzb": (fx + 1j * fy) / 2,
            "fzz": (fxx - 2j * fxy - fyy) / 4, "fzzb": (fxx + fyy) / 4,
            "fzbzb": (fxx + 2j * fxy - fyy) / 4}


# one entry per Jet rule; "constants" covers the reflected operators and
# numpy scalars, which must defer to the jet
JET_RULES = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "neg": lambda a, b: -a,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "reciprocal": lambda a, b: 1.5 / b,
    "constants": lambda a, b: ((2.5 - a) * 3 + np.float64(0.5) * a + (a - 1) + (1 + b)
                               + b / 3 + np.complex128(2 - 1j) / b),
    "exp": lambda a, b: exp(a),
    "sin": lambda a, b: sin(a),
    "cos": lambda a, b: cos(a),
    "sqrt": lambda a, b: sqrt(b),
    "log": lambda a, b: log(b),
    "conj": lambda a, b: conj(a),
}


@pytest.mark.parametrize("rule", sorted(JET_RULES))
def test_taylor_jet_rules_match_central_differences(rule):
    # the rules of the second-order Taylor jet in z and zbar
    op = JET_RULES[rule]
    z = np.linspace(-0.5, 0.5, 7)[:, None] + 1j * np.linspace(-0.4, 0.6, 5)[None, :]
    jet = op(*_input_jets(z))
    value = lambda u: op(*(j.f for j in _input_jets(u)))
    assert isinstance(jet, Jet) and jet.order == 2
    # the value slot is the plain computation, bit for bit
    assert np.array_equal(np.asarray(jet.f).view(np.uint64), value(z).view(np.uint64))
    coarse, fine = _wirtinger_stencils(value, z, 0.02), _wirtinger_stencils(value, z, 0.01)
    for slot in Jet.__slots__[1:]:
        ratio = np.max(np.abs(coarse[slot] - getattr(jet, slot))) \
            / np.max(np.abs(fine[slot] - getattr(jet, slot)))
        assert 3.5 <= ratio <= 4.5, slot


def test_jet_result_has_the_lowest_operand_order():
    a, b = _input_jets(np.array([0.1 + 0.2j]))
    first = Jet(a.f, a.fz, a.fzb)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        assert op(first, b).order == op(b, first).order == 1
        assert op(Jet(a.f), b).order == 0
    for fn in (exp, sin, cos, sqrt, log, conj, operator.neg, lambda j: 1 / j):
        assert fn(first).order == 1 and fn(Jet(b.f)).order == 0


def test_formula_constant_in_its_variable_has_zero_derivatives():
    form = diagonal_form(lambda s: 2.5)
    z = GridSpec(-1, 1, -1, 1, 5, 3).zmesh()
    jet = form.jet(z)
    assert np.array_equal(form.jet(z, 0).f, np.full(z.shape, 2.5 + 0j))
    for slot in ("fz", "fzb", "fzz", "fzzb", "fzbzb"):
        assert np.array_equal(getattr(jet, slot), np.zeros(z.shape, complex))


# random formulas lifted to the jets of sampled fields: leaves with values
# in the right half-plane, combined by every jet operation
ROT = np.exp(0.3j)
LEAVES = {
    "cos": diagonal_form(lambda s: 2 + cos(s)),
    "spiral": diagonal_form(lambda s: exp(0.3j * s) * (1.5 + 0.25 * s)),
    "square": form(lambda z: 2 + z * z / 4),
    "expz": form(lambda z: exp(0.3 * z) + 0.5j),
    # a profile of one variable along a rotated direction: a formula of z and conj(z)
    "rotated": form(lambda z: 2 + cos(ROT * z + conj(ROT * z))),
}
UNARY = {"inv": lambda j: 1.0 / j, "sqrt": sqrt, "log": log, "conj": conj,
         "scale": lambda j: (-0.75 + 0.5j) * j, "neg": operator.neg}
BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
          "div": operator.truediv}
TREES = st.recursive(
    st.sampled_from(sorted(LEAVES)),
    lambda kids: st.one_of(st.tuples(st.sampled_from(sorted(UNARY)), kids),
                           st.tuples(st.sampled_from(sorted(BINARY)), kids, kids)),
    max_leaves=4)
COARSE, FINE = GridSpec(-1, 1, -1, 1, 51, 51), GridSpec(-1, 1, -1, 1, 101, 101)
# every slot through the derivatives: analytic when the field has a source
DERIVATIVES = {"d": d_z, "dbar": d_zbar, "dbar d": mixed_dzbar_dz,
               "d dbar": lambda f: d_z(d_zbar(f)), "d d": lambda f: d_z(d_z(f)),
               "dbar dbar": lambda f: d_zbar(d_zbar(f))}


def _capped(f, form, order):
    """The sample f of `form` with a source of `order`: the form's jet asked
    at that order on f's stored points."""
    z = f.grid.zmesh()[:, :1] if form.diagonal else f.grid.zmesh()
    return ComplexField._derived(f.grid, *f.stored,
                                 source=_Source(order, lambda: form.jet(z, order)))


def _build(tree, grids, orders=None):
    """The tree as nested `pointwise` fields over sampled leaves, one
    independent copy per grid in `grids`, whose first is FINE; `orders`
    caps the order of each copy's leaf sources (2, a sample's, by
    default). sqrt and log need Re > 0, inv and div |.| > 0."""
    if isinstance(tree, str):
        fields = [sample(LEAVES[tree], g) for g in grids]
        return fields if orders is None else [_capped(f, LEAVES[tree], k)
                                              for f, k in zip(fields, orders)]
    name, *kids = tree
    args = [_build(k, grids, orders) for k in kids]
    # FINE holds every point of COARSE, so checking it covers both grids
    arg = args[-1][0].values
    if name in ("sqrt", "log"):
        assume(np.min(arg.real) > 0.3)
    if name in ("inv", "div"):
        assume(np.min(np.abs(arg)) > 0.3)
    fn = UNARY[name] if name in UNARY else BINARY[name]
    return [pointwise(fn, *fields) for fields in zip(*args)]


@given(TREES)
@settings(max_examples=30, deadline=5000, derandomize=True)
def test_random_lift_slots_do_not_depend_on_the_order_asked(tree):
    # one copy per order, its leaf sources capped at that order, each the
    # form's jet asked at that order: a field's jet is made at the lowest
    # order of its leaves
    g = GridSpec(-1, 1, -1, 1, 9, 7)
    _, full, *copies = _build(tree, [FINE] + [g] * 4, orders=[2, 2, 0, 1, 2])
    full = full.source.jet()
    for order, f in enumerate(copies):
        assert f.source.order == order
        jet = f.source.jet()
        for k, slot in enumerate(Jet.__slots__):
            got = getattr(jet, slot)
            if k >= (1, 3, 6)[order]:
                assert got is None, (order, slot)
            else:
                assert np.array_equal(got.view(np.uint64), getattr(full, slot).view(np.uint64))


@given(TREES)
@settings(max_examples=30, deadline=5000, derandomize=True)
def test_random_lift_derivatives_converge_to_stencils(tree):
    fine, coarse = _build(tree, [FINE, COARSE])
    for name, op in DERIVATIVES.items():
        errs = []
        for f in (coarse, fine):
            z = f.grid.zmesh()
            # nested one-sided boundary stencils are first order; judge the interior
            inner = (np.abs(z.real) < 0.9) & (np.abs(z.imag) < 0.9)
            errs.append(np.max(np.abs(op(f.without_source()).values - op(f).values)[inner]))
        scale = max(1.0, float(np.max(np.abs(op(fine).values))))
        if errs[0] < 1e-8 * scale:      # the stencils are exact up to round-off
            continue
        # at least fd_check's second order; on (anti)holomorphic compositions
        # the h^2 terms of the interior Wirtinger stencils cancel and the
        # ratio approaches 16
        assert errs[0] / errs[1] > 3.0, (name, errs)
