"""Jet calculus and closed-form combinators against finite differences."""
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gwsurf import ComplexField, GridSpec, RealField, d_z, d_zbar, mixed_dzbar_dz, sample
from gwsurf.closedform import (ClosedForm, Jet, conj, cos, diagonal_form, exp, field_mul,
                               holomorphic_form, jet_dz, lift, log, pointwise, sin, sqrt)


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
    fd_check(holomorphic_form(lambda z: z * z * z - 2 * z))


def test_conjugate_form_swaps_slots():
    g = GridSpec(-1, 1, -1, 1, 21, 21)
    form = holomorphic_form(lambda z: z * z)
    f = sample(form.conjugate(), g)
    # conj(z^2) has dbar derivative 2 conj(z) and d derivative 0
    d = d_z(f)
    assert np.max(np.abs(d.values)) < 1e-14
    db = d_zbar(f)
    assert np.max(np.abs(db.values - 2 * np.conj(g.zmesh()))) < 1e-13


def test_lift_quotient_and_sqrt_jets():
    # h = sqrt(a / b) for diagonal forms; compare with the direct expression
    a = diagonal_form(lambda s: 1 + s * s)
    b = diagonal_form(lambda s: 2 + cos(s))
    combo = lift(lambda ja, jb: sqrt(ja / jb), a, b)
    direct = diagonal_form(lambda s: sqrt((1 + s * s) / (2 + cos(s))))
    g = GridSpec(-1, 1, -1, 1, 31, 31)
    fa, fb = sample(combo, g), sample(direct, g)
    assert np.max(np.abs(fa.values - fb.values)) < 1e-13
    assert np.max(np.abs(d_z(fa).values - d_z(fb).values)) < 1e-12
    assert np.max(np.abs(mixed_dzbar_dz(fa).values - mixed_dzbar_dz(fb).values)) < 1e-11


def test_lift_conj_mul_jets():
    a = diagonal_form(lambda s: exp(1j * s))
    combo = lift(lambda j: j * conj(j), a)   # |rho|^2 = 1
    g = GridSpec(-1, 1, -1, 1, 21, 21)
    f = sample(combo, g)
    assert np.max(np.abs(f.values - 1.0)) < 1e-14
    assert np.max(np.abs(d_z(f).values)) < 1e-14


def test_lift_drops_unavailable_slots():
    value_only = ClosedForm(lambda z, order: Jet(np.ones(np.shape(z), complex)))
    out = lift(operator.mul, value_only, value_only)
    assert out.order == 0 and out.derivative("z") is None
    jet = out.jet(np.zeros(3, complex))
    assert jet.fz is None and jet.fzzb is None
    full = diagonal_form(exp)
    assert lift(operator.mul, full, value_only).order == 0
    assert lift(operator.mul, full, full.derivative("z")).order == 1
    # jet_dz gives up one order, so the result asks its input for one more
    lowered = lift(lambda j: sqrt(jet_dz(j)), full)
    assert lowered.order == 1
    z = GridSpec(-1, 1, -1, 1, 5, 3).zmesh()
    assert np.array_equal(lowered.jet(z, 0).f, np.sqrt(full.jet(z).fz))
    assert lowered.jet(z, 0).fz is None


def test_field_mul_combines_sources():
    g = GridSpec(-1, 1, -1, 1, 41, 41)
    a = sample(diagonal_form(sin), g)
    b = sample(diagonal_form(exp), g)
    prod = field_mul(a, b)
    assert prod.source is not None
    d = d_z(prod)
    s = 2 * np.real(g.zmesh())
    expect = (np.cos(s) + np.sin(s)) * np.exp(s)      # d/ds (sin s exp s)
    assert np.max(np.abs(d.values - expect)) < 1e-12


def test_pointwise_masks_the_union_and_lifts_only_complete_sources():
    g = GridSpec(-1, 1, -1, 1, 9, 7)
    zero = np.zeros(g.shape, dtype=bool)
    zero[4] = True      # sin(s) vanishes on x = 0
    a = sample(diagonal_form(exp), g, extra_mask=np.eye(9, 7, dtype=bool))
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
        field_mul(a, b)


def _counted_leaf(asked, diagonal=False):
    """Order-2 leaf with constant slots that records each order it is asked for."""
    def jet_fn(z, order):
        asked.append(order)
        c = np.full(np.shape(z), 1.5 + 0.5j)
        return Jet(*[c] * (1, 3, 6)[order])
    return ClosedForm(jet_fn, 2, diagonal=diagonal)


def _views(form):
    """Value, d, dbar and dbar d of a form, each as its one slot on a mesh."""
    dz = form.derivative("z")
    return {"value": lambda z: form.jet(z, 0).f, "dz": lambda z: dz.jet(z, 0).f,
            "dzbar": lambda z: form.derivative("zbar").jet(z, 0).f,
            "dzdzbar": lambda z: dz.derivative("zbar").jet(z, 0).f}


def test_nested_lift_evaluates_each_leaf_once_per_level():
    asked, levels = [], []

    def op(a, b):
        levels.append(1)
        return a * b

    depth = 4
    form = _counted_leaf(asked)
    for _ in range(depth):
        form = lift(op, form, form)
    z = GridSpec(-1, 1, -1, 1, 5, 5).zmesh()
    for name, view in _views(form).items():
        asked.clear()
        levels.clear()
        vals = view(z)
        # one jet per level, where evaluating the two inputs separately
        # would cost 2**depth leaf calls
        assert len(asked) == 1 and len(levels) == depth, name
        assert np.all(np.isfinite(vals))
    assert np.allclose(form.jet(z, 0).f, (1.5 + 0.5j) ** (2 ** depth), rtol=1e-12)


def test_lift_asks_its_leaves_for_the_order_its_caller_needs():
    asked = []
    g = GridSpec(-1, 1, -1, 1, 5, 5)
    for diagonal in (False, True):
        leaf = _counted_leaf(asked, diagonal)
        form = lift(lambda a, b: a * conj(b) / b, leaf, lift(sqrt, leaf))
        asked.clear()
        f = sample(form, g)
        # the leaf enters twice, directly and through the inner lift
        assert asked == [0, 0]
        for op, order in ((d_z, 1), (d_zbar, 1), (mixed_dzbar_dz, 2)):
            asked.clear()
            op(f)
            assert asked == [order, order], op.__name__


def _lifted_diagonal_forms():
    """(form, mesh) pairs: lifts of diagonal forms as the suites build them."""
    from gwsurf import build_family, density_p, psi_from_rho
    out = []
    for name, kw in (("rational", {"lam": 1.3}), ("exponential", {"lam": 0.7}),
                     ("trig", {"a": 1.5})):
        fam = build_family(name, **kw)
        g = fam.default_grid(19, 13)
        s = psi_from_rho(fam.rho(g), fam.mean_curvature)
        out += [(s.psi1.source, g), (s.psi2.source, g)]
        if name == "rational":
            out.append((density_p(s).source, g))
            out.append((lift(lambda j: 1.0 / j, fam.h_form), g))
    return out


def test_diagonal_form_mesh_evaluation_is_bitwise_pointwise():
    # sqrt of a negative real argument exercises the complex branch
    fn = lambda s: sqrt(s - 0.3) * sin(3 * s) / (1 + s * s)
    cases = [(diagonal_form(fn), GridSpec(-1.3, 0.9, -0.7, 1.1, 37, 23))]
    cases += _lifted_diagonal_forms()
    for form, g in cases:
        assert form.diagonal
        z = g.zmesh()
        full = form.jet(z)
        for order in range(3):
            on_mesh, pointwise = form.jet(z, order), form.jet(z.ravel(), order)
            for k, slot in enumerate(Jet.__slots__):
                got = getattr(on_mesh, slot)
                if k >= (1, 3, 6)[min(order, form.order)]:    # a slot not asked for
                    assert got is None and getattr(pointwise, slot) is None
                    continue
                assert got.shape == z.shape
                flat = getattr(pointwise, slot).reshape(z.shape)
                assert np.array_equal(got.view(np.uint64), flat.view(np.uint64))
                assert np.array_equal(got.view(np.uint64), getattr(full, slot).view(np.uint64))
        for name, view in _views(form).items():
            if form.order < (2 if name == "dzdzbar" else 1):
                continue
            on_mesh, pointwise = view(z), view(z.ravel()).reshape(z.shape)
            assert np.array_equal(on_mesh.view(np.uint64), pointwise.view(np.uint64)), name


def test_diagonal_lift_runs_its_op_on_one_column():
    shapes = []

    def op(a, b):
        shapes.append((np.shape(a.f), np.shape(b.f)))
        return a * b

    diag = diagonal_form(exp)
    both = lift(op, diag, diagonal_form(lambda s: 1 + s * s))
    mixed = lift(op, holomorphic_form(lambda z: z * z), diag)
    assert both.diagonal and not mixed.diagonal
    assert both.derivative("z").diagonal and both.conjugate().diagonal
    g = GridSpec(-1, 1, -1, 1, 7, 5)
    for form, shape in ((both, (7, 1)), (mixed, (7, 5))):
        seen = (shape, shape)
        shapes.clear()
        f = sample(form, g)
        assert shapes == [seen]
        for deriv in (d_z, d_zbar, mixed_dzbar_dz):
            shapes.clear()
            assert deriv(f).values.shape == (7, 5)
            assert shapes == [seen], deriv.__name__
        shapes.clear()
        assert form.jet(g.zmesh()).fzzb.shape == (7, 5)
        assert shapes == [seen]


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


# random lift compositions: leaves with values in the right half-plane,
# combined by every jet operation
LEAVES = {
    "cos": diagonal_form(lambda s: 2 + cos(s)),
    "spiral": diagonal_form(lambda s: exp(0.3j * s) * (1.5 + 0.25 * s)),
    "square": holomorphic_form(lambda z: 2 + z * z / 4),
    "expz": holomorphic_form(lambda z: exp(0.3 * z) + 0.5j),
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
# every slot through the derivative forms: analytic when the field has a source
DERIVATIVES = {"d": d_z, "dbar": d_zbar, "dbar d": mixed_dzbar_dz,
               "d dbar": lambda f: d_z(d_zbar(f)), "d d": lambda f: d_z(d_z(f)),
               "dbar dbar": lambda f: d_zbar(d_zbar(f))}


def _build(tree):
    """The nested lift of a tree; sqrt and log need Re > 0, inv and div |.| > 0."""
    if isinstance(tree, str):
        return LEAVES[tree]
    name, *kids = tree
    forms = [_build(k) for k in kids]
    # FINE holds every point of COARSE, so checking it covers both grids
    arg = forms[-1].jet(FINE.zmesh(), 0).f
    if name in ("sqrt", "log"):
        assume(np.min(arg.real) > 0.3)
    if name in ("inv", "div"):
        assume(np.min(np.abs(arg)) > 0.3)
    return lift(UNARY[name] if name in UNARY else BINARY[name], *forms)


@given(TREES)
@settings(max_examples=30, deadline=5000, derandomize=True)
def test_random_lift_slots_do_not_depend_on_the_order_asked(tree):
    form = _build(tree)
    assert form.order == 2
    z = GridSpec(-1, 1, -1, 1, 9, 7).zmesh()
    full = form.jet(z)
    for order in range(3):
        jet = form.jet(z, order)
        for k, slot in enumerate(Jet.__slots__):
            got = getattr(jet, slot)
            if k >= (1, 3, 6)[order]:
                assert got is None, (order, slot)
            else:
                assert np.array_equal(got.view(np.uint64), getattr(full, slot).view(np.uint64))


@given(TREES)
@settings(max_examples=30, deadline=5000, derandomize=True)
def test_random_lift_derivatives_converge_to_stencils(tree):
    form = _build(tree)
    for name, op in DERIVATIVES.items():
        errs = []
        for g in (COARSE, FINE):
            f = sample(form, g)
            z = g.zmesh()
            # nested one-sided boundary stencils are first order; judge the interior
            inner = (np.abs(z.real) < 0.9) & (np.abs(z.imag) < 0.9)
            errs.append(np.max(np.abs(op(f.without_source()).values - op(f).values)[inner]))
        scale = max(1.0, float(np.max(np.abs(op(sample(form, FINE)).values))))
        if errs[0] < 1e-8 * scale:      # the stencils are exact up to round-off
            continue
        # at least fd_check's second order; on (anti)holomorphic compositions
        # the h^2 terms of the interior Wirtinger stencils cancel and the
        # ratio approaches 16
        assert errs[0] / errs[1] > 3.0, (name, errs)
