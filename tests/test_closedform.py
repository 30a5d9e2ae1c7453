"""Jet calculus and closed-form combinators against finite differences."""
import numpy as np
import pytest

from gwsurf import GridSpec, d_z, d_zbar, mixed_dzbar_dz, sample
from gwsurf.closedform import (_SLOTS, TaylorJet, conj, cos, diagonal_form, exp,
                               field_mul, holomorphic_form, jet_conj, jet_div, jet_mul,
                               jet_sqrt, lift, sin, sqrt)


def fd_check(form, op=d_z):
    """Analytic derivative callables must agree with stencils to O(h^2)."""
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
    combo = lift(lambda ja, jb: jet_sqrt(jet_div(ja, jb)), a, b)
    direct = diagonal_form(lambda s: sqrt((1 + s * s) / (2 + cos(s))))
    g = GridSpec(-1, 1, -1, 1, 31, 31)
    fa, fb = sample(combo, g), sample(direct, g)
    assert np.max(np.abs(fa.values - fb.values)) < 1e-13
    assert np.max(np.abs(d_z(fa).values - d_z(fb).values)) < 1e-12
    assert np.max(np.abs(mixed_dzbar_dz(fa).values - mixed_dzbar_dz(fb).values)) < 1e-11


def test_lift_conj_mul_jets():
    a = diagonal_form(lambda s: exp(1j * s))
    combo = lift(lambda j: jet_mul(j, jet_conj(j)), a)   # |rho|^2 = 1
    g = GridSpec(-1, 1, -1, 1, 21, 21)
    f = sample(combo, g)
    assert np.max(np.abs(f.values - 1.0)) < 1e-14
    assert np.max(np.abs(d_z(f).values)) < 1e-14


def test_lift_drops_unavailable_slots():
    bare = lambda z: np.ones(np.shape(z), complex)
    from gwsurf.closedform import ClosedForm
    value_only = ClosedForm(value=bare)
    out = lift(jet_mul, value_only, value_only)
    assert out.dz is None and out.dzdzbar is None


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


def test_field_mul_requires_matching_grids():
    a = sample(diagonal_form(sin), GridSpec(-1, 1, -1, 1, 11, 11))
    b = sample(diagonal_form(sin), GridSpec(-1, 1, -1, 1, 13, 13))
    with pytest.raises(ValueError):
        field_mul(a, b)


def test_nested_lift_evaluates_each_leaf_once_per_level():
    calls = [0]

    def counted(z):
        calls[0] += 1
        return np.full(np.shape(z), 1.5 + 0.5j)

    from gwsurf.closedform import ClosedForm
    leaf = ClosedForm(value=counted, dz=counted, dzbar=counted,
                      dz2=counted, dzdzbar=counted, dzbar2=counted)
    depth = 4
    form = leaf
    for _ in range(depth):
        form = lift(jet_mul, form, form)
    z = GridSpec(-1, 1, -1, 1, 5, 5).zmesh()
    for slot in ("value", "dz", "dzdzbar"):
        calls[0] = 0
        vals = getattr(form, slot)(z)
        # one jet per level: at most the six leaf slots per level, where
        # per-slot re-evaluation would cost about 12**depth leaf calls
        assert 0 < calls[0] <= 6 * depth
        assert np.all(np.isfinite(vals))
    assert np.allclose(form.value(z), (1.5 + 0.5j) ** (2 ** depth), rtol=1e-12)


DIAGONAL_SLOTS = ("value", "dz", "dzbar", "dz2", "dzdzbar", "dzbar2")


def _lifted_diagonal_forms():
    """(form, mesh) pairs: lifts of diagonal forms as the suites build them."""
    from gwsurf import build_family, density_p, psi_from_rho
    from gwsurf.closedform import jet_inv
    out = []
    for name, kw in (("rational", {"lam": 1.3}), ("exponential", {"lam": 0.7}),
                     ("trig", {"a": 1.5})):
        fam = build_family(name, **kw)
        g = fam.default_grid(19, 13)
        s = psi_from_rho(fam.rho(g), fam.mean_curvature)
        out += [(s.psi1.source, g), (s.psi2.source, g)]
        if name == "rational":
            out.append((density_p(s).source, g))
            out.append((lift(jet_inv, fam.h_form), g))
    return out


def test_diagonal_form_mesh_evaluation_is_bitwise_pointwise():
    # sqrt of a negative real argument exercises the complex branch
    fn = lambda s: sqrt(s - 0.3) * sin(3 * s) / (1 + s * s)
    cases = [(diagonal_form(fn), GridSpec(-1.3, 0.9, -0.7, 1.1, 37, 23))]
    cases += _lifted_diagonal_forms()
    for form, g in cases:
        assert form.diagonal
        z = g.zmesh()
        jet = form.jet(z)
        for name, slot in _SLOTS:
            fn = getattr(form, name)
            if fn is None:          # a slot the form does not carry
                assert getattr(jet, slot) is None
                continue
            on_mesh = fn(z)
            pointwise = fn(z.ravel()).reshape(z.shape)
            assert on_mesh.shape == z.shape
            assert np.array_equal(on_mesh.view(np.uint64), pointwise.view(np.uint64))
            assert np.array_equal(getattr(jet, slot).view(np.uint64), on_mesh.view(np.uint64))


def test_diagonal_lift_runs_its_op_on_one_column():
    shapes = []

    def op(a, b):
        shapes.append((np.shape(a.f), np.shape(b.fzz)))
        return jet_mul(a, b)

    diag = diagonal_form(exp)
    both = lift(op, diag, diagonal_form(lambda s: 1 + s * s))
    mixed = lift(op, holomorphic_form(lambda z: z * z), diag)
    assert both.diagonal and not mixed.diagonal
    assert both.derivative("z").diagonal and both.conjugate().diagonal
    z = GridSpec(-1, 1, -1, 1, 7, 5).zmesh()
    for form, shape in ((both, (7, 1)), (mixed, (7, 5))):
        seen = (shape, shape)
        for slot in DIAGONAL_SLOTS:
            shapes.clear()
            assert getattr(form, slot)(z).shape == (7, 5)
            assert shapes == [seen]
        shapes.clear()
        assert form.jet(z).fzzb.shape == (7, 5)
        assert shapes == [seen]


def test_diagonal_form_off_mesh_matches_direct_evaluation():
    fn = lambda s: exp(s) / (2 + cos(s))
    form = diagonal_form(fn)
    rng = np.random.default_rng(7)
    z = rng.uniform(-1, 1, (9, 11)) + 1j * rng.uniform(-1, 1, (9, 11))
    z[:, 0] = z[:, 1].real            # one column repeats its neighbour's abscissa
    direct = fn(TaylorJet((2.0 * z.real).astype(complex), 1.0, 0.0))
    assert np.array_equal(form.dz(z), direct.d1)
    assert np.array_equal(form.dzdzbar(z), direct.d2)
    assert np.array_equal(form.value(z[0]), fn((2.0 * z[0].real).astype(complex)))


def _input_jets(t):
    """Inputs with hand-written slots: a = exp(c t) (complex), b = 2 + cos t."""
    c = 0.7 + 0.4j
    e = np.exp(c * t)
    return (TaylorJet(e, c * e, c * c * e),
            TaylorJet(2 + np.cos(t), -np.sin(t), -np.cos(t)))


# one entry per TaylorJet rule; "constants" covers the reflected operators
# and numpy scalars, which must defer to the jet
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
    "sqrt": lambda a, b: sqrt(a),
    "conj": lambda a, b: conj(a),
}


@pytest.mark.parametrize("rule", sorted(JET_RULES))
def test_taylor_jet_rules_match_central_differences(rule):
    op = JET_RULES[rule]
    t = np.linspace(-1, 1, 9)
    jet = op(*_input_jets(t))
    value = lambda u: op(*(j.f for j in _input_jets(u)))
    assert isinstance(jet, TaylorJet)
    # the value slot is the plain computation, bit for bit
    assert np.array_equal(np.asarray(jet.f).view(np.uint64), value(t).view(np.uint64))

    def err(h):
        up, mid, down = value(t + h), value(t), value(t - h)
        return (np.max(np.abs((up - down) / (2 * h) - jet.d1)),
                np.max(np.abs((up - 2 * mid + down) / (h * h) - jet.d2)))

    for coarse, fine in zip(err(0.02), err(0.01)):
        assert 3.5 <= coarse / fine <= 4.5


def test_formula_constant_in_its_variable_has_zero_derivatives():
    form = diagonal_form(lambda s: 2.5)
    z = GridSpec(-1, 1, -1, 1, 5, 3).zmesh()
    jet = form.jet(z)
    assert np.array_equal(form.value(z), np.full(z.shape, 2.5 + 0j))
    for slot in ("fz", "fzb", "fzz", "fzzb", "fzbzb"):
        assert np.array_equal(getattr(jet, slot), np.zeros(z.shape, complex))
