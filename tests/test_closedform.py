"""Jet calculus and closed-form combinators against finite differences."""
import numpy as np
import pytest
import sympy as sp

from gwsurf import GridSpec, d_z, d_zbar, mixed_dzbar_dz, sample
from gwsurf.closedform import (_S, _Z, diagonal_form, field_mul, holomorphic_form,
                               jet_conj, jet_div, jet_mul, jet_sqrt, lift)


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
    fd_check(diagonal_form(sp.exp(_S) / (1 + _S**2)))
    fd_check(diagonal_form(sp.exp(_S) / (1 + _S**2)), op=d_zbar)


def test_holomorphic_form_derivatives_match_fd():
    fd_check(holomorphic_form(_Z**3 - 2 * _Z))


def test_conjugate_form_swaps_slots():
    g = GridSpec(-1, 1, -1, 1, 21, 21)
    form = holomorphic_form(_Z**2)
    f = sample(form.conjugate(), g)
    # conj(z^2) has dbar derivative 2 conj(z) and d derivative 0
    d = d_z(f)
    assert np.max(np.abs(d.values)) < 1e-14
    db = d_zbar(f)
    assert np.max(np.abs(db.values - 2 * np.conj(g.zmesh()))) < 1e-13


def test_lift_quotient_and_sqrt_jets():
    # h = sqrt(a / b) for diagonal forms; compare with the direct expression
    a = diagonal_form(1 + _S**2)
    b = diagonal_form(2 + sp.cos(_S))
    combo = lift(lambda ja, jb: jet_sqrt(jet_div(ja, jb)), a, b)
    direct = diagonal_form(sp.sqrt((1 + _S**2) / (2 + sp.cos(_S))))
    g = GridSpec(-1, 1, -1, 1, 31, 31)
    fa, fb = sample(combo, g), sample(direct, g)
    assert np.max(np.abs(fa.values - fb.values)) < 1e-13
    assert np.max(np.abs(d_z(fa).values - d_z(fb).values)) < 1e-12
    assert np.max(np.abs(mixed_dzbar_dz(fa).values - mixed_dzbar_dz(fb).values)) < 1e-11


def test_lift_conj_mul_jets():
    a = diagonal_form(sp.exp(sp.I * _S))
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
    a = sample(diagonal_form(sp.sin(_S)), g)
    b = sample(diagonal_form(sp.exp(_S)), g)
    prod = field_mul(a, b)
    assert prod.source is not None
    d = d_z(prod)
    oracle = sp.lambdify(_S, sp.diff(sp.sin(_S) * sp.exp(_S), _S), "numpy")
    expect = oracle(2 * np.real(g.zmesh()))
    assert np.max(np.abs(d.values - expect)) < 1e-12


def test_field_mul_requires_matching_grids():
    a = sample(diagonal_form(sp.sin(_S)), GridSpec(-1, 1, -1, 1, 11, 11))
    b = sample(diagonal_form(sp.sin(_S)), GridSpec(-1, 1, -1, 1, 13, 13))
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


def test_diagonal_form_mesh_evaluation_is_bitwise_pointwise():
    # sqrt of a negative real argument exercises the complex branch
    expr = sp.sqrt(_S - 0.3) * sp.sin(3 * _S) / (1 + _S**2)
    form = diagonal_form(expr)
    g = GridSpec(-1.3, 0.9, -0.7, 1.1, 37, 23)
    z = g.zmesh()
    for slot in DIAGONAL_SLOTS:
        fn = getattr(form, slot)
        on_mesh = fn(z)
        pointwise = fn(z.ravel()).reshape(z.shape)
        assert on_mesh.shape == z.shape
        assert np.array_equal(on_mesh.view(np.uint64), pointwise.view(np.uint64))


def test_diagonal_form_off_mesh_matches_direct_evaluation():
    expr = sp.exp(_S) / (2 + sp.cos(_S))
    form = diagonal_form(expr)
    rng = np.random.default_rng(7)
    z = rng.uniform(-1, 1, (9, 11)) + 1j * rng.uniform(-1, 1, (9, 11))
    z[:, 0] = z[:, 1].real            # one column repeats its neighbour's abscissa
    direct = sp.lambdify(_S, sp.diff(expr, _S), "numpy")
    expect = direct((2.0 * z.real).astype(complex))
    assert np.array_equal(form.dz(z), expect)
    assert np.array_equal(form.value(z[0]),
                          sp.lambdify(_S, expr, "numpy")((2.0 * z[0].real).astype(complex)))
