"""Residual reports and norm conventions."""
import numpy as np
from hypothesis import given, settings, strategies as st

from gwsurf import ComplexField, GridSpec, RealField, report_from_parts
from gwsurf.reporting import _unmasked, norms, worst
from gwsurf.sigma import unimodular_H_constancy_check
from memtrace import traced_peak


def test_report_fields():
    g = GridSpec(-1, 1, -1, 1, 5, 5)
    vals = np.zeros(g.shape)
    vals[2, 2] = 3.0
    rep = report_from_parts(g, [("only", vals, None)], details={"extra": 1.0})
    assert rep.grid == g
    assert rep.max_norm == 3.0
    assert rep.masked_points == 0
    assert [p.name for p in rep.parts] == ["only"]
    assert rep.parts[0].max_norm == 3.0
    assert rep.details == {"extra": 1.0}


def test_norms_respect_masks():
    g = GridSpec(0, 1, 0, 1, 3, 3)
    vals = np.ones(g.shape)
    vals[0, 0] = 100.0
    mask = np.zeros(g.shape, bool)
    mask[0, 0] = True
    mx, l2 = norms(vals, g, mask)
    assert mx == 1.0
    assert l2 == np.sqrt(8 * g.hx * g.hy)


def test_empty_selection_gives_zero():
    g = GridSpec(0, 1, 0, 1, 3, 3)
    mx, l2 = norms(np.ones(g.shape), g, np.ones(g.shape, bool))
    assert (mx, l2) == (0.0, 0.0)


def test_rings_leave_out_the_boundary():
    g = GridSpec(0, 1, 0, 1, 5, 5)
    vals = np.full(g.shape, 7.0)
    vals[2, 2] = 1.0
    mask = np.zeros(g.shape, bool)
    mask[0, 0] = True
    rep = report_from_parts(g, [("a", vals, mask)], exclude_rings=2)
    # only the center survives two rings; the ring is not counted as masked
    assert (rep.max_norm, rep.l2_norm) == (1.0, np.sqrt(g.hx * g.hy))
    assert rep.masked_points == 1
    empty = report_from_parts(g, [("a", vals, None)], exclude_rings=3)
    assert (empty.max_norm, empty.l2_norm, empty.masked_points) == (0.0, 0.0, 0)


def test_headline_is_worst_part():
    g = GridSpec(0, 1, 0, 1, 3, 3)
    a = np.full(g.shape, 0.5)
    b = np.full(g.shape, 2.0)
    rep = report_from_parts(g, [("a", a, None), ("b", b, None)])
    assert rep.max_norm == 2.0
    assert rep.parts[0].max_norm == 0.5


def test_headline_propagates_nan():
    # Python's max drops a NaN that follows a finite value
    g = GridSpec(0, 1, 0, 1, 3, 3)
    finite = np.ones(g.shape)
    broken = np.full(g.shape, np.nan)
    for parts in ([("a", finite, None), ("b", broken, None)],
                  [("b", broken, None), ("a", finite, None)]):
        rep = report_from_parts(g, parts)
        assert np.isnan(rep.max_norm) and np.isnan(rep.l2_norm)
        assert {p.name: p.max_norm for p in rep.parts}["a"] == 1.0


def test_worst():
    assert worst() == 0.0
    assert worst(0.5, 2.0, 1.0) == 2.0
    assert np.isnan(worst(1.0, np.nan)) and np.isnan(worst(np.nan, 1.0))
    assert worst(1.0, np.inf) == np.inf


# --- columns are read at their stored shape -----------------------------------

def _same(a, b) -> bool:
    """a and b have the same bits, or are both NaN (a NaN's payload may
    come from either of two NaN entries)."""
    return (np.isnan(a) and np.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


def _report_bits_equal(a, b) -> bool:
    return (a.masked_points == b.masked_points and a.details == b.details
            and _same(a.max_norm, b.max_norm) and _same(a.l2_norm, b.l2_norm)
            and [p.name for p in a.parts] == [p.name for p in b.parts]
            and all(_same(p.max_norm, q.max_norm) and _same(p.l2_norm, q.l2_norm)
                    for p, q in zip(a.parts, b.parts)))


def _reference_norms(values, grid, mask, rings):
    """The norms as boolean indexing of the expanded grid gives them, with
    the boundary rings marked in a grid-shaped mask."""
    excluded = np.ones(grid.shape, bool)
    excluded[rings:grid.nx - rings, rings:grid.ny - rings] = False
    if mask is not None:
        excluded |= np.broadcast_to(mask, grid.shape)
    absvals = np.broadcast_to(np.abs(values), grid.shape)[~excluded]
    if absvals.size == 0:
        return 0.0, 0.0
    return (float(np.max(absvals)),
            float(np.sqrt(np.sum(absvals.astype(float) ** 2) * grid.hx * grid.hy)))


_ENTRY = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e200, 5e-324]))


@st.composite
def _column_cases(draw):
    """(grid, column, its mask, rings): a real or complex column with NaN and
    infinite entries, a column mask, a grid-shaped mask (either may mark
    every point) or none, and 0 to 2 boundary rings, which may leave no
    interior."""
    nx, ny = draw(st.integers(3, 9)), draw(st.integers(3, 9))
    grid = GridSpec(-1.0, 1.0, -0.5, 0.75, nx, ny)
    column = np.array(draw(st.lists(_ENTRY, min_size=nx, max_size=nx)))[:, None]
    if draw(st.booleans()):
        column = column.astype(complex)
        column.imag = np.array(draw(st.lists(_ENTRY, min_size=nx, max_size=nx)))[:, None]
    shape = draw(st.sampled_from([None, (nx, 1), grid.shape]))
    mask = None
    if shape is not None:
        size = shape[0] * shape[1]
        flags = draw(st.one_of(st.lists(st.booleans(), min_size=size, max_size=size),
                               st.just([True] * size)))
        mask = np.array(flags).reshape(shape)
    return grid, column, mask, draw(st.integers(0, 2))


def _expanded(arr, grid):
    return None if arr is None else np.broadcast_to(arr, grid.shape).copy()


@given(_column_cases())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_column_norms_and_sums_keep_the_bits_of_the_expanded_grid(case):
    with np.errstate(all="ignore"):     # squares of huge entries overflow to inf
        _check_column_case(*case)


def _check_column_case(grid, column, mask, rings):
    full, full_mask = _expanded(column, grid), _expanded(mask, grid)
    want = _reference_norms(full, grid, full_mask, rings)
    if rings == 0:
        assert all(map(_same, norms(column, grid, mask), want))
        assert all(map(_same, norms(full, grid, full_mask), want))
    parts = [("v", column, mask), ("w", column * 0.5, None)]
    got = report_from_parts(grid, parts, exclude_rings=rings)
    expanded = report_from_parts(grid, [(n, _expanded(v, grid), _expanded(m, grid))
                                        for n, v, m in parts], exclude_rings=rings)
    assert _report_bits_equal(got, expanded)
    assert all(map(_same, (got.parts[0].max_norm, got.parts[0].l2_norm), want))
    # the sums over points that verify's runners take (run_roundtrip_fd,
    # the constraint residual's p mean and variance)
    a, b = _unmasked(np.abs(column), grid, mask), _unmasked(np.abs(full), grid, full_mask)
    assert a.tobytes() == b.tobytes()
    for reduce in (np.sum, np.mean, np.var):
        if a.size:
            assert _same(reduce(a), reduce(b))


@given(st.integers(3, 9), st.integers(3, 9),
       st.lists(st.floats(-1e3, 1e3), min_size=9, max_size=9),
       st.lists(st.booleans(), min_size=9, max_size=9))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_constant_h_check_keeps_the_bits_of_the_expanded_grid(nx, ny, hs, masked):
    grid = GridSpec(-1.0, 1.0, -0.5, 0.75, nx, ny)
    mask = np.array(masked[:nx])[:, None]
    mask[nx // 2] = False           # the check needs an unmasked point
    h = np.where(mask, 0.0, np.array(hs[:nx])[:, None])
    rho = np.where(mask, 0, np.exp(1j * grid.xs()[:, None]))
    got = unimodular_H_constancy_check(ComplexField._derived(grid, rho, mask),
                                       RealField._derived(grid, h, mask))
    want = unimodular_H_constancy_check(
        ComplexField(grid, _expanded(rho, grid), _expanded(mask, grid)),
        RealField(grid, _expanded(h, grid), _expanded(mask, grid)))
    assert _report_bits_equal(got, want)


def test_report_on_a_column_allocates_one_float_per_point():
    # the parent design OR-ed grid-shaped ring and part masks and took three
    # float copies of the expanded values; a column costs only its squares,
    # repeated once per unmasked point
    grid = GridSpec(-1, 1, -1, 1, 201, 201)
    x = grid.xs()[:, None]
    mask = np.abs(x) < 0.1
    values = np.where(mask, 0, x * np.exp(1j * x))
    rings = 2
    unmasked = np.count_nonzero(~mask[rings:-rings]) * (grid.ny - 2 * rings)
    report_from_parts(grid, [("a", values, mask)], exclude_rings=rings)
    peak = traced_peak(lambda: report_from_parts(grid, [("a", values, mask)],
                                                 exclude_rings=rings))
    assert peak <= 8 * unmasked + 16 * 2**10
