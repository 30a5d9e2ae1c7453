"""Residual reports and norm conventions."""
import numpy as np

from gwsurf import GridSpec, report_from_parts
from gwsurf.reporting import interior_ring_mask, norms, worst


def test_report_fields():
    g = GridSpec(-1, 1, -1, 1, 5, 5)
    vals = np.zeros(g.shape)
    vals[2, 2] = 3.0
    rep = report_from_parts(g, [("only", vals, None)], details={"extra": 1.0})
    assert rep.grid == g
    assert rep.max_norm == 3.0
    assert rep.masked_points == 0
    assert [p.name for p in rep.parts] == ["only"]
    assert rep.part("only").max_norm == 3.0
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


def test_interior_ring_mask():
    g = GridSpec(0, 1, 0, 1, 5, 5)
    ring = interior_ring_mask(g, 2)
    assert ring.sum() == 24          # only the center survives two rings
    assert not ring[2, 2]


def test_headline_is_worst_part():
    g = GridSpec(0, 1, 0, 1, 3, 3)
    a = np.full(g.shape, 0.5)
    b = np.full(g.shape, 2.0)
    rep = report_from_parts(g, [("a", a, None), ("b", b, None)])
    assert rep.max_norm == 2.0
    assert rep.part("a").max_norm == 0.5


def test_headline_propagates_nan():
    # Python's max drops a NaN that follows a finite value
    g = GridSpec(0, 1, 0, 1, 3, 3)
    finite = np.ones(g.shape)
    broken = np.full(g.shape, np.nan)
    for parts in ([("a", finite, None), ("b", broken, None)],
                  [("b", broken, None), ("a", finite, None)]):
        rep = report_from_parts(g, parts)
        assert np.isnan(rep.max_norm) and np.isnan(rep.l2_norm)
        assert rep.part("a").max_norm == 1.0


def test_worst():
    assert worst() == 0.0
    assert worst(0.5, 2.0, 1.0) == 2.0
    assert np.isnan(worst(1.0, np.nan)) and np.isnan(worst(np.nan, 1.0))
    assert worst(1.0, np.inf) == np.inf
