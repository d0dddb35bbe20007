"""The single-tet oracle of tests/cutcells.py against hand-computed cuts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutcells import (
    TetClass,
    classify_tet,
    extract_cut_polygon,
    surface_quadrature,
)

UNIT_TET = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)


def test_classify_basic():
    assert classify_tet([1.0, 2.0, 3.0, 0.5]) is TetClass.POSITIVE
    assert classify_tet([-1.0, -2.0, -3.0, -0.5]) is TetClass.NEGATIVE
    assert classify_tet([-1.0, 2.0, 3.0, 0.5]) is TetClass.CUT


def test_classify_zero_counts_as_contact():
    # A zero value means the surface touches the tet.
    assert classify_tet([0.0, 1.0, 1.0, 1.0]) is TetClass.CUT
    assert classify_tet([0.0, -1.0, -1.0, -1.0]) is TetClass.CUT
    assert classify_tet([0.0, 0.0, 0.0, 0.0]) is TetClass.CUT


def test_classify_shape_check():
    with pytest.raises(ValueError):
        classify_tet([1.0, 2.0, 3.0])


@given(
    vals=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=4, max_size=4
    ),
    perm=st.permutations(range(4)),
)
@settings(max_examples=200, deadline=None)
def test_classify_permutation_invariant(vals, perm):
    v = np.asarray(vals)
    assert classify_tet(v[list(perm)]) is classify_tet(v)


def test_triangle_cut_midplane():
    # phi = x - 0.5 cuts off vertex 1: triangle at x = 0.5.
    vals = UNIT_TET[:, 0] - 0.5
    poly = extract_cut_polygon(UNIT_TET, vals)
    assert poly is not None
    assert len(poly.vertices) == 3
    assert np.allclose(poly.vertices[:, 0], 0.5)
    # Crossings sit at the midpoints of the three edges out of vertex 1.
    expected = {(0.5, 0.0, 0.0), (0.5, 0.5, 0.0), (0.5, 0.0, 0.5)}
    got = {tuple(np.round(v, 12)) for v in poly.vertices}
    assert got == expected
    assert np.allclose(poly.bary.sum(axis=1), 1.0)
    assert np.allclose(poly.normal, [1.0, 0.0, 0.0])


def test_quad_cut_two_two_split():
    # phi = x + y - 0.5 separates {0,3} from {1,2}: a planar quadrilateral.
    vals = UNIT_TET[:, 0] + UNIT_TET[:, 1] - 0.5
    poly = extract_cut_polygon(UNIT_TET, vals)
    assert poly is not None
    assert len(poly.vertices) == 4
    assert np.allclose(poly.vertices[:, 0] + poly.vertices[:, 1], 0.5)
    assert len(poly.triangles) == 2
    # Fan triangulation must tile the quad without repeating a diagonal.
    areas = []
    for tri in poly.triangles:
        tv = poly.vertices[tri]
        areas.append(0.5 * np.linalg.norm(np.cross(tv[1] - tv[0], tv[2] - tv[0])))
    assert all(a > 0 for a in areas)


def test_polygon_points_lie_on_zero_level():
    rng = np.random.default_rng(7)
    for _ in range(50):
        coords = rng.normal(size=(4, 3))
        vals = rng.normal(size=4)
        poly = extract_cut_polygon(coords, vals)
        if poly is None:
            assert np.all(vals > 0) or np.all(vals < 0) or np.all(vals == 0)
            continue
        # P1 interpolation of the nodal values at the crossings is zero.
        interp = poly.bary @ vals
        assert np.allclose(interp, 0.0, atol=1e-10 * np.max(np.abs(vals)))
        recon = poly.bary @ coords
        assert np.allclose(recon, poly.vertices, atol=1e-12)


def test_uncut_returns_none():
    assert extract_cut_polygon(UNIT_TET, [1.0, 2.0, 0.5, 1.5]) is None
    assert extract_cut_polygon(UNIT_TET, [-1.0, -2.0, -0.5, -1.5]) is None
    # Exact zeros are perturbed to positive: surface contact only -> None.
    assert extract_cut_polygon(UNIT_TET, [0.0, 1.0, 1.0, 1.0]) is None


def test_surface_quadrature_area_and_bary():
    vals = UNIT_TET[:, 0] - 0.5
    poly = extract_cut_polygon(UNIT_TET, vals)
    pts, w, bary = surface_quadrature(poly)
    # Cross-section triangle with legs 0.5: area 1/8.
    assert w.sum() == pytest.approx(0.125, rel=1e-14)
    assert np.all(w > 0)
    assert np.allclose(bary.sum(axis=1), 1.0)
    assert np.allclose(pts[:, 0], 0.5)
    # Quadrature-weighted centroid equals the triangle centroid.
    centroid = (w @ pts) / w.sum()
    assert np.allclose(centroid, poly.vertices.mean(axis=0), atol=1e-14)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_extraction_properties_random_tets(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    coords = rng.normal(size=(4, 3))
    # Reject nearly flat tets so the P1 gradient is well conditioned.
    vol = abs(np.linalg.det(coords[1:] - coords[0])) / 6.0
    if vol < 1e-3:
        return
    vals = rng.normal(size=4)
    poly = extract_cut_polygon(coords, vals)
    if poly is None:
        return
    pts, w, bary = surface_quadrature(poly)
    assert np.all(w >= 0)
    assert w.sum() > 0
    # The quadrature points interpolate to zero level too.
    assert np.allclose(bary @ vals, 0.0, atol=1e-9 * np.max(np.abs(vals)))
    assert np.allclose(np.linalg.norm(poly.normal), 1.0, atol=1e-12)
