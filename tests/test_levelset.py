"""Level-set fields: values, their nodal interpolant, and the nondegeneracy probe."""

import numpy as np
import pytest

from savfem.config import CELL_BOX, SPHERE_BOX
from savfem.levelset import LevelSetField, idealized_cell, interpolate_p1, sphere
from savfem.mesh import build_active_mesh, build_mesh


def sampled_gradient_slope(levelset, box, band, n_samples=20000, seed=0) -> float:
    """Minimum sampled |grad phi| over points of the box with |phi| <= band,
    the nondegeneracy probe of the built-in fields; +inf when no sample
    lands in the band.

    The gradient is the fourth-order central difference
    (8 (f(x+s) - f(x-s)) - (f(x+2s) - f(x-2s))) / 12s, accurate to about
    5e-13 on the unit sphere at s = 1e-3; the two-point difference is
    limited to about 1e-10 by round-off at any step.
    """
    box = np.asarray(box, dtype=float).reshape(3, 2)
    rng = np.random.default_rng(seed)
    pts = box[:, 0] + rng.random((n_samples, 3)) * (box[:, 1] - box[:, 0])
    pts = pts[np.abs(levelset.evaluate(pts)) <= band]
    if len(pts) == 0:
        return float("inf")
    f, step = levelset.evaluate, 1e-3
    g = np.column_stack(
        [
            (8.0 * (f(pts + d) - f(pts - d)) - (f(pts + 2 * d) - f(pts - 2 * d))) / (12.0 * step)
            for d in step * np.eye(3)
        ]
    )
    return float(np.min(np.linalg.norm(g, axis=1)))


def test_sphere_signed_distance_values():
    ls = sphere(1.0)
    pts = np.array([[2.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, -1.0]])
    assert np.allclose(ls.evaluate(pts), [1.0, -0.5, 0.0])


def test_sphere_radius_and_center():
    ls = sphere(2.0, center=(1.0, 0.0, 0.0))
    assert ls.evaluate(np.array([[3.0, 0.0, 0.0]]))[0] == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        sphere(0.0)


def test_cell_zero_set_reference_points():
    # On x1 = 0 the field is x2^2 + 4 x3^2 - 1: an ellipse with semi-axes 1, 0.5.
    ls = idealized_cell()
    pts = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.5], [2.0, 0.0, 0.0]])
    assert np.allclose(ls.evaluate(pts), 0.0, atol=1e-14)


def test_sampled_gradient_slope_bounds():
    slope = sampled_gradient_slope(sphere(1.0), SPHERE_BOX, band=0.2)
    assert slope == pytest.approx(1.0, abs=1e-12)
    slope_cell = sampled_gradient_slope(idealized_cell(), CELL_BOX, band=0.2)
    assert 0.0 < slope_cell < 10.0
    far = sampled_gradient_slope(sphere(1.0), [[50, 51], [50, 51], [50, 51]], band=0.1)
    assert far == np.inf


def test_interpolate_p1_matches_nodes_and_validates():
    mesh = build_mesh(sphere(1.0), SPHERE_BOX, 2)
    vals = interpolate_p1(sphere(1.0), mesh)
    assert vals.shape == (len(mesh.nodes),)
    assert np.allclose(vals, np.linalg.norm(mesh.nodes, axis=1) - 1.0)
    bad = LevelSetField("nan", lambda p: np.full(len(p), np.nan))
    with pytest.raises(ValueError, match="finite"):
        interpolate_p1(bad, mesh)
    short = LevelSetField("short", lambda p: np.zeros(len(p) - 1))
    with pytest.raises(ValueError, match="wrong shape"):
        interpolate_p1(short, mesh)
    # build_active_mesh shifts exact zeros in the interpolant it got, which
    # must not be the evaluator's own array
    held = np.linalg.norm(mesh.nodes, axis=1) - 1.0
    held[np.argmin(np.abs(held))] = 0.0
    before = held.copy()
    build_active_mesh(mesh, LevelSetField("held", lambda p: held), geometry_divisions=1)
    np.testing.assert_array_equal(held, before)
