"""Level-set fields: values, gradients, and the nondegeneracy probe."""

import numpy as np
import pytest

from savfem.config import CELL_BOX, SPHERE_BOX
from savfem.levelset import (
    from_callable,
    idealized_cell,
    interpolate_p1,
    sphere,
)
from savfem.mesh import build_mesh


def sampled_gradient_slope(levelset, box, band, n_samples=20000, seed=0) -> float:
    """Minimum sampled |grad phi| over points of the box with |phi| <= band,
    the nondegeneracy probe of the built-in fields; +inf when no sample
    lands in the band."""
    box = np.asarray(box, dtype=float).reshape(3, 2)
    rng = np.random.default_rng(seed)
    pts = box[:, 0] + rng.random((n_samples, 3)) * (box[:, 1] - box[:, 0])
    phi = levelset.evaluate(pts)
    mask = np.abs(phi) <= band
    if not np.any(mask):
        return float("inf")
    g = levelset.gradient(pts[mask])
    return float(np.min(np.linalg.norm(g, axis=1)))


def test_sphere_signed_distance_values():
    ls = sphere(1.0)
    pts = np.array([[2.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, -1.0]])
    assert np.allclose(ls.evaluate(pts), [1.0, -0.5, 0.0])


def test_sphere_gradient_is_unit_radial():
    ls = sphere(1.0)
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(50, 3))
    g = ls.gradient(pts)
    assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)
    assert np.allclose(g, pts / np.linalg.norm(pts, axis=1)[:, None], atol=1e-12)


def test_sphere_radius_and_center():
    ls = sphere(2.0, center=(1.0, 0.0, 0.0))
    assert ls.evaluate(np.array([[3.0, 0.0, 0.0]]))[0] == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        sphere(0.0)


def test_cell_gradient_matches_finite_differences():
    ls = idealized_cell()
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(40, 3))
    g = ls.gradient(pts)
    step = 1e-6
    for k in range(3):
        dp = np.zeros(3)
        dp[k] = step
        fd = (ls.evaluate(pts + dp) - ls.evaluate(pts - dp)) / (2 * step)
        assert np.allclose(g[:, k], fd, atol=1e-7)


def test_cell_zero_set_reference_points():
    # On x1 = 0 the field is x2^2 + 4 x3^2 - 1: an ellipse with semi-axes 1, 0.5.
    ls = idealized_cell()
    pts = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.5], [2.0, 0.0, 0.0]])
    assert np.allclose(ls.evaluate(pts), 0.0, atol=1e-14)


def test_fd_gradient_fallback():
    ls = from_callable(lambda p: p[:, 0] ** 2 + 3.0 * p[:, 2], name="quadratic")
    pts = np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 2.0]])
    g = ls.gradient(pts)
    exact = np.column_stack([2.0 * pts[:, 0], np.zeros(2), np.full(2, 3.0)])
    assert np.allclose(g, exact, atol=1e-8)


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
    bad = from_callable(lambda p: np.full(len(p), np.nan))
    with pytest.raises(ValueError, match="finite"):
        interpolate_p1(bad, mesh)
