"""Background band mesh and active-mesh construction.

Oracles: closed-form mesh sizes h_l = base_edge / 2^l, exact volume
partition of cubes into six Kuhn tetrahedra, single-tet polygon extraction
from tests/cutcells.py as the reference for the batched extraction, and the
exact sphere area 4*pi as the limit of the discrete area.
"""

import dataclasses

import numpy as np
import pytest

from cutcells import extract_cut_polygon
from savfem.config import CELL_BOX, SPHERE_BOX
from savfem.levelset import idealized_cell, interpolate_p1, sphere
from savfem.mesh import MeshError, build_active_mesh, build_mesh
from savfem.quadrature import triangle_bary_rule


def test_sphere_mesh_size_formula():
    # Box edge 10/3 over 2x2x2 base cubes: h_l = (10/3) / 2^(l+1).
    for level in (1, 2, 3):
        mesh = build_mesh(sphere(1.0), SPHERE_BOX, level)
        assert mesh.h == pytest.approx((10.0 / 3.0) / 2 ** (level + 1), rel=1e-14)
        assert mesh.divisions == (2 ** (level + 1),) * 3
    assert build_mesh(sphere(1.0), SPHERE_BOX, 3).h == pytest.approx(5.0 / 24.0, rel=1e-14)


def test_cell_mesh_base_divisions():
    # Box 4 x 8/3 x 8/3 has common edge 4/3: base 3x2x2 cubes.
    mesh = build_mesh(idealized_cell(), CELL_BOX, 1)
    assert mesh.divisions == (6, 4, 4)
    assert mesh.h == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_band_volume_partition():
    # Six Kuhn tets per cube, each of volume h^3/6, no overlaps.
    mesh = build_mesh(sphere(1.0), SPHERE_BOX, 2)
    assert len(mesh.tets) % 6 == 0
    coords = mesh.nodes[mesh.tets]
    vols = np.abs(np.linalg.det(coords[:, 1:] - coords[:, :1])) / 6.0
    assert np.allclose(vols, mesh.h**3 / 6.0, rtol=1e-12)
    n_cubes = len(mesh.tets) // 6
    assert vols.sum() == pytest.approx(n_cubes * mesh.h**3, rel=1e-12)


def test_mesh_determinism():
    m1 = build_mesh(sphere(1.0), SPHERE_BOX, 2)
    m2 = build_mesh(sphere(1.0), SPHERE_BOX, 2)
    assert np.array_equal(m1.nodes, m2.nodes)
    assert np.array_equal(m1.tets, m2.tets)


def test_band_contains_surface():
    mesh = build_mesh(sphere(1.0), SPHERE_BOX, 2)
    phi = np.linalg.norm(mesh.nodes, axis=1) - 1.0
    # Every tet with a sign change must be in the band (trivially true here),
    # and the band must not extend far from the surface.
    assert np.min(np.abs(phi)) < mesh.h
    assert np.max(np.abs(phi)) < 10 * mesh.h


def test_missing_surface_raises():
    with pytest.raises(MeshError, match="intersect"):
        build_mesh(sphere(0.01, center=(50.0, 0.0, 0.0)), SPHERE_BOX, 1)
    with pytest.raises(ValueError, match="level"):
        build_mesh(sphere(1.0), SPHERE_BOX, 0)


def test_active_mesh_dof_numbering(sphere_l2):
    active = sphere_l2
    elem_nodes = active.active_nodes[active.elem_dofs]
    assert active.n_dofs == len(np.unique(elem_nodes))
    assert np.array_equal(np.sort(active.active_nodes), active.active_nodes)
    assert active.elem_dofs.min() == 0
    assert active.elem_dofs.max() == active.n_dofs - 1
    assert np.array_equal(active.mesh.nodes[elem_nodes], active.dof_coords[active.elem_dofs])


def test_active_mesh_grouping_invariants(sphere_l2):
    active = sphere_l2
    assert np.all(np.diff(active.patch_elem) >= 0)
    assert np.all(np.diff(active.sq_elem) >= 0)
    assert np.all(np.diff(active.sq_patch_offsets) > 0)
    patch_offsets = np.concatenate([[0], np.cumsum(np.bincount(active.patch_elem))])
    assert len(patch_offsets) == active.n_elements + 1
    assert patch_offsets[-1] == active.n_patches
    assert active.sq_patch_offsets[-1] == len(active.sq_weights)
    # the points of a patch belong to the patch's element, and every
    # element has points
    sq_patch = np.repeat(np.arange(active.n_patches), np.diff(active.sq_patch_offsets))
    assert np.array_equal(active.sq_elem, active.patch_elem[sq_patch])
    assert np.bincount(active.sq_elem, minlength=active.n_elements).min() > 0
    # each surface triangle carries the same number of points
    nq = len(triangle_bary_rule()[1])
    assert len(active.sq_weights) == nq * len(active.tri_index)
    assert np.array_equal(active.poly_elem[active.tri_index[:, 0]], active.sq_elem[::nq])
    assert np.allclose(active.sq_bary.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(active.sq_weights >= 0)
    # Quadrature barycentrics reproduce the physical points through the
    # element map (P1 geometric consistency).
    coords = active.dof_coords[active.elem_dofs[active.sq_elem]]
    recon = np.einsum("qi,qij->qj", active.sq_bary, coords)
    assert np.allclose(recon, active.sq_points, atol=1e-12)


def test_quadrature_points_against_einsum_formulas(sphere_l2, sphere_l2_flat):
    """sq_bary, and sq_points built on first access, equal the einsum
    formulas that evaluated both eagerly."""
    rule_bary, _ = triangle_bary_rule()
    for active in (sphere_l2, sphere_l2_flat):
        bary = np.einsum("qi,tif->tqf", rule_bary, active.poly_bary[active.tri_index])
        np.testing.assert_allclose(active.sq_bary, bary.reshape(-1, 4), rtol=0.0, atol=1e-15)

        fresh = dataclasses.replace(active, _cache={})
        assert "sq_points" not in fresh._cache
        points = np.einsum("qi,tij->tqj", rule_bary, fresh.poly_points[fresh.tri_index])
        np.testing.assert_allclose(fresh.sq_points, points.reshape(-1, 3), rtol=0.0, atol=1e-15)
        assert fresh.sq_points is fresh._cache["sq_points"]


def test_stab_metric_trace_is_volume(sphere_l2, sphere_l2_flat):
    # tr(sum vol_s n_s n_s^T) = sum vol_s: the lattice partitions each tet.
    for active in (sphere_l2, sphere_l2_flat):
        tr = np.einsum("eii->e", active.stab_metric)
        assert np.allclose(tr, active.volumes, rtol=1e-12)
        # Metric is symmetric positive semidefinite.
        assert np.allclose(active.stab_metric, active.stab_metric.transpose(0, 2, 1))
        eig = np.linalg.eigvalsh(active.stab_metric)
        assert np.all(eig > -1e-15)


def test_flat_geometry_matches_single_tet_extraction(sphere_l2_flat):
    """Batched extraction (divisions=1) equals the single-tet oracle."""
    active = sphere_l2_flat
    elem_nodes = active.active_nodes[active.elem_dofs]
    vals = interpolate_p1(sphere(1.0), active.mesh)[elem_nodes]
    coords = active.mesh.nodes[elem_nodes]
    for e in range(0, active.n_elements, 37):
        poly = extract_cut_polygon(coords[e], vals[e])
        assert poly is not None
        sel = active.poly_elem == e
        assert np.allclose(np.sort(active.poly_points[sel], axis=0),
                           np.sort(poly.vertices, axis=0), atol=1e-12)


def test_divisions_2_refines_same_surface(sphere_l2, sphere_l2_flat):
    # Same band, same dofs; the finer lattice only sharpens the geometry.
    assert sphere_l2.n_dofs == sphere_l2_flat.n_dofs
    assert sphere_l2.n_patches > sphere_l2_flat.n_patches
    exact = 4.0 * np.pi
    assert abs(sphere_l2.area - exact) < abs(sphere_l2_flat.area - exact)


def test_area_converges_second_order():
    errs = []
    for level in (1, 2, 3):
        mesh = build_mesh(sphere(1.0), SPHERE_BOX, level)
        active = build_active_mesh(mesh, levelset=sphere(1.0))
        errs.append(abs(active.area - 4.0 * np.pi))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) > 1.7


def test_active_mesh_determinism():
    ls = sphere(1.0)
    mesh = build_mesh(ls, SPHERE_BOX, 2)
    a1 = build_active_mesh(mesh, levelset=ls)
    a2 = build_active_mesh(mesh, levelset=ls)
    assert np.array_equal(a1.sq_points, a2.sq_points)
    assert np.array_equal(a1.sq_weights, a2.sq_weights)
    assert np.array_equal(a1.patch_tangential_grads, a2.patch_tangential_grads)


def test_geometry_divisions_validation(sphere_l2):
    with pytest.raises(ValueError, match="geometry_divisions"):
        build_active_mesh(sphere_l2.mesh, levelset=sphere(1.0), geometry_divisions=3)


def test_diameters_uniform_kuhn(sphere_l2):
    # Kuhn tets of a cube of edge h have circumscribed diameter sqrt(3)*h.
    h = sphere_l2.mesh.h
    assert np.allclose(sphere_l2.diameters, np.sqrt(3.0) * h, rtol=1e-12)
