"""Background band mesh and active-mesh construction.

Oracles: closed-form mesh sizes h_l = base_edge / 2^l, exact volume
partition of cubes into six Kuhn tetrahedra, single-tet polygon extraction
from tests/cutcells.py as the reference for the batched extraction, the
per-point quadrature tables, the per-sub-tetrahedron LAPACK geometry and
the circumscribed diameters of tests/pointwise.py, the exact sphere
area 4*pi as the limit of the discrete area, and the topology of a closed
surface of genus 0 (every edge in two triangles, V - E + F = 2).
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from cutcells import extract_cut_polygon
from pointwise import (
    circumdiameters,
    cut_edge_points,
    lapack_geometry,
    lattice_stage,
    patch_polygons,
    patch_stage,
    point_bary,
    point_coords,
    point_elem,
    point_patch,
    point_weights,
    poly_elem,
    tri_bary,
    tri_elem,
    two_step_poly_bary,
)
from savfem.assembly import assemble_load
from savfem.config import CELL_BOX, SPHERE_BOX
from savfem.levelset import idealized_cell, interpolate_p1, sphere
from savfem.mesh import _SUBTETS, MeshError, _lattice_bary, build_active_mesh, build_mesh
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
    sq_elem, sq_bary, sq_weights = point_elem(active), point_bary(active), point_weights(active)
    sq_patch = point_patch(active)
    nq = len(triangle_bary_rule()[1])
    assert np.all(np.diff(active.patch_elem) >= 0)
    # in each rule row the points follow the triangles, which are sorted by
    # patch and so by element
    assert np.all(np.diff(sq_elem.reshape(nq, -1), axis=1) >= 0)
    assert np.all(np.diff(sq_patch.reshape(nq, -1), axis=1) >= 0)
    patch_offsets = np.concatenate([[0], np.cumsum(np.bincount(active.patch_elem))])
    assert len(patch_offsets) == active.n_elements + 1
    assert patch_offsets[-1] == active.n_patches
    assert len(sq_patch) == len(sq_weights)
    # the points of a patch belong to the patch's element, and every patch
    # and every element has points
    assert np.array_equal(sq_elem, active.patch_elem[sq_patch])
    assert np.bincount(sq_patch, minlength=active.n_patches).min() > 0
    assert np.bincount(sq_elem, minlength=active.n_elements).min() > 0
    # each surface triangle carries the same number of points, and the B_P
    # rows of its three vertices are nonzero only on its element's dofs
    assert len(sq_weights) == nq * len(active.tri_index)
    nonzero = active.poly_interp.copy()
    nonzero.eliminate_zeros()
    row_nnz = np.diff(nonzero.indptr)
    np.testing.assert_array_equal((tri_bary(active) != 0.0).sum(axis=2), row_nnz[active.tri_index])
    assert np.allclose(sq_bary.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(sq_weights >= 0)
    # Quadrature barycentrics reproduce the physical points through the
    # element map (P1 geometric consistency).
    coords = active.dof_coords[active.elem_dofs[sq_elem]]
    recon = np.einsum("qi,qij->qj", sq_bary, coords)
    assert np.allclose(recon, point_coords(active), atol=1e-12)


def test_quadrature_points_against_einsum_formulas(sphere_l2, sphere_l2_flat):
    """A load of a callable integrand evaluates it, one rule row at a time,
    at the einsum formula's points, built for the call: the mesh caches
    nothing for it."""
    rule_bary, _ = triangle_bary_rule()
    for active in (sphere_l2, sphere_l2_flat):
        fresh = dataclasses.replace(active, _cache={})
        seen = []
        assemble_load(fresh, lambda p: seen.append(p) or p[:, 0])
        points = np.einsum("qi,tij->qtj", rule_bary, fresh.polygon_points[fresh.tri_index])
        np.testing.assert_allclose(np.stack(seen), points, rtol=0.0, atol=1e-15)
        assert fresh._cache == {}
        assert fresh.poly_interp.shape == (len(fresh.poly_bary), fresh.n_dofs)


def test_stab_metric_trace_is_volume(sphere_l2, sphere_l2_flat):
    # tr(sum vol_s n_s n_s^T) = sum vol_s: the lattice partitions each tet.
    for active in (sphere_l2, sphere_l2_flat):
        tr = np.einsum("eii->e", active.stab_metric)
        assert np.allclose(tr, active.volumes, rtol=1e-12)
        # Metric is symmetric positive semidefinite.
        assert np.allclose(active.stab_metric, active.stab_metric.transpose(0, 2, 1))
        eig = np.linalg.eigvalsh(active.stab_metric)
        assert np.all(eig > -1e-15)


_LEVELSETS = {"sphere_l2": sphere(1.0), "sphere_l2_flat": sphere(1.0), "cell_l2": idealized_cell()}


@pytest.mark.parametrize("mesh_name", ["sphere_l2", "sphere_l2_flat", "cell_l2"])
def test_closed_form_geometry_matches_lapack_oracle(mesh_name, request):
    """Patch normals from the parent gradients, sub-volumes |T| / S and the
    stabilization metric against a LAPACK solve and determinant on the
    coordinates of every lattice sub-tetrahedron."""
    active, levelset = request.getfixturevalue(mesh_name), _LEVELSETS[mesh_name]
    unit, sub_vols, sub_cut = lapack_geometry(active, levelset)
    _, patch_elem, _, normals, _ = patch_stage(active, levelset)
    np.testing.assert_array_equal(patch_elem, active.patch_elem)
    np.testing.assert_allclose(normals, unit[sub_cut], rtol=0.0, atol=1e-12)
    n_sub = sub_cut.shape[1]
    np.testing.assert_allclose(sub_vols, np.repeat(active.volumes[:, None] / n_sub, n_sub, axis=1), rtol=1e-12)
    metric = np.einsum("es,esi,esj->eij", sub_vols, unit, unit)
    np.testing.assert_allclose(active.stab_metric, metric, rtol=0.0, atol=1e-12 * np.abs(metric).max())


@pytest.mark.parametrize("mesh_name", ["sphere_l2", "sphere_l2_flat", "cell_l2"])
def test_polygon_vertices_match_the_two_step_map(mesh_name, request):
    """Vertices read from the two lattice points of their edge equal, bit
    for bit and in every triangle's own element, the patch barycentrics
    mapped through the patch's lattice."""
    active = request.getfixturevalue(mesh_name)
    oracle = two_step_poly_bary(active, _LEVELSETS[mesh_name])
    bary = tri_bary(active)
    np.testing.assert_array_equal(bary, oracle)
    assert bary.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("mesh_name", ["sphere_l2", "sphere_l2_flat", "cell_l2"])
def test_polygon_interp_is_the_vertex_operator(mesh_name, request):
    """``poly_interp`` is B_P on a view of ``poly_bary`` with the dofs of the
    parent that computed each vertex as int32 columns, and
    ``polygon_points`` are the vertices on the patch edges."""
    active = request.getfixturevalue(mesh_name)
    n_v = len(active.poly_bary)
    cols = active.elem_dofs[poly_elem(active)].reshape(-1)
    oracle = sp.csr_matrix(
        (active.poly_bary.reshape(-1), cols, np.arange(0, 4 * n_v + 1, 4)), shape=(n_v, active.n_dofs)
    )
    b = active.poly_interp
    assert b.format == "csr" and b.shape == oracle.shape and b.indices.dtype == np.int32
    np.testing.assert_array_equal(b.indptr, oracle.indptr)
    np.testing.assert_array_equal(b.indices, oracle.indices)
    assert np.shares_memory(b.data, active.poly_bary)
    points = active.polygon_points
    np.testing.assert_array_equal(points, oracle @ active.dof_coords)
    oracle_points = cut_edge_points(active, _LEVELSETS[mesh_name])
    np.testing.assert_allclose(
        points[active.tri_index], oracle_points, rtol=0.0, atol=1e-14 * np.abs(oracle_points).max()
    )


@pytest.mark.parametrize("mesh_name", ["sphere_l2", "cell_l2"])
def test_quadrilaterals_run_around_the_faces(mesh_name, request):
    """Consecutive vertices of a cut quadrilateral lie on edges that share
    one tetrahedron vertex, so they share a face, and its two fan triangles
    face the same way: no bow-tie."""
    active = request.getfixturevalue(mesh_name)
    vals = patch_stage(active, _LEVELSETS[mesh_name])[4]
    sub_bary, poly_patch, tri_index, tri_offsets = patch_polygons(vals)
    np.testing.assert_array_equal(tri_offsets, active.tri_patch_offsets)
    quads = np.flatnonzero(np.bincount(poly_patch) == 4)
    assert len(quads) > 0
    first = tri_offsets[quads]
    # the fan of a quadrilateral a b c d is a b c, a c d
    for tri in (tri_index, active.tri_index):
        np.testing.assert_array_equal(tri[first + 1][:, :2], tri[first][:, [0, 2]])
    slots = np.column_stack([tri_index[first], tri_index[first + 1, 2]])
    ends = sub_bary[slots] > 0.0  # (n_q, 4, 4) the two ends of each crossing edge
    assert np.all(ends.sum(axis=2) == 2)
    assert np.all((ends & np.roll(ends, -1, axis=1)).sum(axis=2) == 1)

    p = active.polygon_points[np.column_stack([active.tri_index[first], active.tri_index[first + 1, 2]])]
    n1 = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    n2 = np.cross(p[:, 2] - p[:, 0], p[:, 3] - p[:, 0])
    cos = np.einsum("qx,qx->q", n1, n2) / (np.linalg.norm(n1, axis=1) * np.linalg.norm(n2, axis=1))
    assert cos.min() > 0.0


@pytest.mark.parametrize("mesh_name", ["sphere_l2", "sphere_l2_flat", "cell_l2"])
def test_surface_tables_are_per_triangle(mesh_name, request):
    """Each patch has one or two triangles, delimited by the offsets, and
    the mesh holds no per-point table: no array has a length of 6 T."""
    active = request.getfixturevalue(mesh_name)
    n_tri = len(active.tri_index)
    offsets = active.tri_patch_offsets
    assert len(offsets) == active.n_patches + 1
    assert offsets[0] == 0 and offsets[-1] == n_tri
    assert set(np.unique(np.diff(offsets))) <= {1, 2}
    arrays = [getattr(active, f.name) for f in dataclasses.fields(active)]
    lengths = [len(a) for a in arrays if isinstance(a, np.ndarray)]
    assert n_tri in lengths
    assert len(triangle_bary_rule()[1]) * n_tri not in lengths


@pytest.mark.parametrize("mesh_name", ["sphere_l2", "cell_l2"])
def test_surface_is_one_closed_triangulation(mesh_name, request):
    """Gamma_h is one closed triangulation of genus 0: every edge lies in
    two triangles, no triangle repeats a vertex, V - E + F = 2, and each
    vertex's B_P row is, bit for bit, the crossing that the single-tet
    oracle computes in every patch that holds the vertex."""
    active, levelset = request.getfixturevalue(mesh_name), _LEVELSETS[mesh_name]
    tri = active.tri_index
    assert np.all((tri[:, 0] != tri[:, 1]) & (tri[:, 1] != tri[:, 2]) & (tri[:, 2] != tri[:, 0]))
    edges = np.sort(tri[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
    _, per_edge = np.unique(edges, axis=0, return_counts=True)
    assert np.all(per_edge == 2)
    assert np.array_equal(np.unique(tri), np.arange(len(active.poly_bary)))
    assert len(active.poly_bary) - len(per_edge) + len(tri) == 2

    sub_coords, sub_vals, sub_cut, sub_ids = lattice_stage(active, levelset)
    patch_sub = np.nonzero(sub_cut)[1]
    lattice = _lattice_bary(active.geometry_divisions)[_SUBTETS[active.geometry_divisions]]
    bary, offsets = tri_bary(active), active.tri_patch_offsets
    for p, (coords, vals, ids) in enumerate(zip(sub_coords[sub_cut], sub_vals[sub_cut], sub_ids[sub_cut])):
        oracle = extract_cut_polygon(coords, vals, keys=ids).bary @ lattice[patch_sub[p]]
        rows = bary[offsets[p] : offsets[p + 1]].reshape(-1, 4)
        np.testing.assert_array_equal(np.unique(rows, axis=0), np.unique(oracle, axis=0))


def test_flat_geometry_matches_single_tet_extraction(sphere_l2_flat):
    """Batched extraction (divisions=1) equals the single-tet oracle."""
    active = sphere_l2_flat
    elem_nodes = active.active_nodes[active.elem_dofs]
    vals = interpolate_p1(sphere(1.0), active.mesh)[elem_nodes]
    coords = active.mesh.nodes[elem_nodes]
    triangle_elem = tri_elem(active)
    for e in range(0, active.n_elements, 37):
        poly = extract_cut_polygon(coords[e], vals[e])
        assert poly is not None
        sel = np.unique(active.tri_index[triangle_elem == e])
        assert np.allclose(np.sort(active.polygon_points[sel], axis=0),
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
    assert np.array_equal(point_coords(a1), point_coords(a2))
    assert np.array_equal(a1.tri_areas, a2.tri_areas)
    assert np.array_equal(a1.patch_gram, a2.patch_gram)


def test_geometry_divisions_validation(sphere_l2):
    with pytest.raises(ValueError, match="geometry_divisions"):
        build_active_mesh(sphere_l2.mesh, levelset=sphere(1.0), geometry_divisions=3)


def test_diameters_uniform_kuhn(sphere_l2_forms):
    # Kuhn tets of a cube of edge h have circumscribed diameter sqrt(3)*h,
    # the stabilization scale.
    d = circumdiameters(sphere_l2_forms.active)
    assert np.allclose(d, sphere_l2_forms.h_stab, rtol=1e-12)
