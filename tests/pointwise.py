"""Tables the mesh no longer stores or never forms, rebuilt for the tests:
the parent element of each polygon vertex and of each triangle, the
coordinates of each triangle's vertices in its own element, the oracles
for the polygon-vertex operators of ``savfem.assembly``, for
the per-patch Gram tables, for the closed-form cut geometry and for the
polygon vertices read straight from the lattice.

The mesh stores the surface triangles and their areas; ``savfem.assembly``
applies the surface rule to them in the rule-major order: of T triangles,
point k T + t is rule point k of triangle t, at the rule's barycentric
combination of the triangle's polygon vertices ``tri_index[t]``, with the
rule weight times the triangle's area.  A vertex is stored once, in the
parent coordinates of the patch that computed it; a triangle of another
parent reads its coordinates as the vertex's B_P row at that parent's
dofs.  These helpers form, point by point in that order, the parent
barycentric coordinates, parent elements, physical coordinates and
weights of the surface quadrature points, and the patch of each point:
the tables the mesh once stored, there in triangle-major order, with each
patch's points contiguous.  ``savfem.assembly`` forms the point values a
block of triangles at a time and keeps only their per-triangle integrals
and vertex loads; ``interpolate_at_surface_qp``, ``triangle_integrals`` and
``triangle_loads`` form them for all points and reduce them at once.

The classification stage of ``build_active_mesh``, re-run on an active
mesh's background mesh, gives the level-set values of every lattice
sub-tetrahedron; from their physical coordinates, which the mesh never
forms, come the LAPACK gradients and volumes that the closed forms of
``mesh._patches`` replaced, the tangential gradients of every patch and
the polygon vertices on the patch edges.  The circumscribed diameters come
from the circumcenter solve that ``h_stab = sqrt(3) h`` replaced.  The
extraction run on the patch itself (lattice-point ids 0..3, the identity
for their barycentric coordinates) gives each vertex's barycentric
coordinates in its patch; times the parent coordinates of the patch's
lattice points they are the two-step map that the extraction replaced.
Run with global ids unique to each patch, it shares no vertex between
patches: the per-patch polygons the mesh held before its vertices were
shared.
"""

from __future__ import annotations

import numpy as np

from savfem.levelset import interpolate_p1
from savfem.mesh import _SUBTETS, _classify, _extract_polygons, _lattice_bary, _patches
from savfem.quadrature import triangle_bary_rule

__all__ = [
    "poly_elem",
    "tri_elem",
    "tri_bary",
    "point_bary",
    "point_elem",
    "point_coords",
    "point_weights",
    "point_patch",
    "interpolate_at_surface_qp",
    "triangle_integrals",
    "triangle_loads",
    "lattice_stage",
    "patch_stage",
    "lapack_geometry",
    "circumdiameters",
    "tangential_grads",
    "cut_edge_points",
    "patch_polygons",
    "two_step_poly_bary",
]


def _rule_major(per_triangle) -> np.ndarray:
    """(T, 6, ...) values per triangle and rule point as (Q, ...) values in
    the rule-major order."""
    return np.swapaxes(per_triangle, 0, 1).reshape(-1, *per_triangle.shape[2:])


def _per_point(per_triangle) -> np.ndarray:
    """(T,) values per triangle repeated for each of its points."""
    return np.tile(per_triangle, len(triangle_bary_rule()[1]))


def tri_elem(active) -> np.ndarray:
    """(T,) parent element of each surface triangle, its patch's."""
    return np.repeat(active.patch_elem, np.diff(active.tri_patch_offsets))


def poly_elem(active) -> np.ndarray:
    """(P,) parent element of each polygon vertex: that of the patch that
    computed it, the first patch whose triangles hold it."""
    first = np.unique(active.tri_index.reshape(-1), return_index=True)[1] // 3
    return tri_elem(active)[first]


def tri_bary(active) -> np.ndarray:
    """(T, 3, 4) parent barycentric coordinates of each triangle's vertices
    in the triangle's element: the B_P row entries whose columns are the
    element's dofs, found by comparing the columns with those dofs."""
    b = active.poly_interp
    cols, vals = b.indices.reshape(-1, 4)[active.tri_index], b.data.reshape(-1, 4)[active.tri_index]
    dofs = active.elem_dofs[tri_elem(active)]  # (T, 4)
    hit = dofs[:, None, :, None] == cols[:, :, None, :]  # (T, 3, element dof, row column)
    return np.where(hit, vals[:, :, None, :], 0.0).sum(axis=3)


def point_bary(active) -> np.ndarray:
    """(Q, 4) parent barycentric coordinates of the surface points."""
    rule_bary, _ = triangle_bary_rule()
    return _rule_major(np.matmul(rule_bary, tri_bary(active)))


def point_elem(active) -> np.ndarray:
    """(Q,) parent element of each surface point, its triangle's."""
    return _per_point(tri_elem(active))


def point_coords(active) -> np.ndarray:
    """(Q, 3) physical surface points."""
    rule_bary, _ = triangle_bary_rule()
    return _rule_major(np.matmul(rule_bary, active.polygon_points[active.tri_index]))


def point_weights(active) -> np.ndarray:
    """(Q,) surface point weights: the rule weight times the triangle area."""
    return (triangle_bary_rule()[1][:, None] * active.tri_areas[None, :]).reshape(-1)


def point_patch(active) -> np.ndarray:
    """(Q,) patch of each surface point; a patch's triangles are contiguous
    (``tri_patch_offsets``)."""
    offsets = active.tri_patch_offsets
    return _per_point(np.repeat(np.arange(len(offsets) - 1), np.diff(offsets)))


def interpolate_at_surface_qp(active, c) -> np.ndarray:
    """(Q,) P1 values of the DOF vector c at the surface points, rule-major:
    the rule's barycentrics times B_P c at each triangle's vertices."""
    rule_bary, _ = triangle_bary_rule()
    vertex_values = active.poly_interp @ np.asarray(c, dtype=float)
    return (rule_bary @ vertex_values[active.tri_index.T]).reshape(-1)


def triangle_integrals(active, values) -> np.ndarray:
    """(T,) surface rule on each triangle of the rule-major point values
    f: |T| w . f, the coefficient ``assemble_surface_stiffness`` takes."""
    _, rule_w = triangle_bary_rule()
    return active.tri_areas * (rule_w[None, :] @ np.reshape(values, (len(rule_w), -1)))[0]


def triangle_loads(active, values) -> np.ndarray:
    """(3, T) per-triangle vertex loads |T| (R^T diag(w) f) of the
    rule-major point values f, the argument ``assemble_f0prime_load`` takes."""
    rule_bary, rule_w = triangle_bary_rule()
    weighted = np.ascontiguousarray(rule_bary.T * rule_w)
    return (weighted @ np.reshape(values, (len(rule_w), -1))) * active.tri_areas


def lattice_stage(active, levelset):
    """Classification of ``active``, whose surface is the zero set of
    ``levelset``: the vertex coordinates (n_e, S, 4, 3), level-set values
    (n_e, S, 4) and global lattice-point ids (n_e, S, 4) of every lattice
    sub-tetrahedron, and its cut flags."""
    mesh, divisions = active.mesh, active.geometry_divisions
    cut_tets, sub_vals, sub_cut, lat_ids = _classify(mesh, interpolate_p1(levelset, mesh), levelset, divisions)
    lat_coords = np.matmul(_lattice_bary(divisions), mesh.nodes[mesh.tets[cut_tets]])  # (n_e, L, 3)
    subtets = _SUBTETS[divisions]
    return lat_coords[:, subtets, :], sub_vals, sub_cut, lat_ids[:, subtets]


def patch_stage(active, levelset):
    """``mesh._patches`` of ``active``: (stab_metric, patch_elem, patch_sub,
    normals, vals)."""
    _, sub_vals, sub_cut, _ = lattice_stage(active, levelset)
    return _patches(active.grads, active.volumes, sub_vals, sub_cut, active.geometry_divisions)


def lapack_geometry(active, levelset):
    """Unit normals (n_e, S, 3) and volumes (n_e, S) of every lattice
    sub-tetrahedron from its own coordinates, by a LAPACK solve for the
    level-set gradient and a determinant, and the cut flags (n_e, S).
    Normals of sub-tetrahedra with a vanishing gradient are zero."""
    sub_coords, sub_vals, sub_cut, _ = lattice_stage(active, levelset)
    edges = sub_coords[:, :, 1:, :] - sub_coords[:, :, :1, :]
    grad = np.linalg.solve(edges, (sub_vals[:, :, 1:] - sub_vals[:, :, :1])[..., None])[..., 0]
    norm = np.linalg.norm(grad, axis=2, keepdims=True)
    unit = np.divide(grad, norm, out=np.zeros_like(grad), where=norm > 0.0)
    return unit, np.abs(np.linalg.det(edges)) / 6.0, sub_cut


def circumdiameters(active) -> np.ndarray:
    """(n_e,) circumscribed diameters of the active elements, from the
    circumcenter solve 2 (x_i - x_0) . c = |x_i|^2 - |x_0|^2."""
    coords = active.dof_coords[active.elem_dofs]
    edges = coords[:, 1:, :] - coords[:, :1, :]
    sq = np.einsum("eij,eij->ei", coords, coords)
    rhs = sq[:, 1:] - sq[:, :1]
    centers = np.linalg.solve(2.0 * edges, rhs[:, :, None])[:, :, 0]
    return 2.0 * np.linalg.norm(centers - coords[:, 0, :], axis=1)


def tangential_grads(active, levelset) -> np.ndarray:
    """(n_p, 4, 3) parent basis gradients projected onto each patch's plane,
    with the normals of ``lapack_geometry``."""
    unit, _, sub_cut = lapack_geometry(active, levelset)
    patch_elem = np.nonzero(sub_cut)[0]
    assert np.array_equal(patch_elem, active.patch_elem)
    normals = unit[sub_cut]
    pg = active.grads[patch_elem]
    return pg - np.einsum("pik,pk->pi", pg, normals)[:, :, None] * normals[:, None, :]


def cut_edge_points(active, levelset) -> np.ndarray:
    """(T, 3, 3) corners of the surface triangles, x_a + t (x_b - x_a),
    t = v_a / (v_a - v_b), on the patch edges a-b (v_a < 0 < v_b) that the
    extraction crosses."""
    sub_coords, sub_vals, sub_cut, _ = lattice_stage(active, levelset)
    coords, vals = sub_coords[sub_cut], sub_vals[sub_cut]  # (n_p, 4, 3), (n_p, 4)
    sub_bary, poly_patch, tri_index, _ = patch_polygons(vals)
    pv, on_edge = vals[poly_patch], sub_bary > 0.0
    assert np.all(on_edge.sum(axis=1) == 2)
    a = np.argmax(on_edge & (pv < 0.0), axis=1)
    b = np.argmax(on_edge & (pv > 0.0), axis=1)
    rows = np.arange(len(poly_patch))
    t = pv[rows, a] / (pv[rows, a] - pv[rows, b])
    xa, xb = coords[poly_patch, a], coords[poly_patch, b]
    return (xa + t[:, None] * (xb - xa))[tri_index]


def patch_polygons(vals, keys=None):
    """The extraction of the patches with level-set values ``vals`` (n, 4),
    with vertices by barycentric coordinates in their patch, each held by
    its patch alone.  A crossing is computed from its end with the smaller
    of ``keys`` (n, 4), as from the smaller global lattice-point id in the
    mesh; by default from its negative end, so that t = v_a / (v_a - v_b)
    leaves both ends a nonzero coordinate even where v_a is -2.2e-16."""
    if keys is None:
        keys = (vals >= 0.0) * 4 + np.arange(4)
    rank = np.argsort(np.argsort(keys, axis=1), axis=1)
    unique = 4 * np.arange(len(vals))[:, None] + rank  # the order within a patch, shared by none
    return _extract_polygons(vals, np.broadcast_to(np.arange(4), vals.shape), unique, np.eye(4))


def two_step_poly_bary(active, levelset) -> np.ndarray:
    """(T, 3, 4) parent barycentric coordinates of each triangle's vertices
    in the triangle's element, as the patch barycentrics, oriented by the
    global lattice-point ids, times the parent coordinates of the patch's
    lattice points, one (P, 4, 4) gather."""
    _, sub_vals, sub_cut, sub_ids = lattice_stage(active, levelset)
    patch_sub = np.nonzero(sub_cut)[1]
    sub_bary, poly_patch, tri_index, _ = patch_polygons(sub_vals[sub_cut], sub_ids[sub_cut])
    divisions = active.geometry_divisions
    sub_to_parent = _lattice_bary(divisions)[_SUBTETS[divisions]]  # (S, 4, 4)
    return np.einsum("pk,pkf->pf", sub_bary, sub_to_parent[patch_sub[poly_patch]])[tri_index]
