"""Tables the mesh no longer stores, rebuilt for the tests: the oracles for
the polygon-vertex operators of ``savfem.assembly`` and for the per-patch
Gram tables.

The mesh stores the surface rule by triangle: point 6 t + k is rule point k
of triangle t, at the rule's barycentric combination of the triangle's
polygon vertices ``tri_index[t]``.  These helpers form, point by point, the
parent barycentric coordinates, parent elements and physical coordinates of
the surface quadrature points, the tables the mesh once stored.

The patch stage of ``build_active_mesh``, re-run on an active mesh's
background mesh, gives the tangential gradients of every patch and the
polygon vertices as the extraction computes them on the patch edges.
"""

from __future__ import annotations

import numpy as np

from savfem.assembly import polygon_points
from savfem.levelset import interpolate_p1
from savfem.mesh import ZERO_SHIFT_SCALE, _classify, _patches, _polygons
from savfem.quadrature import triangle_bary_rule

__all__ = ["point_bary", "point_elem", "point_coords", "tangential_grads", "cut_edge_points"]


def point_bary(active) -> np.ndarray:
    """(Q, 4) parent barycentric coordinates of the surface points."""
    rule_bary, _ = triangle_bary_rule()
    return np.matmul(rule_bary, active.poly_bary[active.tri_index]).reshape(-1, 4)


def point_elem(active) -> np.ndarray:
    """(Q,) parent element of each surface point; the three vertices of a
    triangle share one element."""
    return np.repeat(active.poly_elem[active.tri_index[:, 0]], len(triangle_bary_rule()[1]))


def point_coords(active) -> np.ndarray:
    """(Q, 3) physical surface points."""
    rule_bary, _ = triangle_bary_rule()
    return np.matmul(rule_bary, polygon_points(active)[active.tri_index]).reshape(-1, 3)


def _patch_stage(active, levelset):
    """``mesh._patches`` of ``active``, whose surface is the zero set of
    ``levelset``: (stab_metric, patch_elem, patch_sub, normals, coords, vals)."""
    mesh, divisions = active.mesh, active.geometry_divisions
    phi = interpolate_p1(levelset, mesh)
    phi[phi == 0.0] = ZERO_SHIFT_SCALE * mesh.h
    cut_tets, sub_vals, sub_cut = _classify(mesh, phi, levelset, divisions)
    return _patches(mesh.nodes[mesh.tets[cut_tets]], sub_vals, sub_cut, divisions)


def tangential_grads(active, levelset) -> np.ndarray:
    """(n_p, 4, 3) parent basis gradients projected onto each patch's plane."""
    _, patch_elem, _, normals, _, _ = _patch_stage(active, levelset)
    assert np.array_equal(patch_elem, active.patch_elem)
    pg = active.grads[patch_elem]
    return pg - np.einsum("pik,pk->pi", pg, normals)[:, :, None] * normals[:, None, :]


def cut_edge_points(active, levelset) -> np.ndarray:
    """(P, 3) cut-polygon vertices x_a + t (x_b - x_a) on the patch edges,
    as the extraction computes them."""
    _, _, patch_sub, normals, coords, vals = _patch_stage(active, levelset)
    return _polygons(coords, vals, normals, patch_sub, active.geometry_divisions)[0]
