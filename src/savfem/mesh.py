"""Background band mesh and active (cut) mesh for trace discretizations.

The background mesh is a uniform grid of cubes of edge h = base_edge / 2^level,
materialized only inside a narrow band around the zero set of phi and split
into six tetrahedra each (Kuhn/Freudenthal pattern, conforming across cubes).

The active mesh is the set of tetrahedra cut by the zero set of a piecewise
linear level set resolved on a sub-lattice of each tetrahedron.  With
``geometry_divisions = 1`` the lattice is the tetrahedron itself and the
discrete surface is the classical zero set of the P1 interpolant of phi.
With ``geometry_divisions = 2`` (the default) each tetrahedron is split into
eight sub-tetrahedra through its edge midpoints and phi is sampled there too,
so the integration surface, its normals, and the normal-gradient volume
stabilization resolve the geometry one refinement level finer than the
finite element space, which stays P1 on the parent tetrahedra.  Geometry is
continuous across faces because neighboring parents share the midpoint
samples on the common face.

Each cut sub-tetrahedron is a "patch": it carries one unit normal, the
tangential projections of the parent basis gradients, its cut polygon (one
or two surface triangles) and a contiguous block of surface quadrature
points.  Triangles and quadrature arrays are sorted patch-major and patches
parent-major, so per-parent and per-patch segmented reductions both work on
contiguous slices.

``build_active_mesh`` runs in stages, one function each: classification,
element geometry, patches, polygons and surface quadrature, so that the
temporaries of a stage are freed when it returns.  The physical quadrature
points are built on first access (``ActiveMesh.sq_points``): only a load of
a callable integrand reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .levelset import LevelSetField, interpolate_p1
from .quadrature import triangle_bary_rule

__all__ = ["MeshError", "BackgroundMesh", "ActiveMesh", "build_mesh", "build_active_mesh"]

BAND_FACTOR = 2.0 * np.sqrt(3.0)

# Exact zeros of the level set are shifted by +ZERO_SHIFT_SCALE * h before
# sign decisions so the cut topology is unambiguous.
ZERO_SHIFT_SCALE = 1e-13

# Kuhn split: each tet is {x : x_{p0} >= x_{p1} >= x_{p2}} in cube-local
# coordinates; all six share the main diagonal, which makes the split
# conforming across neighboring cubes.
_KUHN_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def _kuhn_offsets() -> np.ndarray:
    eye = np.eye(3, dtype=np.int64)
    offs = np.zeros((6, 4, 3), dtype=np.int64)
    for t, (p0, p1, _) in enumerate(_KUHN_PERMS):
        offs[t, 1] = eye[p0]
        offs[t, 2] = eye[p0] + eye[p1]
        offs[t, 3] = 1
    return offs


_KUHN_OFFSETS = _kuhn_offsets()

# Sub-lattice of a tetrahedron: vertices 0..3, edge midpoints 4..9 in the
# order below, red refinement into eight children (four corner tets plus the
# interior octahedron split along the m01-m23 diagonal).  All children have
# positive volume for a positively oriented parent.
_LATTICE_EDGES = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], dtype=np.int64)
_SUBTETS = {
    1: np.array([(0, 1, 2, 3)], dtype=np.int64),
    2: np.array(
        [
            (0, 4, 5, 6),
            (1, 4, 7, 8),
            (2, 5, 7, 9),
            (3, 6, 8, 9),
            (4, 9, 5, 6),
            (4, 9, 6, 8),
            (4, 9, 8, 7),
            (4, 9, 7, 5),
        ],
        dtype=np.int64,
    ),
}


def _lattice_bary(divisions: int) -> np.ndarray:
    """Parent barycentric coordinates of the lattice points."""
    if divisions == 1:
        return np.eye(4)
    b = np.zeros((10, 4))
    b[:4] = np.eye(4)
    for k, (i, j) in enumerate(_LATTICE_EDGES):
        b[4 + k, i] = 0.5
        b[4 + k, j] = 0.5
    return b


class MeshError(RuntimeError):
    pass


@dataclass
class BackgroundMesh:
    """Band-restricted uniform tetrahedral mesh.

    nodes : (n, 3) coordinates, tets : (m, 4) node indices.  ``h`` is the
    cube edge; every tetrahedron has circumscribed diameter sqrt(3)*h.
    """

    box: np.ndarray  # (3, 2)
    level: int
    divisions: tuple[int, int, int]
    h: float
    nodes: np.ndarray
    tets: np.ndarray


def _base_divisions(lengths, tol: float = 1e-9) -> tuple[int, int, int]:
    """Smallest equal-edge cube counts for the box, at least 2 per axis."""
    lmin = min(lengths)
    for k in range(1, 65):
        edge = lmin / k
        counts = [ln / edge for ln in lengths]
        rounded = [round(c) for c in counts]
        if all(abs(c - r) <= tol * max(1.0, r) for c, r in zip(counts, rounded)):
            base = rounded
            while min(base) < 2:
                base = [2 * n for n in base]
            return tuple(base)
    raise MeshError(f"box side lengths {lengths} admit no common cube edge")


def build_mesh(
    levelset: LevelSetField,
    box,
    level: int,
    band_factor: float = BAND_FACTOR,
    base_scale: int = 1,
) -> BackgroundMesh:
    """Build the band mesh at refinement ``level``.

    A cube is materialized when its corner values of phi change sign or when
    ``min |phi|`` over its corners is within ``band_factor * h``; this covers
    every cube containing cut tetrahedra (tet vertices are cube corners)
    plus a safety band.  ``base_scale`` multiplies the base cube counts, for
    resolutions between the power-of-two levels.
    """
    if level < 1:
        raise ValueError("refinement level must be >= 1")
    if base_scale < 1:
        raise ValueError("base_scale must be >= 1")
    box = np.asarray(box, dtype=float).reshape(3, 2)
    lengths = box[:, 1] - box[:, 0]
    if np.any(lengths <= 0):
        raise ValueError("box must have positive extents")
    base = _base_divisions(lengths.tolist())
    div = tuple(int(n) * base_scale * 2**level for n in base)
    h = float(lengths[0] / div[0])

    axes = [np.linspace(box[i, 0], box[i, 1], div[i] + 1) for i in range(3)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    phi = levelset.evaluate(grid.reshape(-1, 3))
    if not np.all(np.isfinite(phi)):
        raise MeshError("level set is not finite on the background grid")
    phi = phi.reshape(grid.shape[:3])

    corners = [
        phi[ix:, iy:, iz:][: div[0], : div[1], : div[2]]
        for ix in (0, 1)
        for iy in (0, 1)
        for iz in (0, 1)
    ]
    cmin = np.minimum.reduce(corners)
    cmax = np.maximum.reduce(corners)
    amin = np.minimum.reduce([np.abs(c) for c in corners])
    keep = ((cmin < 0) & (cmax > 0)) | (amin <= band_factor * h)
    cubes = np.argwhere(keep)
    if len(cubes) == 0:
        raise MeshError("level set does not intersect the box: no band cubes materialized")

    ny1, nz1 = div[1] + 1, div[2] + 1
    corner_idx = cubes[:, None, None, :] + _KUHN_OFFSETS[None, :, :, :]  # (K, 6, 4, 3)
    grid_ids = (corner_idx[..., 0] * ny1 + corner_idx[..., 1]) * nz1 + corner_idx[..., 2]
    tets_grid = grid_ids.reshape(-1, 4)

    uniq = np.unique(tets_grid)
    tets = np.searchsorted(uniq, tets_grid)
    iz = uniq % nz1
    iy = (uniq // nz1) % ny1
    ix = uniq // (ny1 * nz1)
    nodes = np.column_stack([axes[0][ix], axes[1][iy], axes[2][iz]])

    return BackgroundMesh(box=box, level=level, divisions=div, h=h, nodes=nodes, tets=tets)


@dataclass
class ActiveMesh:
    """Cut tetrahedra of a background mesh plus trace-integration data.

    DOFs are the vertices of cut tetrahedra, numbered 0..n_dofs-1 in
    ascending background-node order.  Patches (cut sub-tetrahedra of the
    geometry lattice) are sorted by parent element; surface triangles and
    quadrature points are sorted by patch.  ``sq_patch_offsets`` delimit
    each patch's surface points.
    ``stab_metric`` is sum_s |T_s| n_s n_s^T over all lattice
    sub-tetrahedra of an element, so grad_i . M . grad_j is the elementwise
    normal-gradient volume stabilization.  The physical quadrature points
    ``sq_points`` are built on first access: only loads of a callable
    integrand read them.
    """

    mesh: BackgroundMesh
    geometry_divisions: int
    elem_dofs: np.ndarray  # (n_e, 4)
    active_nodes: np.ndarray  # (n_dofs,) background node ids
    grads: np.ndarray  # (n_e, 4, 3) P1 basis gradients
    volumes: np.ndarray  # (n_e,)
    diameters: np.ndarray  # (n_e,) circumscribed diameters
    stab_metric: np.ndarray  # (n_e, 3, 3)
    patch_elem: np.ndarray  # (n_p,) parent element of each patch
    patch_tangential_grads: np.ndarray  # (n_p, 4, 3)
    poly_points: np.ndarray  # (P, 3) cut-polygon vertices
    poly_bary: np.ndarray  # (P, 4) parent barycentric coordinates
    poly_elem: np.ndarray  # (P,)
    tri_index: np.ndarray  # (T, 3) into poly_points
    tri_areas: np.ndarray  # (T,)
    sq_weights: np.ndarray  # (Q,)
    sq_bary: np.ndarray  # (Q, 4) parent barycentric coordinates
    sq_elem: np.ndarray  # (Q,)
    sq_patch_offsets: np.ndarray  # (n_p + 1,)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_elements(self) -> int:
        return len(self.elem_dofs)

    @property
    def n_patches(self) -> int:
        return len(self.patch_elem)

    @property
    def n_dofs(self) -> int:
        return len(self.active_nodes)

    @property
    def dof_coords(self) -> np.ndarray:
        return self.mesh.nodes[self.active_nodes]

    @property
    def sq_points(self) -> np.ndarray:
        """(Q, 3) physical surface quadrature points."""
        points = self._cache.get("sq_points")
        if points is None:
            rule_bary, _ = triangle_bary_rule()
            points = np.matmul(rule_bary, self.poly_points[self.tri_index]).reshape(-1, 3)
            self._cache["sq_points"] = points
        return points

    @property
    def area(self) -> float:
        return float(self.sq_weights.sum())

    @property
    def band_volume(self) -> float:
        return float(self.volumes.sum())


def _lattice_values(mesh: BackgroundMesh, phi: np.ndarray, levelset, divisions: int) -> np.ndarray:
    """Level-set samples at the lattice points of every band tetrahedron.

    Midpoint samples come from the level set itself, one evaluation per
    mesh edge.  Exact zeros are shifted like the nodal ones.
    """
    vertex_vals = phi[mesh.tets]  # (m, 4)
    if divisions == 1:
        return vertex_vals
    a, b = mesh.tets[:, _LATTICE_EDGES[:, 0]], mesh.tets[:, _LATTICE_EDGES[:, 1]]
    n = len(mesh.nodes)
    edges, edge_of = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
    lo, hi = np.divmod(edges, n)
    edge_vals = levelset.evaluate(0.5 * (mesh.nodes[lo] + mesh.nodes[hi]))
    if not np.all(np.isfinite(edge_vals)):
        raise MeshError("level set is not finite at lattice midpoints")
    mid_vals = edge_vals[edge_of.reshape(len(mesh.tets), 6)]
    mid_vals[mid_vals == 0.0] = ZERO_SHIFT_SCALE * mesh.h
    return np.concatenate([vertex_vals, mid_vals], axis=1)  # (m, 10)


def _classify(mesh: BackgroundMesh, phi: np.ndarray, levelset, divisions: int):
    """Cut tetrahedra, and the lattice values and cut flags of their
    sub-tetrahedra, (n_e, S, 4) and (n_e, S)."""
    subtets = _SUBTETS[divisions]
    lat_vals = _lattice_values(mesh, phi, levelset, divisions)  # (m, L)
    # The values carry no exact zeros, so a sub-tetrahedron is cut when one
    # to three of its vertex values are negative.
    n_neg = (lat_vals < 0.0)[:, subtets].sum(axis=2)  # (m, S)
    sub_cut = (n_neg > 0) & (n_neg < 4)
    cut_tets = np.flatnonzero(sub_cut.any(axis=1))
    if len(cut_tets) == 0:
        raise MeshError("no cut tetrahedra: the surface misses the mesh band")
    return cut_tets, lat_vals[cut_tets][:, subtets], sub_cut[cut_tets]


def _element_geometry(coords: np.ndarray):
    """P1 basis gradients, volumes and circumscribed diameters of the
    tetrahedra with vertex coordinates ``coords`` (n_e, 4, 3)."""
    edges = coords[:, 1:, :] - coords[:, :1, :]  # (n_e, 3, 3) rows x_i - x_0
    grads = np.empty((len(coords), 4, 3))
    grads[:, 1:, :] = np.linalg.inv(edges).transpose(0, 2, 1)
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)

    volumes = np.abs(np.linalg.det(edges)) / 6.0
    rhs = np.einsum("eij,eij->ei", coords[:, 1:, :], coords[:, 1:, :]) - np.einsum(
        "ej,ej->e", coords[:, 0, :], coords[:, 0, :]
    )[:, None]
    centers = np.linalg.solve(2.0 * edges, rhs[:, :, None])[:, :, 0]
    diameters = 2.0 * np.linalg.norm(centers - coords[:, 0, :], axis=1)
    return grads, volumes, diameters


def _patches(coords, sub_vals, sub_cut, grads, divisions: int):
    """Stabilization metric of every cut parent, and its patches.

    Returns the (n_e, 3, 3) metric, each patch's parent element and
    lattice sub-tetrahedron, its unit normal, the tangential projections of
    the parent basis gradients, and its vertex coordinates and level-set
    values for the polygon extraction.
    """
    subtets = _SUBTETS[divisions]
    n_e, n_sub = sub_cut.shape
    lat_coords = np.matmul(_lattice_bary(divisions), coords)  # (n_e, L, 3)
    flat_coords = lat_coords[:, subtets, :].reshape(n_e * n_sub, 4, 3)
    flat_vals = sub_vals.reshape(n_e * n_sub, 4)
    sub_edges = flat_coords[:, 1:, :] - flat_coords[:, :1, :]
    sub_grad = np.linalg.solve(sub_edges, (flat_vals[:, 1:] - flat_vals[:, :1])[:, :, None])[:, :, 0]
    sub_norm = np.linalg.norm(sub_grad, axis=1)
    sub_vols = np.abs(np.linalg.det(sub_edges)) / 6.0
    if np.any(sub_norm[sub_cut.reshape(-1)] == 0.0):
        raise MeshError("grad(phi_h) vanishes on a cut sub-tetrahedron")
    unit = np.zeros_like(sub_grad)
    nz = sub_norm > 0.0
    unit[nz] = sub_grad[nz] / sub_norm[nz, None]

    outer = sub_vols[:, None, None] * (unit[:, :, None] * unit[:, None, :])
    stab_metric = outer.reshape(n_e, n_sub, 3, 3).sum(axis=1)

    # Patches: the cut sub-tetrahedra, parent-major order.
    patch_flat = np.flatnonzero(sub_cut.reshape(-1))
    patch_elem, patch_sub = np.divmod(patch_flat, n_sub)
    patch_normals = unit[patch_flat]
    pg = grads[patch_elem]  # (n_p, 4, 3)
    pnd = np.einsum("pik,pk->pi", pg, patch_normals)
    patch_tangential_grads = pg - pnd[:, :, None] * patch_normals[:, None, :]
    return (
        stab_metric, patch_elem, patch_sub, patch_normals, patch_tangential_grads,
        flat_coords[patch_flat], flat_vals[patch_flat],
    )


def _polygons(coords, vals, normals, patch_sub, divisions: int):
    """Cut polygons of the patches, with barycentric coordinates in the parent."""
    poly_points, sub_bary, poly_patch, tri_index, tri_patch = _extract_polygons(coords, vals, normals)
    sub_to_parent = _lattice_bary(divisions)[_SUBTETS[divisions]]  # (S, 4, 4)
    poly_bary = np.einsum("pk,pkf->pf", sub_bary, sub_to_parent[patch_sub[poly_patch]])
    return poly_points, poly_bary, poly_patch, tri_index, tri_patch


def _surface_quadrature(poly_points, poly_bary, tri_index, tri_patch, patch_elem):
    """Triangle areas, and the barycentric points, weights and elements of
    the surface rule, with each patch's offsets into them."""
    rule_bary, rule_w = triangle_bary_rule()
    nq = len(rule_w)
    tri_coords = poly_points[tri_index]  # (T, 3, 3)
    tri_areas = 0.5 * np.linalg.norm(
        np.cross(tri_coords[:, 1] - tri_coords[:, 0], tri_coords[:, 2] - tri_coords[:, 0]), axis=1
    )
    sq_bary = np.matmul(rule_bary, poly_bary[tri_index]).reshape(-1, 4)
    sq_weights = (rule_w[None, :] * tri_areas[:, None]).reshape(-1)
    sq_elem = np.repeat(patch_elem[tri_patch], nq)
    tri_counts = np.bincount(tri_patch, minlength=len(patch_elem))
    sq_patch_offsets = nq * np.concatenate([[0], np.cumsum(tri_counts)])
    return tri_areas, sq_bary, sq_weights, sq_elem, sq_patch_offsets


def build_active_mesh(
    mesh: BackgroundMesh, levelset: LevelSetField, geometry_divisions: int = 2
) -> ActiveMesh:
    """Extract the cut tetrahedra of ``mesh`` and precompute trace data.

    The level set is sampled at the mesh nodes and, for divisions = 2, at
    the edge midpoints.  Exact zeros are shifted by +1e-13*h before
    classification so the cut topology is unambiguous.  A tetrahedron is
    active when any of its geometry-lattice sub-tetrahedra is cut.  Each
    stage below is a function of its own, so its temporaries are freed when
    it returns.
    """
    if geometry_divisions not in _SUBTETS:
        raise ValueError("geometry_divisions must be 1 or 2")
    phi = interpolate_p1(levelset, mesh)
    phi[phi == 0.0] = ZERO_SHIFT_SCALE * mesh.h

    cut_tets, sub_vals, sub_cut = _classify(mesh, phi, levelset, geometry_divisions)
    elem_nodes = mesh.tets[cut_tets]
    active_nodes = np.unique(elem_nodes)
    dof_of_node = np.full(len(mesh.nodes), -1, dtype=np.int64)
    dof_of_node[active_nodes] = np.arange(len(active_nodes))

    coords = mesh.nodes[elem_nodes]  # (n_e, 4, 3)
    grads, volumes, diameters = _element_geometry(coords)
    patches = _patches(coords, sub_vals, sub_cut, grads, geometry_divisions)
    stab_metric, patch_elem, patch_sub, normals, tangential_grads, patch_coords, patch_vals = patches
    poly_points, poly_bary, poly_patch, tri_index, tri_patch = _polygons(
        patch_coords, patch_vals, normals, patch_sub, geometry_divisions
    )
    tri_areas, sq_bary, sq_weights, sq_elem, sq_patch_offsets = _surface_quadrature(
        poly_points, poly_bary, tri_index, tri_patch, patch_elem
    )

    return ActiveMesh(
        mesh=mesh,
        geometry_divisions=geometry_divisions,
        elem_dofs=dof_of_node[elem_nodes],
        active_nodes=active_nodes,
        grads=grads,
        volumes=volumes,
        diameters=diameters,
        stab_metric=stab_metric,
        patch_elem=patch_elem,
        patch_tangential_grads=tangential_grads,
        poly_points=poly_points,
        poly_bary=poly_bary,
        poly_elem=patch_elem[poly_patch],
        tri_index=tri_index,
        tri_areas=tri_areas,
        sq_weights=sq_weights,
        sq_bary=sq_bary,
        sq_elem=sq_elem,
        sq_patch_offsets=sq_patch_offsets,
    )


_OTHERS = np.array([[j for j in range(4) if j != i] for i in range(4)], dtype=np.int64)


def _extract_polygons(coords, vals, normals):
    """Vectorized cut-polygon extraction for all patches at once.

    Equivalent to extract_cut_polygon of tests/cutcells.py per patch, the
    single-tetrahedron oracle it is tested against; output arrays are
    ordered by patch, barycentric coordinates refer to the patch
    tetrahedron.
    """
    n_e = len(vals)
    neg = vals < 0.0
    n_neg = neg.sum(axis=1)

    nv = np.where(n_neg == 2, 4, 3)
    ntri = np.where(n_neg == 2, 2, 1)
    pv_off = np.concatenate([[0], np.cumsum(nv)])
    tri_off = np.concatenate([[0], np.cumsum(ntri)])

    poly_points = np.empty((pv_off[-1], 3))
    poly_bary = np.zeros((pv_off[-1], 4))
    poly_elem = np.repeat(np.arange(n_e), nv)
    tri_index = np.empty((tri_off[-1], 3), dtype=np.int64)
    tri_elem = np.repeat(np.arange(n_e), ntri)

    rows_a = np.flatnonzero(n_neg != 2)
    if len(rows_a):
        lone = np.where(n_neg[rows_a] == 1, np.argmax(neg[rows_a], axis=1), np.argmax(~neg[rows_a], axis=1))
        others = _OTHERS[lone]  # (nA, 3) increasing index order
        va = vals[rows_a, lone][:, None]
        vo = np.take_along_axis(vals[rows_a], others, axis=1)
        t = va / (va - vo)  # (nA, 3)
        xa = coords[rows_a, lone][:, None, :]
        xo = np.take_along_axis(coords[rows_a], others[:, :, None], axis=1)
        verts = xa + t[:, :, None] * (xo - xa)
        slot = pv_off[rows_a][:, None] + np.arange(3)[None, :]
        poly_points[slot] = verts
        ar = np.arange(len(rows_a))[:, None]
        bary = np.zeros((len(rows_a), 3, 4))
        bary[ar, np.arange(3)[None, :], others] = t
        bary[ar, np.arange(3)[None, :], lone[:, None]] = 1.0 - t
        poly_bary[slot] = bary
        tri_index[tri_off[rows_a]] = slot

    rows_b = np.flatnonzero(n_neg == 2)
    if len(rows_b):
        negs = np.argsort(~neg[rows_b], axis=1, kind="stable")[:, :2]
        poss = np.argsort(neg[rows_b], axis=1, kind="stable")[:, :2]
        a_idx = negs[:, [0, 0, 1, 1]]
        b_idx = poss[:, [0, 1, 0, 1]]
        va = np.take_along_axis(vals[rows_b], a_idx, axis=1)
        vb = np.take_along_axis(vals[rows_b], b_idx, axis=1)
        t = va / (va - vb)  # (nB, 4)
        xa = np.take_along_axis(coords[rows_b], a_idx[:, :, None], axis=1)
        xb = np.take_along_axis(coords[rows_b], b_idx[:, :, None], axis=1)
        verts = xa + t[:, :, None] * (xb - xa)
        ar = np.arange(len(rows_b))[:, None]
        bary = np.zeros((len(rows_b), 4, 4))
        bary[ar, np.arange(4)[None, :], a_idx] = 1.0 - t
        bary[ar, np.arange(4)[None, :], b_idx] = t

        # Deterministic angular order around the centroid in the cut plane.
        nrm = normals[rows_b]
        centroid = verts.mean(axis=1)
        d = verts - centroid[:, None, :]
        k = np.argmin(np.abs(nrm), axis=1)
        ek = np.eye(3)[k]
        t1 = ek - np.einsum("nj,nj->n", ek, nrm)[:, None] * nrm
        t1 /= np.linalg.norm(t1, axis=1)[:, None]
        t2 = np.cross(nrm, t1)
        ang = np.arctan2(np.einsum("nvj,nj->nv", d, t2), np.einsum("nvj,nj->nv", d, t1))
        order = np.argsort(ang, axis=1)
        verts = np.take_along_axis(verts, order[:, :, None], axis=1)
        bary = np.take_along_axis(bary, order[:, :, None], axis=1)

        slot = pv_off[rows_b][:, None] + np.arange(4)[None, :]
        poly_points[slot] = verts
        poly_bary[slot] = bary
        tri_index[tri_off[rows_b]] = slot[:, [0, 1, 2]]
        tri_index[tri_off[rows_b] + 1] = slot[:, [0, 2, 3]]

    return poly_points, poly_bary, poly_elem, tri_index, tri_elem
