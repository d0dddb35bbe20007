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

Each cut sub-tetrahedron is a "patch": it carries the Gram table of the
parent basis gradients projected onto its plane and its cut polygon, one
or two planar surface triangles.  Their vertices, one per crossed lattice
edge and shared by every patch on that edge, are stored once, by parent
barycentric coordinates only, so the triangles form one closed surface
(Olshanskii, Reusken and Grande, SIAM J. Numer. Anal. 47, 2009).  Of each
triangle the mesh keeps its area; the quadrature rule on it is applied by
``savfem.assembly``.  Triangles are sorted patch-major and patches
parent-major, so per-parent and per-patch segmented reductions both work
on contiguous slices.

The cut geometry is a function of the lattice level-set values and the
parent geometry: a sub-tetrahedron's gradient follows from its four values
and the parent basis gradients, its volume is |T| / S for the S lattice
sub-tetrahedra of a red-refined parent T (Bey, Computing 55, 1995), and a
polygon's vertices and their order follow from its patch's values alone,
so no sub-tetrahedron coordinates are formed and no order reads a normal.
A vertex's parent coordinates come from the two lattice points of its edge,
and B_P (P x N), the one map from dof values to the vertices, is kept.

``build_active_mesh`` runs in stages, one function each: classification,
element geometry, patches, polygon extraction, triangle areas and Gram
tables, so that the temporaries of a stage are freed when it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .levelset import LevelSetField, interpolate_p1

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
    base_scale: int = 1,
) -> BackgroundMesh:
    """Build the band mesh at refinement ``level``.

    A cube is materialized when its corner values of phi change sign or when
    ``min |phi|`` over its corners is within ``BAND_FACTOR * h``; this covers
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
    keep = ((cmin < 0) & (cmax > 0)) | (amin <= BAND_FACTOR * h)
    cubes = np.argwhere(keep)
    if len(cubes) == 0:
        raise MeshError("level set does not intersect the box: no band cubes materialized")

    corner_idx = cubes[:, None, None, :] + _KUHN_OFFSETS[None, :, :, :]  # (K, 6, 4, 3)
    tets_grid = np.ravel_multi_index(tuple(np.moveaxis(corner_idx, -1, 0)), phi.shape).reshape(-1, 4)

    # band nodes in ascending grid order: the used grid points, numbered by a cumsum
    used = np.zeros(phi.size, dtype=bool)
    used[tets_grid] = True
    tets = (np.cumsum(used) - 1)[tets_grid]  # int64: the edge keys min * n + max overflow int32
    nodes = grid.reshape(-1, 3)[used]

    return BackgroundMesh(box=box, level=level, divisions=div, h=h, nodes=nodes, tets=tets)


@dataclass
class ActiveMesh:
    """Cut tetrahedra of a background mesh plus trace-integration data.

    DOFs are the vertices of cut tetrahedra, numbered 0..n_dofs-1 in
    ascending background-node order.  Patches (cut sub-tetrahedra of the
    geometry lattice) are sorted by parent element, and surface triangles by
    patch; ``tri_patch_offsets`` delimit each patch's one or two triangles.
    Every polygon vertex is held once, in the parent coordinates of the
    patch that computed it, and B_P's row is nonzero only on the dofs of
    every parent that shares it.
    ``stab_metric`` is sum_s |T_s| n_s n_s^T over all lattice
    sub-tetrahedra of an element, so grad_i . M . grad_j is the elementwise
    normal-gradient volume stabilization.  Every element has circumscribed
    diameter sqrt(3) * mesh.h, the scale of that stabilization.
    """

    mesh: BackgroundMesh
    geometry_divisions: int
    elem_dofs: np.ndarray  # (n_e, 4)
    active_nodes: np.ndarray  # (n_dofs,) background node ids
    grads: np.ndarray  # (n_e, 4, 3) P1 basis gradients
    volumes: np.ndarray  # (n_e,)
    stab_metric: np.ndarray  # (n_e, 3, 3)
    patch_elem: np.ndarray  # (n_p,) parent element of each patch
    patch_gram: np.ndarray  # (n_p, 16) row-major grad_G psi_i . grad_G psi_j, constant per patch
    poly_bary: np.ndarray  # (P, 4) parent barycentric coordinates of the distinct cut-polygon vertices
    poly_interp: sp.csr_matrix  # B_P (P, n_dofs): data a view of poly_bary, int32 columns
    tri_index: np.ndarray  # (T, 3) into the polygon vertices
    tri_areas: np.ndarray  # (T,)
    tri_patch_offsets: np.ndarray  # (n_p + 1,)
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
    def polygon_points(self) -> np.ndarray:
        """(P, 3) cut-polygon vertices, B_P applied to the dof coordinates."""
        return self.poly_interp @ self.dof_coords

    @property
    def area(self) -> float:
        return float(self.tri_areas.sum())

    @property
    def band_volume(self) -> float:
        return float(self.volumes.sum())


def _lattice_values(mesh: BackgroundMesh, phi: np.ndarray, levelset, divisions: int):
    """Level-set samples at the lattice points of every band tetrahedron,
    (m, L), and the mesh-edge ids of its midpoints (m, L - 4).  Midpoint
    samples come from the level set itself, one evaluation per mesh edge.
    """
    vertex_vals = phi[mesh.tets]  # (m, 4)
    if divisions == 1:
        return vertex_vals, np.empty((len(mesh.tets), 0), dtype=np.int64)
    a, b = mesh.tets[:, _LATTICE_EDGES[:, 0]], mesh.tets[:, _LATTICE_EDGES[:, 1]]
    n = len(mesh.nodes)
    edges, edge_of = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)
    lo, hi = np.divmod(edges, n)
    edge_vals = levelset.evaluate(0.5 * (mesh.nodes[lo] + mesh.nodes[hi]))
    if not np.all(np.isfinite(edge_vals)):
        raise MeshError("level set is not finite at lattice midpoints")
    mid = edge_of.reshape(len(mesh.tets), 6)
    return np.concatenate([vertex_vals, edge_vals[mid]], axis=1), mid


def _classify(mesh: BackgroundMesh, phi: np.ndarray, levelset, divisions: int):
    """Cut tetrahedra, the lattice values and cut flags of their
    sub-tetrahedra, (n_e, S, 4) and (n_e, S), from the nodal values ``phi``,
    and the global ids of their lattice points (n_e, L): band node ids,
    then n_nodes plus the mesh-edge id for the midpoints.  Exact zeros of
    the lattice values are shifted to +ZERO_SHIFT_SCALE * h."""
    subtets = _SUBTETS[divisions]
    lat_vals, mid_edges = _lattice_values(mesh, phi, levelset, divisions)  # (m, L), (m, L - 4)
    # A sub-tetrahedron is cut when one to three of its vertex values are
    # negative; an exact zero counts as positive here, as it does shifted.
    n_neg = (lat_vals < 0.0)[:, subtets].sum(axis=2)  # (m, S)
    sub_cut = (n_neg > 0) & (n_neg < 4)
    cut_tets = np.flatnonzero(sub_cut.any(axis=1))
    if len(cut_tets) == 0:
        raise MeshError("no cut tetrahedra: the surface misses the mesh band")
    lat_ids = np.concatenate([mesh.tets[cut_tets], len(mesh.nodes) + mid_edges[cut_tets]], axis=1)
    sub_vals = lat_vals[cut_tets][:, subtets]
    sub_vals[sub_vals == 0.0] = ZERO_SHIFT_SCALE * mesh.h
    return cut_tets, sub_vals, sub_cut[cut_tets], lat_ids


def _element_geometry(coords: np.ndarray):
    """P1 basis gradients and volumes of the tetrahedra with vertex
    coordinates ``coords`` (n_e, 4, 3)."""
    edges = coords[:, 1:, :] - coords[:, :1, :]  # (n_e, 3, 3) rows x_i - x_0
    grads = np.empty((len(coords), 4, 3))
    grads[:, 1:, :] = np.linalg.inv(edges).transpose(0, 2, 1)
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return grads, np.abs(np.linalg.det(edges)) / 6.0


def _patches(grads, volumes, sub_vals, sub_cut, divisions: int):
    """Stabilization metric of every cut parent, and its patches.

    A sub-tetrahedron's level-set gradient is sum_k v_k grad mu_k, with its
    barycentric coordinates mu = inv(B)^T lambda in terms of the parent's
    (B: the parent barycentric coordinates of its vertices, by row), and
    red refinement gives every child the volume |T| / S.  Returns the
    (n_e, 3, 3) metric, each patch's parent element, the lattice-point ids
    of its four vertices, its unit normal and its level-set values.
    """
    n_sub = sub_cut.shape[1]
    sub_inv = np.linalg.inv(_lattice_bary(divisions)[_SUBTETS[divisions]])  # (S, 4, 4)
    sub_grad = np.einsum("esk,sjk,ejx->esx", sub_vals, sub_inv, grads, optimize=True)
    sub_norm = np.linalg.norm(sub_grad, axis=2, keepdims=True)
    if np.any(sub_norm[sub_cut] == 0.0):
        raise MeshError("grad(phi_h) vanishes on a cut sub-tetrahedron")
    unit = np.divide(sub_grad, sub_norm, out=np.zeros_like(sub_grad), where=sub_norm > 0.0)
    stab_metric = (volumes / n_sub)[:, None, None] * np.einsum("esi,esj->eij", unit, unit)

    # Patches: the cut sub-tetrahedra, parent-major order.
    patch_elem, patch_sub = np.nonzero(sub_cut)
    patch_ids = _SUBTETS[divisions][patch_sub]
    return stab_metric, patch_elem, patch_ids, unit[sub_cut], sub_vals[sub_cut]


def _triangle_areas(points, tri_index):
    """Areas of the surface triangles of the polygon vertices ``points``."""
    tri_coords = points[tri_index]  # (T, 3, 3)
    return 0.5 * np.linalg.norm(
        np.cross(tri_coords[:, 1] - tri_coords[:, 0], tri_coords[:, 2] - tri_coords[:, 0]), axis=1
    )


def _patch_gram(grads, patch_elem, normals):
    """(n_p, 16) Gram table grad_G psi_i . grad_G psi_j of every patch, with
    grad_G the parent basis gradients projected onto the patch's plane."""
    pg = grads[patch_elem]  # (n_p, 4, 3)
    tangential = pg - np.einsum("pik,pk->pi", pg, normals)[:, :, None] * normals[:, None, :]
    return np.einsum("pik,pjk->pij", tangential, tangential).reshape(-1, 16)


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
    cut_tets, sub_vals, sub_cut, lattice_ids = _classify(mesh, phi, levelset, geometry_divisions)
    elem_nodes = mesh.tets[cut_tets]
    active_nodes, elem_dofs = np.unique(elem_nodes, return_inverse=True)
    elem_dofs = elem_dofs.reshape(elem_nodes.shape)

    grads, volumes = _element_geometry(mesh.nodes[elem_nodes])
    stab_metric, patch_elem, patch_ids, normals, patch_vals = _patches(
        grads, volumes, sub_vals, sub_cut, geometry_divisions
    )
    poly_bary, poly_patch, tri_index, tri_patch_offsets = _extract_polygons(
        patch_vals, patch_ids, lattice_ids[patch_elem[:, None], patch_ids], _lattice_bary(geometry_divisions)
    )
    poly_elem = patch_elem[poly_patch]  # kept to the return: freed here, it raised the convergence study's peak RSS by 6 MiB
    cols = elem_dofs.astype(np.int32)[poly_elem].reshape(-1)  # int32: kept by the CSR constructor
    ptr = np.arange(0, len(cols) + 1, 4, dtype=np.int32)
    poly_interp = sp.csr_matrix((poly_bary.reshape(-1), cols, ptr), shape=(len(poly_bary), len(active_nodes)))
    tri_areas = _triangle_areas(poly_interp @ mesh.nodes[active_nodes], tri_index)
    patch_gram = _patch_gram(grads, patch_elem, normals)

    return ActiveMesh(
        mesh=mesh,
        geometry_divisions=geometry_divisions,
        elem_dofs=elem_dofs,
        active_nodes=active_nodes,
        grads=grads,
        volumes=volumes,
        stab_metric=stab_metric,
        patch_elem=patch_elem.astype(np.int32),  # int32: read at set-up only
        patch_gram=patch_gram,
        poly_bary=poly_bary,
        poly_interp=poly_interp,
        tri_index=tri_index,
        tri_areas=tri_areas,
        tri_patch_offsets=tri_patch_offsets,
    )


_OTHERS = np.array([[j for j in range(4) if j != i] for i in range(4)], dtype=np.int64)


def _extract_polygons(vals, ids, keys, lattice):
    """Vectorized cut-polygon extraction for all patches at once, from
    their (n, 4) level-set values, the lattice-point ids (n, 4) of their
    vertices, the global ids ``keys`` (n, 4) of those points and the
    lattice points' parent coordinates ``lattice`` (L, 4); ids 0..3 with
    the identity give coordinates in the patch itself.

    Each crossed lattice edge gives one vertex, which every patch on the
    edge shares: it is computed once, in the first of them, as (1 - t) L_lo
    + t L_hi at t = v_lo / (v_lo - v_hi), lo and hi the ends by global id.
    So a vertex on a parent face is zero off that face's vertices, and the
    same there, whichever parent computes it.  Returns the vertices by
    parent barycentric coordinates, the patch that computed each, and the
    triangles with each patch's offsets into them, ordered by patch.

    A triangle's vertices follow the order of its crossing edges around
    the lone vertex.  A quadrilateral with negative vertices a0 < a1 and
    positive vertices b0 < b1 runs a0b0, a0b1, a1b1, a1b0, so consecutive
    crossings share a face, and is split along a0b0-a1b1.  The vertex sets
    equal those of extract_cut_polygon of tests/cutcells.py, the
    single-tetrahedron oracle it is tested against.
    """
    neg = vals < 0.0
    n_neg = neg.sum(axis=1)

    nv = np.where(n_neg == 2, 4, 3)
    ntri = np.where(n_neg == 2, 2, 1)
    pv_off = np.concatenate([[0], np.cumsum(nv)])
    tri_off = np.concatenate([[0], np.cumsum(ntri)])

    a, b = np.empty((2, pv_off[-1]), dtype=np.intp)  # each patch's crossed edges a-b, by slot
    tri_index = np.empty((tri_off[-1], 3), dtype=np.intp)  # intp: gathered every step, no cast per call

    rows = np.flatnonzero(n_neg != 2)
    lone = np.where(n_neg[rows] == 1, np.argmax(neg[rows], axis=1), np.argmax(~neg[rows], axis=1))
    slot = pv_off[rows][:, None] + np.arange(3)[None, :]
    a[slot], b[slot] = lone[:, None], _OTHERS[lone]
    tri_index[tri_off[rows]] = slot

    rows = np.flatnonzero(n_neg == 2)
    negs = np.argsort(~neg[rows], axis=1, kind="stable")[:, :2]
    poss = np.argsort(neg[rows], axis=1, kind="stable")[:, :2]
    slot = pv_off[rows][:, None] + np.arange(4)[None, :]
    a[slot], b[slot] = negs[:, [0, 0, 1, 1]], poss[:, [0, 1, 1, 0]]
    tri_index[tri_off[rows]] = slot[:, [0, 1, 2]]
    tri_index[tri_off[rows] + 1] = slot[:, [0, 2, 3]]

    # one vertex per crossed edge, keyed by its ends' global ids
    patch = np.repeat(np.arange(len(vals)), nv)
    key_a, key_b = keys[patch, a], keys[patch, b]
    edge_keys = np.minimum(key_a, key_b) * (keys.max() + 1) + np.maximum(key_a, key_b)
    _, first, vertex_of = np.unique(edge_keys, return_index=True, return_inverse=True)
    patch, lo, hi = patch[first], np.where(key_a < key_b, a, b)[first], np.where(key_a < key_b, b, a)[first]
    t = (vals[patch, lo] / (vals[patch, lo] - vals[patch, hi]))[:, None]
    poly_bary = (1.0 - t) * lattice[ids[patch, lo]] + t * lattice[ids[patch, hi]]
    return poly_bary, patch, vertex_of[tri_index], tri_off
