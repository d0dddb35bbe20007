"""Assembly of trace finite element forms on the active mesh.

All bilinear forms live on the space of P1 functions on the cut tetrahedra,
restricted to the discrete surface Gamma_h:

    mass       (u, v)_{Gamma_h}
    stiffness  (k grad_G u, grad_G v)_{Gamma_h}   with optional coefficient k
    stab       (n.grad u, n.grad v)_{Omega_h}     kernel grad_i . M_e . grad_j,
               M_e = sum_s |T_s| n_s n_s^T

Two operators carry every form: the CSR pattern of the element scatter
``elem_dofs``, built here once per active mesh with the position of each
element entry (e, i, j) in its ``data``, and the mesh's B_P
(``poly_interp``, P x N, ``data`` is ``poly_bary``): c_h at the cut-polygon
vertices.  The mesh keeps each surface triangle's area |T| and nothing per
point; the rule lives here: rule point k of a triangle is a fixed
combination R_k of its vertices, with weight w_k |T|.  The per-step work on
the points runs on blocks of b triangles, in which c_h is R V (6 x b) with
V = (B_P c)[tri_index^T] (3 x b), and each block is reduced at once to
per-triangle integrals w^T f and vertex loads R^T diag(w) f.  Only these
(T,) and (3, T) arrays outlive a block; scaled by |T| they are what the
coefficient stiffness and the SAV load take, an integral is their sum, a
load (f, psi_j) is B_P^T of their vertex sums, and int c_h = m . c,
m_j = int psi_j.
Every form is one ``bincount`` of element matrices over the positions.  The
stiffness ones sum k_p = int_p k ds (the integrals over the patch's one or
two triangles, or its area when k = 1) times the Gram table ``patch_gram``
over the element's patches (gradients and normals are constant per patch), by a CSR
product.  Every matrix is ``data`` on the one pattern with explicit
zeros kept, so no form needs a sparse add or a duplicate summation, and
blocks combine by adding ``data``.

The mass comes from the exact P1 triangle mass |T|/12 (1 + delta_ab) on each
surface triangle, in the B_P rows of its vertices read at its element's
dofs, which the degree-4 rule would reproduce to round-off with a 4 x 4
product per quadrature point; these triangle matrices exist only for one
block of whole elements at a time.  The degree-4 surface rule integrates
every nonlinear P1 integrand used here exactly: f0(c_h) and f0'(c_h) psi_j
are quartic per element, the mobility weight is quadratic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .mesh import ActiveMesh
from .physics import f0
from .quadrature import triangle_bary_rule

# (6, 3) R, (6,) w and R^T diag(w) for the vertex sums of a load.  Work on
# the surface points runs on blocks of _COLUMNS triangles: a (6, b) block is
# 192 KiB and stays in L2, and its product with a rule table, 6 x 3 x 4096
# multiply-adds, stays on one OpenBLAS thread (a threaded one can wait 8 ms
# for a busy core).  OpenBLAS's gemv sums the last (b mod 4) rows of a call
# in another order, so the reductions w . f repeat bit for bit only for
# block lengths that are multiples of 4.
_RULE_BARY, _RULE_W = triangle_bary_rule()
_WEIGHTED_RULE_T = np.ascontiguousarray(_RULE_BARY.T * _RULE_W)
_COLUMNS = 4096

__all__ = [
    "AssembledForms",
    "assemble_forms",
    "assemble_surface_mass",
    "assemble_surface_stiffness",
    "assemble_normal_stabilization",
    "assemble_f0prime_load",
    "assemble_coefficient_forms",
    "assemble_load",
    "compute_E1",
    "compute_mass",
    "l2_norm_gamma",
    "on_pattern",
]


class _Operators(NamedTuple):
    indptr: np.ndarray  # CSR pattern of the element scatter, shared by every form
    indices: np.ndarray
    positions: np.ndarray  # (n_e * 16,) intp, read uncast by every bincount: entry (e, i, j) -> data index
    patch_indptr: np.ndarray  # (n_e + 1,) each element's patches, which are parent-major
    patch_indices: np.ndarray  # (n_p,) arange: patch columns of the element-patch CSR
    pair_patches: np.ndarray  # the patches of two triangles (the rest have one) ...
    pair_seconds: np.ndarray  # ... and their second triangles
    mass_vector: np.ndarray  # m_j = int psi_j ds


def _blocks(n: int) -> list[slice]:
    """Consecutive slices of ``_COLUMNS`` triangles that cover 0..n."""
    return [slice(i, min(i + _COLUMNS, n)) for i in range(0, n, _COLUMNS)]


def _point_blocks(active: ActiveMesh, c: np.ndarray):
    """For each block of triangles: its slice and the (6, b) values of c_h
    at its points, R (B_P c)[tri_index^T].  B_P is applied once; every block
    is written into one buffer, so each is spent before the next."""
    vertex_values = active.poly_interp @ np.asarray(c, dtype=float)
    buffer = np.empty((len(_RULE_BARY), _COLUMNS))
    for block in _blocks(len(active.tri_index)):
        values = buffer[:, : block.stop - block.start]
        np.matmul(_RULE_BARY, vertex_values[active.tri_index[block].T], out=values)
        yield block, values


def _triangle_integrals(active: ActiveMesh, c: np.ndarray, integrand) -> np.ndarray:
    """(T,) surface rule of integrand(c_h) on each triangle: |T| w . f."""
    out = np.empty(len(active.tri_index))
    for block, values in _point_blocks(active, c):
        np.matmul(_RULE_W[None, :], integrand(values), out=out[None, block])
    out *= active.tri_areas
    return out


def _operators(active: ActiveMesh) -> _Operators:
    ops = active._cache.get("operators")
    if ops is None:
        n = active.n_dofs
        d = active.elem_dofs.astype(np.int64)
        keys, pos = np.unique((d[:, :, None] * n + d[:, None, :]).reshape(-1), return_inverse=True)
        indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
        indices = (keys % n).astype(np.int32)
        patch_indptr = np.searchsorted(active.patch_elem, np.arange(active.n_elements + 1)).astype(np.int32)
        patch_indices = np.arange(active.n_patches, dtype=np.int32)
        pair_patches = np.flatnonzero(np.diff(active.tri_patch_offsets) == 2)
        pair_seconds = active.tri_patch_offsets[pair_patches] + 1
        for a in (indptr, indices, patch_indptr, patch_indices, pair_patches, pair_seconds):
            a.setflags(write=False)  # shared by every call: nothing may sort or prune in place
        # exact P1: int psi_j over a triangle is |T| / 3 at each of its vertices
        b = active.poly_interp
        m = b.T @ np.bincount(active.tri_index.reshape(-1), np.repeat(active.tri_areas / 3.0, 3), b.shape[0])
        ops = active._cache["operators"] = _Operators(
            indptr, indices, pos, patch_indptr, patch_indices, pair_patches, pair_seconds, m
        )
    return ops


def on_pattern(active: ActiveMesh, data: np.ndarray) -> sp.csr_matrix:
    """``data`` on the CSR pattern every form of ``active`` shares.  Unlike a
    sparse add, this keeps explicit zeros, so every block has the pattern."""
    ops = _operators(active)
    return sp.csr_matrix((data, ops.indices, ops.indptr), shape=(active.n_dofs, active.n_dofs))


def _scatter(active: ActiveMesh, elem_mats: np.ndarray) -> sp.csr_matrix:
    """Sum of (n_e, 4, 4) element matrices on the pattern."""
    ops = _operators(active)
    return on_pattern(active, np.bincount(ops.positions, elem_mats.reshape(-1), len(ops.indices)))


# The exact P1 mass of a triangle of unit area in its vertex values:
# int_T l_a l_b ds = |T| (1 + delta_ab) / 12.
_P1_TRIANGLE_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0


def assemble_surface_mass(active: ActiveMesh) -> sp.csr_matrix:
    """(u, v)_{Gamma_h} in CSR form.

    The parent basis is linear on each surface triangle, so the mass is the
    exact P1 triangle mass in the basis values at the triangle's vertices:
    their B_P rows, each in the frame of the patch that computed the vertex,
    read at the dofs of the triangle's element, which hold all their nonzeros.
    The triangle matrices are formed and summed per element in blocks of
    whole elements, about ``_COLUMNS`` triangles each.
    """
    # an element's triangles are those of its patches, and every patch has one
    tri_ptr = active.tri_patch_offsets[_operators(active).patch_indptr]  # (n_e + 1,)
    starts = np.searchsorted(tri_ptr, np.arange(0, tri_ptr[-1], _COLUMNS))
    elem_mats = np.empty((active.n_elements, 16))
    for e0, e1 in itertools.pairwise(np.unique(np.append(starts, active.n_elements))):
        tris, ptr = slice(tri_ptr[e0], tri_ptr[e1]), tri_ptr[e0 : e1 + 1] - tri_ptr[e0]
        tri_dofs = np.repeat(active.elem_dofs[e0:e1], np.diff(ptr), axis=0)  # (b, 4)
        bary = np.empty((len(tri_dofs), 3, 4))
        for k, corner in enumerate(active.tri_index[tris].T):  # a corner at a time: index arrays of (4 b,)
            bary[:, k] = active.poly_interp[np.repeat(corner, 4), tri_dofs.reshape(-1)].reshape(-1, 4)
        tri_mats = np.matmul(bary.transpose(0, 2, 1), np.matmul(_P1_TRIANGLE_MASS, bary)).reshape(-1, 16)
        tri_mats *= active.tri_areas[tris, None]
        elem_mats[e0:e1] = sp.csr_matrix((np.ones(len(tri_mats)), np.arange(len(tri_mats)), ptr)) @ tri_mats
    return _scatter(active, elem_mats)


def assemble_surface_stiffness(active: ActiveMesh, coefficient=None) -> sp.csr_matrix:
    """(k grad_G u, grad_G v)_{Gamma_h}.

    ``coefficient`` holds int_T k ds on each surface triangle (e.g. of the
    mobility of an interpolated field); without it, k = 1, whose integrals
    are the areas.  A patch has one or two triangles, so its k_p is its
    first triangle's integral plus, on the two-triangle patches, the second's.
    """
    tri_k = active.tri_areas if coefficient is None else coefficient
    ops = _operators(active)
    k_p = tri_k[active.tri_patch_offsets[:-1]]
    k_p[ops.pair_patches] += tri_k[ops.pair_seconds]
    per_elem = sp.csr_matrix((k_p, ops.patch_indices, ops.patch_indptr), shape=(active.n_elements, len(k_p)))
    return _scatter(active, per_elem @ active.patch_gram)


def assemble_normal_stabilization(active: ActiveMesh) -> sp.csr_matrix:
    """(n.grad u, n.grad v)_{Omega_h} over the cut tetrahedra."""
    elem_mats = np.einsum("eik,ekl,ejl->eij", active.grads, active.stab_metric, active.grads)
    return _scatter(active, elem_mats)


def _vertex_load(active: ActiveMesh, tri_loads: np.ndarray) -> np.ndarray:
    """B_P^T of the vertex sums of the (3, T) per-triangle vertex loads."""
    vertex_sums = np.bincount(active.tri_index.reshape(-1), tri_loads.T.reshape(-1), len(active.poly_bary))
    return active.poly_interp.T @ vertex_sums


def assemble_f0prime_load(active: ActiveMesh, tri_loads: np.ndarray) -> np.ndarray:
    """SAV load w_j = (f0'(c_h), psi_j)_{Gamma_h} from its (3, T) per-triangle
    vertex loads, |T| (R^T diag(w) f0') on each triangle."""
    return _vertex_load(active, tri_loads)


def assemble_coefficient_forms(active: ActiveMesh, c_ref: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray, float]:
    """The mobility stiffness (M(c) grad u, grad v), the SAV load
    (f0'(c), psi_j) and E1(c) of one step, at its reference field ``c_ref``,
    to which B_P is applied once.  Each block of points forms M, f0 and f0'
    in place from s = c (1 - c), in the operation order of ``physics``, so
    that each equals its function there bitwise, and reduces them with the
    rule into per-triangle integrals and vertex loads; the area scaling and
    the sums over patches and vertices run once, on those."""
    n = len(active.tri_index)
    tri_mobility, tri_f0, tri_loads = np.empty(n), np.empty(n), np.empty((3, n))
    s_buffer, t_buffer = np.empty((2, len(_RULE_BARY), _COLUMNS))
    w = _RULE_W[None, :]
    for block, c in _point_blocks(active, c_ref):
        s, t = s_buffer[:, : c.shape[1]], t_buffer[:, : c.shape[1]]
        np.multiply(np.subtract(1.0, c, out=s), c, out=s)
        np.matmul(w, np.maximum(s, 0.0, out=t), out=tri_mobility[None, block])
        np.multiply(np.square(s, out=t), 0.25, out=t)
        np.matmul(w, t, out=tri_f0[None, block])
        s *= 0.5
        s *= np.add(np.multiply(c, -2.0, out=c), 1.0, out=c)
        np.matmul(_WEIGHTED_RULE_T, s, out=tri_loads[:, block])
    for values in (tri_mobility, tri_f0, tri_loads):
        values *= active.tri_areas
    mobility = assemble_surface_stiffness(active, tri_mobility)
    return mobility, assemble_f0prime_load(active, tri_loads), float(tri_f0.sum())


def assemble_load(active: ActiveMesh, values) -> np.ndarray:
    """Load vector (f, psi_j)_{Gamma_h}.

    ``values`` is a precomputed rule-major (Q,) array, or a callable evaluated
    on the (T, 3) surface points of one rule row at a time, built for the call.
    """
    if callable(values):
        corners = active.polygon_points[active.tri_index.T].reshape(3, -1)  # (3, T * 3)
        values = np.stack([values((row @ corners).reshape(-1, 3)) for row in _RULE_BARY])
    values = np.asarray(values, dtype=float).reshape(len(_RULE_W), -1)  # rule-major (6, T)
    tri_loads = np.empty((3, values.shape[1]))
    for block in _blocks(values.shape[1]):
        np.matmul(_WEIGHTED_RULE_T, values[:, block], out=tri_loads[:, block])
    tri_loads *= active.tri_areas
    return _vertex_load(active, tri_loads)


def compute_E1(active: ActiveMesh, c: np.ndarray) -> float:
    """E1(c) = int_{Gamma_h} f0(c_h) ds, exact for the degree-4 rule."""
    return float(_triangle_integrals(active, c, f0).sum())


def compute_mass(active: ActiveMesh, c: np.ndarray) -> float:
    """int_{Gamma_h} c_h ds, as m . c."""
    return float(_operators(active).mass_vector @ np.asarray(c, dtype=float))


def l2_norm_gamma(active: ActiveMesh, c: np.ndarray) -> float:
    """||c_h||_{L2(Gamma_h)}."""
    return float(np.sqrt(_triangle_integrals(active, c, np.square).sum()))


@dataclass(frozen=True)
class AssembledForms:
    """Static forms of one active mesh.

    The schemes scale ``stab`` by ``h_stab``, the circumscribed diameter
    sqrt(3) h of every Kuhn tetrahedron of the uniform band mesh, in the
    c-equation and by its inverse in the mu-equation.
    """

    active: ActiveMesh
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    stab: sp.csr_matrix
    h_stab: float


def assemble_forms(active: ActiveMesh) -> AssembledForms:
    return AssembledForms(
        active=active,
        mass=assemble_surface_mass(active),
        stiffness=assemble_surface_stiffness(active),
        stab=assemble_normal_stabilization(active),
        h_stab=float(np.sqrt(3.0) * active.mesh.h),
    )
