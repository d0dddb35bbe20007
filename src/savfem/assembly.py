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
point; the rule lives here, rule-major: point k T + t is rule point k, a
fixed combination R_k of the vertices, of triangle t, with weight w_k |T|.
So c_h there is R V (6 x T) with V = (B_P c)[tri_index^T] (3 x T), an
integral is |T| (w^T f), a load (f, psi_j) is B_P^T of the vertex sums of
|T| (R^T diag(w) f), and int c_h = m . c, m_j = int psi_j.
Every form is one ``bincount`` of element matrices over the positions.  The
stiffness ones sum k_p = int_p k ds (the triangle integrals summed over the
patch, or its area when k = 1) times the Gram table ``patch_gram`` over the
element's patches (gradients and normals are constant per patch), by a CSR
product.  Every matrix is ``data`` on the one pattern with explicit
zeros kept, so no form needs a sparse add or a duplicate summation, and
blocks combine by adding ``data``.

The mass comes from the exact P1 triangle mass |T|/12 (1 + delta_ab) on each
surface triangle, in the B_P rows of its vertices read at its element's
dofs, which the degree-4 rule would reproduce to round-off with a 4 x 4
product per quadrature point.  The degree-4 surface rule integrates
every nonlinear P1 integrand used here exactly: f0(c_h) and f0'(c_h) psi_j
are quartic per element, the mobility weight is quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .mesh import ActiveMesh
from .physics import f0
from .quadrature import triangle_bary_rule

# (6, 3) R, (6,) w and R^T diag(w) for the vertex sums of a load.  Products with
# them run in blocks of _COLUMNS triangles, 6 x 3 x 8192 multiply-adds, which
# OpenBLAS keeps on one thread: a threaded one can wait 8 ms for a busy core.
_RULE_BARY, _RULE_W = triangle_bary_rule()
_WEIGHTED_RULE_T = np.ascontiguousarray(_RULE_BARY.T * _RULE_W)
_COLUMNS = 8192

__all__ = [
    "AssembledForms",
    "assemble_forms",
    "assemble_surface_mass",
    "assemble_surface_stiffness",
    "assemble_normal_stabilization",
    "assemble_f0prime_load",
    "assemble_coefficient_forms",
    "assemble_load",
    "interpolate_at_surface_qp",
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
    mass_vector: np.ndarray  # m_j = int psi_j ds


def _rule_product(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """table @ values for a rule table (m, k) and rule-major values (k, T)."""
    values = values.reshape(table.shape[1], -1)
    out = np.empty((len(table), values.shape[1]))
    for i in range(0, values.shape[1], _COLUMNS):
        np.matmul(table, values[:, i : i + _COLUMNS], out=out[:, i : i + _COLUMNS])
    return out


def _triangle_integrals(active: ActiveMesh, values: np.ndarray) -> np.ndarray:
    """(T,) surface rule on each triangle of the point values f: |T| w . f."""
    return active.tri_areas * _rule_product(_RULE_W[None, :], values)[0]


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
        for a in (indptr, indices, patch_indptr, patch_indices):
            a.setflags(write=False)  # shared by every call: nothing may sort or prune in place
        # exact P1: int psi_j over a triangle is |T| / 3 at each of its vertices
        b = active.poly_interp
        m = b.T @ np.bincount(active.tri_index.reshape(-1), np.repeat(active.tri_areas / 3.0, 3), b.shape[0])
        ops = active._cache["operators"] = _Operators(indptr, indices, pos, patch_indptr, patch_indices, m)
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


def interpolate_at_surface_qp(active: ActiveMesh, c: np.ndarray) -> np.ndarray:
    """P1 values of the DOF vector c at all surface quadrature points, rule-major."""
    vertex_values = active.poly_interp @ np.asarray(c, dtype=float)
    return _rule_product(_RULE_BARY, vertex_values[active.tri_index.T]).reshape(-1)


# The exact P1 mass of a triangle of unit area in its vertex values:
# int_T l_a l_b ds = |T| (1 + delta_ab) / 12.
_P1_TRIANGLE_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0


def assemble_surface_mass(active: ActiveMesh) -> sp.csr_matrix:
    """(u, v)_{Gamma_h} in CSR form.

    The parent basis is linear on each surface triangle, so the mass is the
    exact P1 triangle mass in the basis values at the triangle's vertices:
    their B_P rows, each in the frame of the patch that computed the vertex,
    read at the dofs of the triangle's element, which hold all their nonzeros.
    """
    tri_dofs = active.elem_dofs[np.repeat(active.patch_elem, np.diff(active.tri_patch_offsets))]  # (T, 4)
    bary = np.empty((len(tri_dofs), 3, 4))
    for k, corner in enumerate(active.tri_index.T):  # a corner at a time: the lookup's index arrays are (4 T,)
        bary[:, k] = active.poly_interp[np.repeat(corner, 4), tri_dofs.reshape(-1)].reshape(-1, 4)
    tri_mats = np.matmul(bary.transpose(0, 2, 1), np.matmul(_P1_TRIANGLE_MASS, bary))
    tri_mats *= active.tri_areas[:, None, None]
    # an element's triangles are those of its patches, and every patch has one
    tri_ptr, n_tri = active.tri_patch_offsets[_operators(active).patch_indptr], len(tri_mats)
    per_elem = sp.csr_matrix((np.ones(n_tri), np.arange(n_tri), tri_ptr), shape=(active.n_elements, n_tri))
    return _scatter(active, per_elem @ tri_mats.reshape(-1, 16))


def assemble_surface_stiffness(active: ActiveMesh, coefficient=None) -> sp.csr_matrix:
    """(k grad_G u, grad_G v)_{Gamma_h}.

    ``coefficient`` holds k at the rule-major surface quadrature points
    (e.g. the mobility of an interpolated field); without it, k = 1.
    """
    tri_k = active.tri_areas if coefficient is None else _triangle_integrals(active, coefficient)
    k_p = np.add.reduceat(tri_k, active.tri_patch_offsets[:-1])
    ops = _operators(active)
    per_elem = sp.csr_matrix((k_p, ops.patch_indices, ops.patch_indptr), shape=(active.n_elements, len(k_p)))
    return _scatter(active, per_elem @ active.patch_gram)


def assemble_normal_stabilization(active: ActiveMesh) -> sp.csr_matrix:
    """(n.grad u, n.grad v)_{Omega_h} over the cut tetrahedra."""
    elem_mats = np.einsum("eik,ekl,ejl->eij", active.grads, active.stab_metric, active.grads)
    return _scatter(active, elem_mats)


def assemble_f0prime_load(active: ActiveMesh, f0prime_qp: np.ndarray) -> np.ndarray:
    """SAV load w_j = (f0'(c_h), psi_j)_{Gamma_h} from f0'(c_h) at the surface points."""
    return assemble_load(active, f0prime_qp)


def assemble_coefficient_forms(active: ActiveMesh, c_ref: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray, float]:
    """The mobility stiffness (M(c) grad u, grad v), the SAV load
    (f0'(c), psi_j) and E1(c) of one step, at its reference field ``c_ref``,
    which is interpolated to the quadrature points once.  One in-place pass
    forms M, f0 and f0' there from s = c (1 - c), in the operation order of
    ``physics``, so that each equals its function there bitwise."""
    c = interpolate_at_surface_qp(active, c_ref)
    s = (1.0 - c) * c  # numpy reuses the temporary 1 - c
    mobility = assemble_surface_stiffness(active, np.maximum(s, 0.0))
    e1 = float(_triangle_integrals(active, np.square(s) * 0.25).sum())
    s *= 0.5
    s *= np.add(np.multiply(c, -2.0, out=c), 1.0, out=c)
    return mobility, assemble_f0prime_load(active, s), e1


def assemble_load(active: ActiveMesh, values) -> np.ndarray:
    """Load vector (f, psi_j)_{Gamma_h}.

    ``values`` is a precomputed rule-major (Q,) array, or a callable evaluated
    on the (T, 3) surface points of one rule row at a time, built for the call.
    """
    if callable(values):
        corners = active.polygon_points[active.tri_index.T].reshape(3, -1)  # (3, T * 3)
        values = np.stack([values((row @ corners).reshape(-1, 3)) for row in _RULE_BARY])
    tri_values = _rule_product(_WEIGHTED_RULE_T, np.asarray(values, dtype=float))  # (3, T)
    tri_values *= active.tri_areas
    vertex_sums = np.bincount(active.tri_index.reshape(-1), tri_values.T.reshape(-1), len(active.poly_bary))
    return active.poly_interp.T @ vertex_sums


def compute_E1(active: ActiveMesh, c: np.ndarray) -> float:
    """E1(c) = int_{Gamma_h} f0(c_h) ds, exact for the degree-4 rule."""
    return float(_triangle_integrals(active, f0(interpolate_at_surface_qp(active, c))).sum())


def compute_mass(active: ActiveMesh, c: np.ndarray) -> float:
    """int_{Gamma_h} c_h ds, as m . c."""
    return float(_operators(active).mass_vector @ np.asarray(c, dtype=float))


def l2_norm_gamma(active: ActiveMesh, c: np.ndarray) -> float:
    """||c_h||_{L2(Gamma_h)}."""
    return float(np.sqrt(_triangle_integrals(active, interpolate_at_surface_qp(active, c) ** 2).sum()))


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
