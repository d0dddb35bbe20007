"""Assembled forms against closed-form oracles.

The main oracle is a flat level set phi = z - z0 on a box: the cut surface is
an exact plane, so mass, stiffness and stabilization integrals have pencil
and paper values independent of the cut-cell machinery.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from pointwise import (
    circumdiameters,
    cut_edge_points,
    interpolate_at_surface_qp,
    point_bary,
    point_coords,
    point_elem,
    point_patch,
    point_weights,
    tangential_grads,
    triangle_integrals,
    triangle_loads,
)
from savfem import assembly
from savfem.assembly import (
    _operators,
    assemble_coefficient_forms,
    assemble_f0prime_load,
    assemble_forms,
    assemble_load,
    assemble_normal_stabilization,
    assemble_surface_mass,
    assemble_surface_stiffness,
    compute_E1,
    compute_mass,
    l2_norm_gamma,
    on_pattern,
)
from savfem.config import SPHERE_BOX
from savfem.levelset import LevelSetField, idealized_cell, interpolate_p1, sphere
from savfem.mesh import build_active_mesh, build_mesh
from savfem.physics import f0, f0_prime, mobility


Z0 = 0.37  # irrational-ish plane height, cuts every column of cubes


@pytest.fixture(scope="module", params=[1, 2], ids=["flat-geom", "subdiv-geom"])
def plane_active(request):
    """Unit box cut by the plane z = Z0; exact area 1, normal e_z."""
    ls = LevelSetField("plane", lambda p: p[:, 2] - Z0)
    box = [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
    mesh = build_mesh(ls, box, 1)
    return build_active_mesh(mesh, levelset=ls, geometry_divisions=request.param)


def quad_form(active, mat, fn):
    v = fn(active.dof_coords)
    return float(v @ (mat @ v))


class TestPlaneOracle:
    def test_mass_total_is_plane_area(self, plane_active):
        mass = assemble_surface_mass(plane_active)
        assert mass.sum() == pytest.approx(1.0, rel=1e-12)

    def test_mass_quadratic_form(self, plane_active):
        # int_plane x^2 dA over the unit square = 1/3
        mass = assemble_surface_mass(plane_active)
        val = quad_form(plane_active, mass, lambda p: p[:, 0])
        assert val == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_stiffness_of_affine_field(self, plane_active):
        # u = x + 2y has tangential gradient (1, 2, 0): energy 5 * area
        stiff = assemble_surface_stiffness(plane_active)
        val = quad_form(plane_active, stiff, lambda p: p[:, 0] + 2.0 * p[:, 1])
        assert val == pytest.approx(5.0, rel=1e-12)

    def test_stiffness_kills_normal_direction(self, plane_active):
        # u = z is constant on the plane, so its tangential energy vanishes
        stiff = assemble_surface_stiffness(plane_active)
        val = quad_form(plane_active, stiff, lambda p: p[:, 2])
        assert abs(val) < 1e-13

    def test_stab_of_normal_field_is_band_volume(self, plane_active):
        # n = e_z exactly, so (n.grad z)^2 = 1 and the integral is the volume
        stab = assemble_normal_stabilization(plane_active)
        val = quad_form(plane_active, stab, lambda p: p[:, 2])
        assert val == pytest.approx(plane_active.band_volume, rel=1e-12)

    def test_stab_kills_tangential_field(self, plane_active):
        stab = assemble_normal_stabilization(plane_active)
        val = quad_form(plane_active, stab, lambda p: p[:, 0])
        assert abs(val) < 1e-13

    def test_patch_normals_are_ez(self, plane_active):
        # every patch normal is e_z: the Gram tables are those of the x and y
        # parts of the parent gradients
        g = plane_active.grads[plane_active.patch_elem][:, :, :2]
        planar = np.einsum("pik,pjk->pij", g, g).reshape(-1, 16)
        assert np.abs(plane_active.patch_gram - planar).max() < 1e-12 * np.abs(planar).max()

    def test_element_weighted_stab(self, plane_active):
        # the schemes scale stab by the uniform diameter h: the form with
        # each element weighted by its own diameter
        a = plane_active
        elem = np.einsum("eik,ekl,ejl->eij", a.grads, a.stab_metric, a.grads)
        d = circumdiameters(a)
        stab_h = _coo_oracle(a, d[:, None, None] * elem)
        h = float(np.mean(d))
        assert abs(stab_h - h * assemble_normal_stabilization(a)).max() < 1e-12 * h

    def test_mobility_coefficient_factorization(self, plane_active):
        # constant c = 1/2 gives M = 1/4 exactly, a pure rescaling
        c_qp = np.full(len(point_weights(plane_active)), 0.5)
        stiff = assemble_surface_stiffness(plane_active)
        mob = assemble_surface_stiffness(plane_active, triangle_integrals(plane_active, mobility(c_qp)))
        assert abs(mob - 0.25 * stiff).max() < 1e-14

    def test_f0prime_load_vanishes_at_half(self, plane_active):
        f0prime_qp = f0_prime(np.full(len(point_weights(plane_active)), 0.5))
        w = assemble_f0prime_load(plane_active, triangle_loads(plane_active, f0prime_qp))
        assert np.abs(w).max() < 1e-15

    def test_E1_of_constant_half(self, plane_active):
        # f0(1/2) = 1/64 on a unit-area plane
        c = np.full(plane_active.n_dofs, 0.5)
        assert compute_E1(plane_active, c) == pytest.approx(1.0 / 64.0, rel=1e-12)

    def test_mass_functional_of_affine_field(self, plane_active):
        c = plane_active.dof_coords[:, 0]
        assert compute_mass(plane_active, c) == pytest.approx(0.5, rel=1e-12)

    def test_l2_norm_of_affine_field(self, plane_active):
        c = plane_active.dof_coords[:, 0]
        assert l2_norm_gamma(plane_active, c) == pytest.approx(np.sqrt(1.0 / 3.0), rel=1e-12)

    def test_interpolation_is_exact_for_affine(self, plane_active):
        c = 2.0 * plane_active.dof_coords[:, 0] - plane_active.dof_coords[:, 1] + 0.25
        vals = interpolate_at_surface_qp(plane_active, c)
        points = point_coords(plane_active)
        exact = 2.0 * points[:, 0] - points[:, 1] + 0.25
        np.testing.assert_allclose(vals, exact, atol=1e-13)

    def test_load_of_affine_integrand(self, plane_active):
        # sum_j (f, psi_j) = int f because the P1 basis sums to one
        w = assemble_load(plane_active, lambda p: p[:, 0])
        assert w.sum() == pytest.approx(0.5, rel=1e-12)

    def test_load_accepts_precomputed_values(self, plane_active):
        vals = point_coords(plane_active)[:, 0]
        w1 = assemble_load(plane_active, vals)
        w2 = assemble_load(plane_active, lambda p: p[:, 0])
        np.testing.assert_allclose(w1, w2, atol=1e-15)

    def test_callable_load_by_rule_rows(self, sphere_l2):
        # the callable is evaluated on the (T, 3) points of one rule row at a
        # time; the load equals that of its values on all (Q, 3) points
        seen = []

        def integrand(p):
            seen.append(p.shape)
            return np.sin(3.0 * p[:, 0]) * p[:, 2] + p[:, 1] ** 2

        w = assemble_load(sphere_l2, integrand)
        n_tri = len(sphere_l2.tri_index)
        assert seen == [(n_tri, 3)] * 6
        oracle = assemble_load(sphere_l2, integrand(point_coords(sphere_l2)))
        assert np.linalg.norm(w - oracle) <= 1e-15 * np.linalg.norm(oracle)


class TestSphere:
    def test_eigenfunction_energy(self, sphere_l3):
        # x3 is a first spherical harmonic: int |grad_G x3|^2 = 8 pi / 3
        stiff = assemble_surface_stiffness(sphere_l3)
        val = quad_form(sphere_l3, stiff, lambda p: p[:, 2])
        assert val == pytest.approx(8.0 * np.pi / 3.0, rel=2e-2)

    def test_mass_row_sums_match_load_of_one(self, sphere_l3):
        mass = assemble_surface_mass(sphere_l3)
        ones_load = assemble_load(sphere_l3, lambda p: np.ones(len(p)))
        np.testing.assert_allclose(np.asarray(mass.sum(axis=1)).ravel(), ones_load, atol=1e-13)

    def test_matrices_are_symmetric(self, sphere_l2):
        for mat in (
            assemble_surface_mass(sphere_l2),
            assemble_surface_stiffness(sphere_l2),
            assemble_normal_stabilization(sphere_l2),
        ):
            assert abs(mat - mat.T).max() < 1e-13

    def test_stiffness_and_stab_psd(self, sphere_l2, rng):
        stiff = assemble_surface_stiffness(sphere_l2)
        stab = assemble_normal_stabilization(sphere_l2)
        for _ in range(5):
            v = rng.standard_normal(sphere_l2.n_dofs)
            assert v @ (stiff @ v) >= -1e-12
            assert v @ (stab @ v) >= -1e-12

    def test_stab_positive_on_levelset_interpolant(self, sphere_l2):
        # grad phi_h is normal-ish, so the normal-gradient energy is positive
        stab = assemble_normal_stabilization(sphere_l2)
        u = interpolate_p1(sphere(1.0), sphere_l2.mesh)[sphere_l2.active_nodes]
        assert u @ (stab @ u) > 0.0

    def test_mobility_matrix_psd_after_clamp(self, sphere_l2, rng):
        # nodal values outside [0, 1] still give a PSD matrix by clamping at
        # the quadrature points
        c = rng.uniform(-0.5, 1.5, sphere_l2.n_dofs)
        vals = mobility(interpolate_at_surface_qp(sphere_l2, c))
        mob = assemble_surface_stiffness(sphere_l2, triangle_integrals(sphere_l2, vals))
        for _ in range(5):
            v = rng.standard_normal(sphere_l2.n_dofs)
            assert v @ (mob @ v) >= -1e-12


class TestAssembledForms:
    def test_bundle_contents(self, sphere_l2_forms):
        import dataclasses

        forms = sphere_l2_forms
        assert forms.h_stab == pytest.approx(np.mean(circumdiameters(forms.active)), rel=1e-15)
        for form in (forms.stiffness, forms.stab):
            assert form.shape == forms.mass.shape
        # static forms only: nothing per step is stored on the bundle
        assert [f.name for f in dataclasses.fields(forms)] == [
            "active", "mass", "stiffness", "stab", "h_stab"
        ]
        with pytest.raises(dataclasses.FrozenInstanceError):
            forms.stab = None

    def test_coefficient_forms(self, sphere_l2_forms):
        forms = sphere_l2_forms
        c = np.full(forms.active.n_dofs, 0.5)
        mob, load, e1 = assemble_coefficient_forms(forms.active, c)
        assert abs(mob - 0.25 * forms.stiffness).max() < 1e-14
        assert np.abs(load).max() < 1e-15
        assert e1 == pytest.approx(forms.active.area / 64.0, rel=1e-14)


# Oracles: the element-scatter formulas the assembly used before its forms
# were built from cached operators (COO -> CSR with duplicate summation,
# np.add.at for loads, a gathered einsum for interpolation), on the
# per-point tables of tests/pointwise.py.


def _coo_oracle(active, elem_mats):
    d = active.elem_dofs
    rows = np.broadcast_to(d[:, :, None], elem_mats.shape).reshape(-1)
    cols = np.broadcast_to(d[:, None, :], elem_mats.shape).reshape(-1)
    n = active.n_dofs
    mat = sp.coo_matrix((elem_mats.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


def _interp_oracle(active, c):
    return np.einsum("qi,qi->q", point_bary(active), c[active.elem_dofs[point_elem(active)]])


def _load_oracle(active, vals):
    out = np.zeros(active.n_dofs)
    qdofs = active.elem_dofs[point_elem(active)]
    np.add.at(out, qdofs, (point_weights(active) * vals)[:, None] * point_bary(active))
    return out


def _element_sums(active, values):
    """Sums of the (Q, ...) point values over the points of each element."""
    elem = point_elem(active)
    points = np.arange(len(elem))
    summing = sp.csr_matrix((np.ones(len(elem)), (elem, points)), shape=(active.n_elements, len(elem)))
    return summing @ values


def _mass_oracle(active):
    """The degree-4 rule applied to the (Q, 4, 4) products of the basis values."""
    sq_bary = point_bary(active)
    contrib = point_weights(active)[:, None, None] * (sq_bary[:, :, None] * sq_bary[:, None, :])
    flat = _element_sums(active, contrib.reshape(len(contrib), -1))
    return _coo_oracle(active, flat.reshape(-1, 4, 4))


def _stiffness_oracle(active, weight):
    k_p = np.bincount(point_patch(active), weight, active.n_patches)
    patch_mats = k_p[:, None, None] * active.patch_gram.reshape(-1, 4, 4)
    patch_offsets = np.concatenate([[0], np.cumsum(np.bincount(active.patch_elem))])
    return _coo_oracle(active, np.add.reduceat(patch_mats, patch_offsets[:-1], axis=0))


class TestOperatorsAgainstElementScatter:
    @pytest.fixture(scope="class")
    def bernoulli(self, sphere_l2):
        rng = np.random.default_rng(7)
        return (rng.random(sphere_l2.n_dofs) < 0.5).astype(float)

    @staticmethod
    def assert_same_matrix(mat, oracle):
        np.testing.assert_array_equal(mat.indptr, oracle.indptr)
        np.testing.assert_array_equal(mat.indices, oracle.indices)
        scale = np.abs(oracle.data).max()
        np.testing.assert_allclose(mat.data, oracle.data, rtol=0.0, atol=1e-13 * scale)

    def test_interpolation(self, sphere_l2, bernoulli):
        vals = interpolate_at_surface_qp(sphere_l2, bernoulli)
        np.testing.assert_allclose(vals, _interp_oracle(sphere_l2, bernoulli), rtol=0.0, atol=1e-13)

    def test_interpolation_operator_shares_poly_bary(self, sphere_l2):
        interp = sphere_l2.poly_interp
        assert interp.shape == (len(sphere_l2.poly_bary), sphere_l2.n_dofs)
        assert np.shares_memory(interp.data, sphere_l2.poly_bary)

    @pytest.mark.parametrize("mesh_name", ["sphere_l2", "cell_l2"])
    def test_load_is_adjoint_of_interpolation(self, mesh_name, request):
        # (w v) . (B c) = (B^T (w v)) . c for the per-point operator B; a
        # slip in the vertex scatter of the load breaks it
        active = request.getfixturevalue(mesh_name)
        rng = np.random.default_rng(5)
        weights = point_weights(active)
        c, v = rng.standard_normal(active.n_dofs), rng.standard_normal(len(weights))
        lhs = np.dot(weights * v, interpolate_at_surface_qp(active, c))
        assert lhs == pytest.approx(np.dot(assemble_load(active, v), c), rel=1e-13)

    def test_loads(self, sphere_l2, bernoulli):
        for vals in (f0_prime(_interp_oracle(sphere_l2, bernoulli)), point_coords(sphere_l2)[:, 0]):
            oracle = _load_oracle(sphere_l2, vals)
            np.testing.assert_allclose(
                assemble_load(sphere_l2, vals), oracle, rtol=0.0, atol=1e-13 * np.abs(oracle).max()
            )
        oracle = _load_oracle(sphere_l2, f0_prime(_interp_oracle(sphere_l2, bernoulli)))
        np.testing.assert_allclose(
            assemble_f0prime_load(
                sphere_l2, triangle_loads(sphere_l2, f0_prime(interpolate_at_surface_qp(sphere_l2, bernoulli)))
            ),
            oracle, rtol=0.0, atol=1e-13 * np.abs(oracle).max(),
        )

    def test_mass_and_stiffness(self, sphere_l2):
        self.assert_same_matrix(assemble_surface_mass(sphere_l2), _mass_oracle(sphere_l2))
        self.assert_same_matrix(
            assemble_surface_stiffness(sphere_l2), _stiffness_oracle(sphere_l2, point_weights(sphere_l2))
        )

    @pytest.mark.parametrize("mesh_name", ["sphere_l2", "sphere_l2_flat", "cell_l2"])
    def test_exact_mass_matches_quadrature(self, mesh_name, request):
        # the triangle formula against the degree-4 rule, which integrates
        # the quadratic integrand exactly
        active = request.getfixturevalue(mesh_name)
        mass, oracle = assemble_surface_mass(active), _mass_oracle(active)
        np.testing.assert_array_equal(mass.indices, oracle.indices)
        scale = np.abs(oracle.data).max()
        np.testing.assert_allclose(mass.data, oracle.data, rtol=0.0, atol=1e-13 * scale)

    def test_forms_allocate_no_per_point_matrices(self):
        # a (Q, 4, 4) array of the surface points is Q * 16 * 8 bytes; the
        # static forms are built from per-triangle and per-patch arrays
        mesh = build_mesh(sphere(1.0), SPHERE_BOX, 3)
        active = build_active_mesh(mesh, levelset=sphere(1.0))
        tracemalloc.start()
        try:
            assemble_forms(active)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(point_weights(active)) * 16 * 8

    @pytest.mark.parametrize("mesh_name", ["sphere_l2", "cell_l2"])
    def test_mass_vector(self, mesh_name, request):
        # m_j = int psi_j: the degree-4 load of one and the mass row sums
        active = request.getfixturevalue(mesh_name)
        m = _operators(active).mass_vector
        oracle = _load_oracle(active, np.ones(len(point_weights(active))))
        np.testing.assert_allclose(m, oracle, rtol=0.0, atol=1e-13 * np.abs(oracle).max())
        row_sums = np.asarray(assemble_surface_mass(active).sum(axis=1)).ravel()
        np.testing.assert_allclose(m, row_sums, rtol=0.0, atol=1e-13 * np.abs(oracle).max())

    def test_mobility_keeps_exact_zeros(self, sphere_l2, cell_l2):
        for active in (sphere_l2, cell_l2):
            bernoulli = _fields(active)["bernoulli"]
            mob, _, _ = assemble_coefficient_forms(active, bernoulli)
            weight = point_weights(active) * mobility(_interp_oracle(active, bernoulli))
            self.assert_same_matrix(mob, _stiffness_oracle(active, weight))
            # entries whose elements all have M(c_h) = 0 are exact zeros, still stored
            vals = mobility(interpolate_at_surface_qp(active, bernoulli))
            alive = _element_sums(active, vals) > 0.0
            counts = _coo_oracle(active, np.broadcast_to(alive[:, None, None], (len(alive), 4, 4)) * 1.0)
            dead = counts.data == 0.0
            assert dead.sum() > 0
            assert np.all(mob.data[dead] == 0.0)

    def test_stabilization(self, sphere_l2):
        a = sphere_l2
        elem = np.einsum("eik,ekl,ejl->eij", a.grads, a.stab_metric, a.grads)
        stab = assemble_normal_stabilization(a)
        self.assert_same_matrix(stab, _coo_oracle(a, elem))
        # the uniform scalings the schemes use equal the diameter-weighted forms
        d = circumdiameters(a)
        h = float(np.mean(d))
        for scale, weight in ((h, d), (1.0 / h, 1.0 / d)):
            self.assert_same_matrix(scale * stab, _coo_oracle(a, weight[:, None, None] * elem))

    def test_every_form_has_one_pattern(self, sphere_l2_forms, bernoulli):
        forms = sphere_l2_forms
        mob, _, _ = assemble_coefficient_forms(forms.active, bernoulli)
        for form in (forms.stiffness, forms.stab, mob):
            np.testing.assert_array_equal(form.indptr, forms.mass.indptr)
            np.testing.assert_array_equal(form.indices, forms.mass.indices)


_LEVELSETS = {"sphere_l2": sphere(1.0), "cell_l2": idealized_cell()}


def _patch_to_pattern(active, tg):
    """G (nnz x n_p): patch p's Gram tensor at its element's pattern
    positions, so that the coefficient stiffness is G k_p."""
    ops, n_p = _operators(active), active.n_patches
    gram = np.einsum("pik,pjk->pij", tg, tg).reshape(-1)
    rows = ops.positions.reshape(-1, 16)[active.patch_elem].reshape(-1)
    return sp.csc_matrix((gram, rows, np.arange(0, 16 * n_p + 1, 16)), shape=(len(ops.indices), n_p))


@pytest.mark.parametrize("mesh_name", ["sphere_l2", "cell_l2"])
class TestSurfaceTablesAgainstPatchStage:
    """The per-patch Gram table, the derived polygon points and the element
    scatter of the coefficient stiffness against the tables they replaced."""

    @staticmethod
    def assert_close(actual, oracle):
        np.testing.assert_allclose(actual, oracle, rtol=0.0, atol=1e-14 * np.abs(oracle).max())

    def test_gram_table(self, mesh_name, request):
        active = request.getfixturevalue(mesh_name)
        tg = tangential_grads(active, _LEVELSETS[mesh_name])
        self.assert_close(active.patch_gram, np.einsum("pik,pjk->pij", tg, tg).reshape(-1, 16))

    def test_polygon_points(self, mesh_name, request):
        active = request.getfixturevalue(mesh_name)
        self.assert_close(active.polygon_points[active.tri_index], cut_edge_points(active, _LEVELSETS[mesh_name]))

    def test_coefficient_stiffness(self, mesh_name, request):
        active = request.getfixturevalue(mesh_name)
        g = _patch_to_pattern(active, tangential_grads(active, _LEVELSETS[mesh_name]))
        k = 0.5 + 0.4 * np.sin(5.0 * point_coords(active)[:, 0])
        k_p = np.bincount(point_patch(active), point_weights(active) * k, active.n_patches)
        mat = assemble_surface_stiffness(active, triangle_integrals(active, k))
        oracle = on_pattern(active, g @ k_p)
        np.testing.assert_array_equal(mat.indices, oracle.indices)
        self.assert_close(mat.data, oracle.data)


def test_E1_matches_quadrature_of_f0(sphere_l2, cell_l2, rng):
    for active in (sphere_l2, cell_l2):
        c = rng.uniform(0.0, 1.0, active.n_dofs)
        vals = f0(_interp_oracle(active, c))
        assert compute_E1(active, c) == pytest.approx(float(np.dot(point_weights(active), vals)), rel=1e-14)


# Oracles: the three separate evaluations of a step's reference field that
# assemble_coefficient_forms replaced, each interpolating it again.


def _separate_mobility(active, c):
    vals = mobility(interpolate_at_surface_qp(active, c))
    return assemble_surface_stiffness(active, triangle_integrals(active, vals))


def _separate_load(active, c):
    return assemble_load(active, f0_prime(interpolate_at_surface_qp(active, c)))


def _separate_E1(active, c):
    return float(np.dot(point_weights(active), f0(interpolate_at_surface_qp(active, c))))


def _fields(active):
    """Bernoulli data, whose mobility has exact zeros, and a smooth field."""
    rng = np.random.default_rng(11)
    x = active.dof_coords
    return {
        "bernoulli": (rng.random(active.n_dofs) < 0.5).astype(float),
        "smooth": 0.5 + 0.4 * np.sin(3.0 * x[:, 0]) * x[:, 2],
    }


@pytest.mark.parametrize("field", ["bernoulli", "smooth"])
class TestOneInterpolationPerStep:
    def test_equals_separate_evaluations(self, sphere_l2, field):
        c = _fields(sphere_l2)[field]
        mob, w, e1 = assemble_coefficient_forms(sphere_l2, c)
        oracle = _separate_mobility(sphere_l2, c)
        np.testing.assert_array_equal(mob.indptr, oracle.indptr)
        np.testing.assert_array_equal(mob.indices, oracle.indices)
        np.testing.assert_array_equal(mob.data, oracle.data)
        np.testing.assert_array_equal(w, _separate_load(sphere_l2, c))
        assert e1 == compute_E1(sphere_l2, c)
        assert e1 == pytest.approx(_separate_E1(sphere_l2, c), rel=1e-14)

    def test_interpolates_once(self, sphere_l2, field, monkeypatch):
        # B_P is applied to the reference field once per call: every block
        # of points is formed from the one vector of vertex values
        applied = []

        class CountingInterp(sp.csr_matrix):
            def __matmul__(self, other):
                applied.append(np.shape(other))
                return super().__matmul__(other)

        monkeypatch.setattr(sphere_l2, "poly_interp", CountingInterp(sphere_l2.poly_interp))
        assemble_coefficient_forms(sphere_l2, _fields(sphere_l2)[field])
        assert applied == [(sphere_l2.n_dofs,)]

    @pytest.mark.parametrize("mesh_name", ["sphere_l2", "cell_l2"])
    def test_mass_norm_equals_quadrature_norm(self, mesh_name, field, request):
        # the adaptive error's sqrt(c^T M c): the degree-4 rule integrates
        # c_h^2 exactly, so both are the exact L2 norm up to round-off
        active = request.getfixturevalue(mesh_name)
        c = _fields(active)[field]
        mass = assemble_surface_mass(active)
        assert np.sqrt(c @ (mass @ c)) == pytest.approx(l2_norm_gamma(active, c), rel=1e-14)


@pytest.mark.parametrize("mesh_name", ["sphere_l2", "cell_l2"])
def test_short_blocks_change_no_bit(mesh_name, request, monkeypatch):
    # blocks of 48 triangles end inside two-triangle patches and inside
    # elements.  The length is a multiple of 16, like the default: OpenBLAS's
    # gemv sums the rows of a call past a multiple of its unroll (4 rows on
    # Haswell) in another order, so an odd length moves the triangle
    # integrals w . f at round-off
    active = request.getfixturevalue(mesh_name)
    c = _fields(active)["smooth"]

    def results():
        mob, w, e1 = assemble_coefficient_forms(active, c)
        mass = assemble_surface_mass(active)
        return [mob.data, w, e1, compute_E1(active, c), l2_norm_gamma(active, c), mass.data, mass.indices]

    default = results()
    monkeypatch.setattr(assembly, "_COLUMNS", 48)
    for short, full in zip(results(), default):
        np.testing.assert_array_equal(short, full)
    ends = np.arange(48, len(active.tri_index), 48)
    offsets = active.tri_patch_offsets
    assert len(ends) > 10
    assert not np.isin(ends, offsets).all()
    assert not np.isin(ends, offsets[_operators(active).patch_indptr]).all()
