"""Assembled forms against closed-form oracles.

The main oracle is a flat level set phi = z - z0 on a box: the cut surface is
an exact plane, so mass, stiffness and stabilization integrals have pencil
and paper values independent of the cut-cell machinery.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from savfem.assembly import (
    assemble_coefficient_forms,
    assemble_f0prime_load,
    assemble_forms,
    assemble_load,
    assemble_normal_stabilization,
    assemble_surface_mass,
    assemble_surface_stiffness,
    compute_E1,
    compute_mass,
    interpolate_at_surface_qp,
    l2_norm_gamma,
)
from savfem.config import CELL_BOX, SPHERE_BOX
from savfem.levelset import LevelSetField, idealized_cell, interpolate_p1, sphere
from savfem.mesh import build_active_mesh, build_mesh
from savfem.physics import PhysicsParams, f0, f0_prime


Z0 = 0.37  # irrational-ish plane height, cuts every column of cubes


@pytest.fixture(scope="module", params=[1, 2], ids=["flat-geom", "subdiv-geom"])
def plane_active(request):
    """Unit box cut by the plane z = Z0; exact area 1, normal e_z."""
    ls = LevelSetField("plane", lambda p: p[:, 2] - Z0)
    box = [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
    mesh = build_mesh(ls, box, 1)
    return build_active_mesh(mesh, levelset=ls, geometry_divisions=request.param)


@pytest.fixture(scope="module")
def cell_l2():
    """Idealized-cell active mesh: a curved surface with varying curvature."""
    mesh = build_mesh(idealized_cell(), CELL_BOX, 2)
    return build_active_mesh(mesh, levelset=idealized_cell())


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
        # every patch normal is e_z: the tangential gradients have no e_z part
        tg = plane_active.patch_tangential_grads
        assert np.abs(tg[:, :, 2]).max() < 1e-12 * np.abs(tg).max()

    def test_element_weighted_stab(self, plane_active):
        # the schemes scale stab by the uniform diameter h: the form with
        # each element weighted by its own diameter
        a = plane_active
        elem = np.einsum("eik,ekl,ejl->eij", a.grads, a.stab_metric, a.grads)
        stab_h = _coo_oracle(a, a.diameters[:, None, None] * elem)
        h = float(np.mean(a.diameters))
        assert abs(stab_h - h * assemble_normal_stabilization(a)).max() < 1e-12 * h

    def test_mobility_coefficient_factorization(self, plane_active):
        # constant c = 1/2 gives M = 1/4 exactly, a pure rescaling
        physics = PhysicsParams(epsilon=1.0)
        c = np.full(plane_active.n_dofs, 0.5)
        stiff = assemble_surface_stiffness(plane_active)
        mob = assemble_surface_stiffness(plane_active, c, physics.mobility)
        assert abs(mob - 0.25 * stiff).max() < 1e-14

    def test_f0prime_load_vanishes_at_half(self, plane_active):
        w = assemble_f0prime_load(plane_active, np.full(plane_active.n_dofs, 0.5))
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
        exact = 2.0 * plane_active.sq_points[:, 0] - plane_active.sq_points[:, 1] + 0.25
        np.testing.assert_allclose(vals, exact, atol=1e-13)

    def test_load_of_affine_integrand(self, plane_active):
        # sum_j (f, psi_j) = int f because the P1 basis sums to one
        w = assemble_load(plane_active, lambda p: p[:, 0])
        assert w.sum() == pytest.approx(0.5, rel=1e-12)

    def test_load_accepts_precomputed_values(self, plane_active):
        vals = plane_active.sq_points[:, 0]
        w1 = assemble_load(plane_active, vals)
        w2 = assemble_load(plane_active, lambda p: p[:, 0])
        np.testing.assert_allclose(w1, w2, atol=1e-15)


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
        physics = PhysicsParams(epsilon=1.0)
        c = rng.uniform(-0.5, 1.5, sphere_l2.n_dofs)
        mob = assemble_surface_stiffness(sphere_l2, c, physics.mobility)
        for _ in range(5):
            v = rng.standard_normal(sphere_l2.n_dofs)
            assert v @ (mob @ v) >= -1e-12


class TestAssembledForms:
    def test_bundle_contents(self, sphere_l2_forms):
        import dataclasses

        forms = sphere_l2_forms
        assert forms.h_stab == pytest.approx(np.mean(forms.active.diameters), rel=1e-15)
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
        physics = PhysicsParams(epsilon=1.0)
        c = np.full(forms.active.n_dofs, 0.5)
        mobility, load = assemble_coefficient_forms(forms.active, c, physics)
        assert abs(mobility - 0.25 * forms.stiffness).max() < 1e-14
        assert np.abs(load).max() < 1e-15

    def test_non_uniform_diameters_rejected(self, sphere_l2):
        import dataclasses

        bad = dataclasses.replace(sphere_l2)
        bad.diameters = sphere_l2.diameters.copy()
        bad.diameters[0] *= 1.5
        bad._cache = {}
        with pytest.raises(ValueError, match="uniform"):
            assemble_forms(bad)


# Oracles: the element-scatter formulas the assembly used before its forms
# were built from cached operators (COO -> CSR with duplicate summation,
# np.add.at for loads, a gathered einsum for interpolation).


def _coo_oracle(active, elem_mats):
    d = active.elem_dofs
    rows = np.broadcast_to(d[:, :, None], elem_mats.shape).reshape(-1)
    cols = np.broadcast_to(d[:, None, :], elem_mats.shape).reshape(-1)
    n = active.n_dofs
    mat = sp.coo_matrix((elem_mats.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


def _interp_oracle(active, c):
    return np.einsum("qi,qi->q", active.sq_bary, c[active.elem_dofs[active.sq_elem]])


def _load_oracle(active, vals):
    out = np.zeros(active.n_dofs)
    qdofs = active.elem_dofs[active.sq_elem]
    np.add.at(out, qdofs, (active.sq_weights * vals)[:, None] * active.sq_bary)
    return out


def _sq_offsets(active):
    """Each element's offsets into the surface quadrature points."""
    return np.concatenate([[0], np.cumsum(np.bincount(active.sq_elem, minlength=active.n_elements))])


def _mass_oracle(active):
    """The degree-4 rule applied to the (Q, 4, 4) products of the basis values."""
    contrib = active.sq_weights[:, None, None] * (
        active.sq_bary[:, :, None] * active.sq_bary[:, None, :]
    )
    flat = np.add.reduceat(contrib.reshape(len(contrib), -1), _sq_offsets(active)[:-1])
    return _coo_oracle(active, flat.reshape(-1, 4, 4))


def _stiffness_oracle(active, weight):
    tg = active.patch_tangential_grads
    k_p = np.add.reduceat(weight, active.sq_patch_offsets[:-1])
    patch_mats = k_p[:, None, None] * np.einsum("pik,pjk->pij", tg, tg)
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

    def test_interpolation_operator_shares_sq_bary(self, sphere_l2):
        from savfem.assembly import _operators

        assert np.shares_memory(_operators(sphere_l2).interp.data, sphere_l2.sq_bary)

    def test_loads(self, sphere_l2, bernoulli):
        for vals in (f0_prime(_interp_oracle(sphere_l2, bernoulli)), sphere_l2.sq_points[:, 0]):
            oracle = _load_oracle(sphere_l2, vals)
            np.testing.assert_allclose(
                assemble_load(sphere_l2, vals), oracle, rtol=0.0, atol=1e-13 * np.abs(oracle).max()
            )
        oracle = _load_oracle(sphere_l2, f0_prime(_interp_oracle(sphere_l2, bernoulli)))
        np.testing.assert_allclose(
            assemble_f0prime_load(sphere_l2, bernoulli), oracle, rtol=0.0, atol=1e-13 * np.abs(oracle).max()
        )

    def test_mass_and_stiffness(self, sphere_l2):
        self.assert_same_matrix(assemble_surface_mass(sphere_l2), _mass_oracle(sphere_l2))
        self.assert_same_matrix(
            assemble_surface_stiffness(sphere_l2), _stiffness_oracle(sphere_l2, sphere_l2.sq_weights)
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
        assert peak < len(active.sq_weights) * 16 * 8

    def test_mobility_keeps_exact_zeros(self, sphere_l2, bernoulli):
        physics = PhysicsParams(epsilon=1.0)
        mob = assemble_surface_stiffness(sphere_l2, bernoulli, physics.mobility)
        weight = sphere_l2.sq_weights * physics.mobility(_interp_oracle(sphere_l2, bernoulli))
        oracle = _stiffness_oracle(sphere_l2, weight)
        self.assert_same_matrix(mob, oracle)
        # entries whose elements all have M(c_h) = 0 are exact zeros, still stored
        vals = physics.mobility(interpolate_at_surface_qp(sphere_l2, bernoulli))
        alive = np.add.reduceat(vals, _sq_offsets(sphere_l2)[:-1]) > 0.0
        counts = _coo_oracle(sphere_l2, np.broadcast_to(alive[:, None, None], (len(alive), 4, 4)) * 1.0)
        dead = counts.data == 0.0
        assert dead.sum() > 0
        assert np.all(mob.data[dead] == 0.0)

    def test_stabilization(self, sphere_l2):
        a = sphere_l2
        elem = np.einsum("eik,ekl,ejl->eij", a.grads, a.stab_metric, a.grads)
        stab = assemble_normal_stabilization(a)
        self.assert_same_matrix(stab, _coo_oracle(a, elem))
        # the uniform scalings the schemes use equal the diameter-weighted forms
        h = float(np.mean(a.diameters))
        for scale, weight in ((h, a.diameters), (1.0 / h, 1.0 / a.diameters)):
            self.assert_same_matrix(scale * stab, _coo_oracle(a, weight[:, None, None] * elem))

    def test_every_form_has_one_pattern(self, sphere_l2_forms, bernoulli):
        forms = sphere_l2_forms
        mob = assemble_surface_stiffness(forms.active, bernoulli, PhysicsParams(epsilon=1.0).mobility)
        for form in (forms.stiffness, forms.stab, mob):
            np.testing.assert_array_equal(form.indptr, forms.mass.indptr)
            np.testing.assert_array_equal(form.indices, forms.mass.indices)


def test_E1_matches_quadrature_of_f0(sphere_l2, rng):
    c = rng.uniform(0.0, 1.0, sphere_l2.n_dofs)
    vals = f0(interpolate_at_surface_qp(sphere_l2, c))
    assert compute_E1(sphere_l2, c) == pytest.approx(
        float(np.dot(sphere_l2.sq_weights, vals)), rel=1e-14
    )
