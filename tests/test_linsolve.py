"""Rank-one block solver against a dense explicit-matrix oracle."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from savfem.assembly import assemble_f0prime_load, assemble_surface_stiffness
from savfem.experiments import bernoulli_ic
from savfem.linsolve import (
    BlockPattern,
    BlockSystem,
    LinearSolveError,
    SingularUpdateError,
    SolverConfig,
    apply_operator,
    solve_rank_one_system,
)
from savfem.physics import PhysicsParams


def random_system(rng, n, sigma=None, density=0.4):
    """Well-conditioned random block system with a genuine rank-one term."""

    def spd_block(scale):
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
        return sp.csr_matrix(a @ a.T + scale * np.eye(n))

    def gen_block():
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
        return sp.csr_matrix(a)

    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    return BlockSystem(
        b_cc=spd_block(n),
        b_cmu=gen_block(),
        b_muc=gen_block(),
        b_mumu=spd_block(n),
        rank_one_scale=float(sigma if sigma is not None else rng.uniform(-2.0, 2.0)),
        rank_one_left=u,
        rank_one_right=v,
        rhs=rng.standard_normal(2 * n),
    )


def dense_solve(system):
    n = system.n
    a = np.zeros((2 * n, 2 * n))
    a[:n, :n] = system.b_cc.toarray()
    a[:n, n:] = system.b_cmu.toarray()
    a[n:, :n] = system.b_muc.toarray()
    a[n:, n:] = system.b_mumu.toarray()
    a[n:, :n] += system.rank_one_scale * np.outer(system.rank_one_left, system.rank_one_right)
    return np.linalg.solve(a, system.rhs)


def test_matches_dense_oracle_batch(rng):
    for k in range(20):
        n = int(rng.integers(3, 40))
        system = random_system(rng, n)
        c, mu, stats = solve_rank_one_system(system)
        exact = dense_solve(system)
        err = np.linalg.norm(np.concatenate([c, mu]) - exact) / np.linalg.norm(exact)
        assert err < 1e-10, f"system {k}: rel error {err:.2e}"
        assert stats.fallback is False
        assert stats.rel_residual <= 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 25))
def test_matches_dense_oracle_property(seed, n):
    rng = np.random.default_rng(seed)
    system = random_system(rng, n)
    c, mu, _ = solve_rank_one_system(system)
    exact = dense_solve(system)
    err = np.linalg.norm(np.concatenate([c, mu]) - exact) / np.linalg.norm(exact)
    assert err < 1e-10


def test_zero_scale_skips_update(rng):
    system = random_system(rng, 12, sigma=0.0)
    c, mu, stats = solve_rank_one_system(system)
    exact = dense_solve(system)
    np.testing.assert_allclose(np.concatenate([c, mu]), exact, rtol=1e-10)
    assert stats.woodbury_denominator == 1.0


def test_apply_operator_matches_dense(rng):
    system = random_system(rng, 9)
    x = rng.standard_normal(2 * 9)
    n = system.n
    a = np.zeros((2 * n, 2 * n))
    a[:n, :n] = system.b_cc.toarray()
    a[:n, n:] = system.b_cmu.toarray()
    a[n:, :n] = system.b_muc.toarray()
    a[n:, n:] = system.b_mumu.toarray()
    a[n:, :n] += system.rank_one_scale * np.outer(system.rank_one_left, system.rank_one_right)
    np.testing.assert_allclose(apply_operator(system, x), a @ x, rtol=1e-12, atol=1e-12)


def test_singular_update_detected():
    # identity blocks, b_cmu = I: solving A x1 = [0; u] gives x1_c = -u, so
    # the denominator is 1 - sigma u.v and sigma = 1/(u.v) makes it zero
    n = 6
    eye = sp.identity(n, format="csr")
    u = np.arange(1.0, n + 1.0)
    v = np.ones(n)
    sigma = 1.0 / float(np.dot(u, v))
    system = BlockSystem(
        b_cc=eye,
        b_cmu=eye,
        b_muc=sp.csr_matrix((n, n)),
        b_mumu=eye,
        rank_one_scale=sigma,
        rank_one_left=u,
        rank_one_right=v,
        rhs=np.ones(2 * n),
    )
    with pytest.raises(SingularUpdateError, match="singular"):
        solve_rank_one_system(system)


def on_pattern(pattern, data):
    return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)


def test_pattern_path_matches_dense_oracle_on_sphere_forms(sphere_l3_forms):
    # One BDF2 system on the level-3 sphere at Bernoulli data, built the way
    # the integrators build it: blocks on the common CSR pattern.
    forms = sphere_l3_forms
    active = forms.active
    physics = PhysicsParams(epsilon=0.05)
    eps2, h = physics.epsilon**2, forms.h_stab
    n = active.n_dofs
    c = bernoulli_ic(active, 0.5, 1)
    mobility = assemble_surface_stiffness(active, c, physics.mobility)
    w = assemble_f0prime_load(active, c)
    system = BlockSystem(
        b_cc=(1.5 / 0.005) * forms.mass,
        b_cmu=on_pattern(mobility, mobility.data + h * forms.stab.data),
        b_muc=on_pattern(forms.stiffness, -eps2 * (forms.stiffness.data + forms.stab.data / h)),
        b_mumu=forms.mass,
        rank_one_scale=-0.3,
        rank_one_left=w,
        rank_one_right=w,
        rhs=np.concatenate([(1.5 / 0.005) * (forms.mass @ c), 0.2 * w]),
    )
    pattern = BlockPattern.build(active.dof_coords, forms.mass)

    assert np.array_equal(np.sort(pattern.order), np.arange(2 * n))
    assert np.array_equal(pattern.order[1::2], pattern.order[0::2] + n)  # (c_i, mu_i) pairs
    assert pattern.indptr[-1] == 4 * forms.mass.nnz

    c_p, mu_p, stats = solve_rank_one_system(system, pattern=pattern)
    exact = dense_solve(system)
    err = np.linalg.norm(np.concatenate([c_p, mu_p]) - exact) / np.linalg.norm(exact)
    assert err < 1e-10
    assert stats.fallback is False
    assert stats.rel_residual <= 1e-10


def interleaved_trap(rng, n=50):
    """Blocks b_cc = 1e-20 I, b_cmu = I + 0.1 R, b_muc = b_mumu = I on one
    symmetric pattern: each dof's 2x2 block has a tiny leading pivot, so the
    pivot-free LU in interleaved order is useless and pivoting is needed."""
    r = sp.random(n, n, density=0.1, random_state=np.random.RandomState(7), format="csr")
    r = (r + r.T).tocsr()
    pattern = (sp.identity(n, format="csr") + r).tocsr()
    pattern.sort_indices()
    rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
    eye = (rows == pattern.indices).astype(float)
    r_data = np.asarray(r[rows, pattern.indices]).ravel()
    system = BlockSystem(
        b_cc=on_pattern(pattern, 1e-20 * eye),
        b_cmu=on_pattern(pattern, eye + 0.1 * r_data),
        b_muc=on_pattern(pattern, eye.copy()),
        b_mumu=on_pattern(pattern, eye.copy()),
        rank_one_scale=0.5,
        rank_one_left=rng.standard_normal(n),
        rank_one_right=rng.standard_normal(n),
        rhs=rng.standard_normal(2 * n),
    )
    return system, BlockPattern.build(rng.random((n, 3)), pattern)


def test_pivot_free_failure_falls_back_to_pivoting(rng, caplog):
    system, pattern = interleaved_trap(rng)
    with caplog.at_level("WARNING", logger="savfem.linsolve"):
        c, mu, stats = solve_rank_one_system(system, pattern=pattern)
    assert stats.fallback is True
    assert stats.rel_residual <= 1e-10
    assert "COLAMD" in caplog.text
    exact = dense_solve(system)
    err = np.linalg.norm(np.concatenate([c, mu]) - exact) / np.linalg.norm(exact)
    assert err < 1e-10


def test_block_off_the_fixed_pattern_raises(rng):
    system, pattern = interleaved_trap(rng)
    system.b_cc = sp.csr_matrix(system.b_cc.toarray())  # drops the explicit zeros
    with pytest.raises(LinearSolveError, match="block cc"):
        solve_rank_one_system(system, pattern=pattern)


class TestSolverConfig:
    def test_defaults(self):
        config = SolverConfig()
        assert config.rel_tolerance == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tolerance": 0.0},
            {"rel_tolerance": 0.5},
            {"rel_tolerance": -1e-12},
            {"rel_tolerance": float("nan")},
            {"rel_tolerance": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)
