"""Rank-one block solver against a dense explicit-matrix oracle, and the
reuse of one LU across solves by ``BlockSolver``."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from savfem import integrators, linsolve
from savfem.assembly import assemble_coefficient_forms
from savfem.experiments import bernoulli_ic, initial_state
from savfem.linsolve import (
    REFRESH_ITER,
    BlockPattern,
    BlockSolver,
    BlockSystem,
    LinearSolveError,
    SingularUpdateError,
    SolverConfig,
    apply_operator,
    gmres,
    solve_rank_one_system,
)
from savfem.physics import PhysicsParams


def random_system(rng, n, sigma=None, density=0.4):
    """Well-conditioned random block system with a genuine rank-one term, on
    its blocks' union pattern, and arbitrary coordinates of its dofs."""

    def spd_block(scale):
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
        return sp.csr_matrix(a @ a.T + scale * np.eye(n))

    def gen_block():
        a = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
        return sp.csr_matrix(a)

    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    system = BlockSystem(
        b_cc=spd_block(n),
        b_cmu=gen_block(),
        b_muc=gen_block(),
        b_mumu=spd_block(n),
        rank_one_scale=float(sigma if sigma is not None else rng.uniform(-2.0, 2.0)),
        rank_one_left=u,
        rank_one_right=v,
        rhs=rng.standard_normal(2 * n),
    )
    return system, to_common_pattern(system)


def to_common_pattern(system):
    """Move the system's blocks onto their union CSR pattern (explicit zeros
    kept) and return random coordinates of its dofs."""
    n = system.n
    union = sp.csr_matrix(
        abs(system.b_cc) + abs(system.b_cmu) + abs(system.b_muc) + abs(system.b_mumu)
        + sp.identity(n)
    )
    union.sort_indices()
    rows = np.repeat(np.arange(n), np.diff(union.indptr))
    for name in ("b_cc", "b_cmu", "b_muc", "b_mumu"):
        dense = getattr(system, name).toarray()
        setattr(system, name, on_pattern(union, dense[rows, union.indices]))
    return np.random.default_rng(n).random((n, 3))


def dense_matrix(system):
    n = system.n
    a = np.zeros((2 * n, 2 * n))
    a[:n, :n] = system.b_cc.toarray()
    a[:n, n:] = system.b_cmu.toarray()
    a[n:, :n] = system.b_muc.toarray()
    a[n:, n:] = system.b_mumu.toarray()
    a[n:, :n] += system.rank_one_scale * np.outer(system.rank_one_left, system.rank_one_right)
    return a


def dense_solve(system):
    return np.linalg.solve(dense_matrix(system), system.rhs)


def refined_dense_solve(system, sweeps=3):
    """The dense LU solve, refined with residuals in extended precision
    (np.longdouble): its forward error falls from about cond * eps (1e-12
    in c on the level-3 sphere systems, cond 2.4e4) to round-off."""
    a = dense_matrix(system)
    lu = scipy.linalg.lu_factor(a)
    x = scipy.linalg.lu_solve(lu, system.rhs)
    a_ext, rhs_ext = a.astype(np.longdouble), system.rhs.astype(np.longdouble)
    for _ in range(sweeps):
        x = x + scipy.linalg.lu_solve(lu, (rhs_ext - a_ext @ x).astype(float))
    return x


def test_matches_dense_oracle_batch(rng):
    for k in range(20):
        n = int(rng.integers(3, 40))
        system, coords = random_system(rng, n)
        c, mu, stats = solve_rank_one_system(system, BlockSolver(coords))
        exact = dense_solve(system)
        err = np.linalg.norm(np.concatenate([c, mu]) - exact) / np.linalg.norm(exact)
        assert err < 1e-10, f"system {k}: rel error {err:.2e}"
        assert stats.fallback is False
        assert stats.rel_residual <= 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 25))
def test_matches_dense_oracle_property(seed, n):
    rng = np.random.default_rng(seed)
    system, coords = random_system(rng, n)
    c, mu, _ = solve_rank_one_system(system, BlockSolver(coords))
    exact = dense_solve(system)
    err = np.linalg.norm(np.concatenate([c, mu]) - exact) / np.linalg.norm(exact)
    assert err < 1e-10


@pytest.mark.parametrize("zero", ["scale", "left"])
def test_zero_rank_one_term(zero, rng):
    # sigma = 0, or u = 0 with sigma != 0: the Sherman-Morrison path gives
    # the denominator 1 and an update of exactly zero
    system, coords = random_system(rng, 12, sigma=0.0 if zero == "scale" else 1.5)
    if zero == "left":
        system.rank_one_left = np.zeros(12)
    c, mu, stats = solve_rank_one_system(system, BlockSolver(coords))
    exact = dense_solve(system)
    np.testing.assert_allclose(np.concatenate([c, mu]), exact, rtol=1e-10)
    assert stats.woodbury_denominator == 1.0


def test_apply_operator_matches_dense(rng):
    system, _ = random_system(rng, 9)
    x = rng.standard_normal(2 * 9)
    a = dense_matrix(system)
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
        b_muc=on_pattern(eye, np.zeros(n)),
        b_mumu=eye,
        rank_one_scale=sigma,
        rank_one_left=u,
        rank_one_right=v,
        rhs=np.ones(2 * n),
    )
    solver = BlockSolver(np.random.default_rng(0).random((n, 3)))
    with pytest.raises(SingularUpdateError, match="singular"):
        solve_rank_one_system(system, solver)


def on_pattern(pattern, data):
    return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)


def sphere_system(forms, cc_scale=1.5 / 0.005, cmu_scale=1.0):
    """One BDF2 system on the sphere at Bernoulli data, built the way the
    integrators build it: blocks on the common CSR pattern."""
    active = forms.active
    physics = PhysicsParams(epsilon=0.05)
    eps2, h = physics.epsilon**2, forms.h_stab
    c = bernoulli_ic(active, 0.5, 1)
    mobility, w, _ = assemble_coefficient_forms(active, c)
    return BlockSystem(
        b_cc=cc_scale * forms.mass,
        b_cmu=on_pattern(mobility, cmu_scale * (mobility.data + h * forms.stab.data)),
        b_muc=on_pattern(forms.stiffness, -eps2 * (forms.stiffness.data + forms.stab.data / h)),
        b_mumu=forms.mass,
        rank_one_scale=-0.3,
        rank_one_left=w,
        rank_one_right=w,
        rhs=np.concatenate([(1.5 / 0.005) * (forms.mass @ c), 0.2 * w]),
    )


def test_pattern_path_matches_dense_oracle_on_sphere_forms(sphere_l3_forms):
    forms = sphere_l3_forms
    n = forms.active.n_dofs
    system = sphere_system(forms)
    pattern = BlockPattern.build(forms.active.dof_coords, forms.mass)

    assert np.array_equal(np.sort(pattern.order), np.arange(2 * n))
    assert np.array_equal(pattern.order[1::2], pattern.order[0::2] + n)  # (c_i, mu_i) pairs
    assert pattern.indptr[-1] == 4 * forms.mass.nnz

    c_p, mu_p, stats = solve_rank_one_system(system, BlockSolver(forms.active.dof_coords))
    exact = dense_solve(system)
    err = np.linalg.norm(np.concatenate([c_p, mu_p]) - exact) / np.linalg.norm(exact)
    assert err < 1e-10
    assert stats.fallback is False
    assert stats.rel_residual <= 1e-10


def interleaved_trap(rng, n=50, cc=1e-30):
    """Blocks b_cc = cc I, b_cmu = I + 0.1 R, b_muc = b_mumu = I on one
    symmetric pattern: each dof's 2x2 block has a tiny leading pivot.  At
    cc = 1e-30 the pivot-free LU in interleaved order is useless even with
    GMRES refinement, in float32 and in float64, so pivoting is needed.  At
    1e-15 only the float32 LU is (GMRES leaves a residual above 1e-8), and at
    1e-20 two iterations still repair the float64 one.  Returns the system
    and random coordinates of its dofs."""
    r = sp.random(n, n, density=0.1, random_state=np.random.RandomState(7), format="csr")
    r = (r + r.T).tocsr()
    pattern = (sp.identity(n, format="csr") + r).tocsr()
    pattern.sort_indices()
    rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
    eye = (rows == pattern.indices).astype(float)
    r_data = np.asarray(r[rows, pattern.indices]).ravel()
    system = BlockSystem(
        b_cc=on_pattern(pattern, cc * eye),
        b_cmu=on_pattern(pattern, eye + 0.1 * r_data),
        b_muc=on_pattern(pattern, eye.copy()),
        b_mumu=on_pattern(pattern, eye.copy()),
        rank_one_scale=0.5,
        rank_one_left=rng.standard_normal(n),
        rank_one_right=rng.standard_normal(n),
        rhs=rng.standard_normal(2 * n),
    )
    return system, rng.random((n, 3))


def test_pivot_free_failure_falls_back_to_pivoting(rng, caplog):
    system, coords = interleaved_trap(rng)
    solver = BlockSolver(coords)
    with caplog.at_level("WARNING", logger="savfem.linsolve"):
        c, mu, stats = solve_rank_one_system(system, solver)
    assert stats.fallback is True
    assert stats.rel_residual <= 1e-10
    assert "exceeds tolerance" in caplog.text and "COLAMD" in caplog.text
    # float32 pivot-free, float64 pivot-free, COLAMD: three factorizations
    totals = solver.totals
    assert (totals.factorizations, totals.promoted, totals.fallbacks) == (3, 1, 1)
    exact = dense_solve(system)
    err = np.linalg.norm(np.concatenate([c, mu]) - exact) / np.linalg.norm(exact)
    assert err < 1e-10


def test_float32_failure_refactors_in_float64(rng, caplog, monkeypatch):
    # at cc = 1e-15 the float32 LU misses the gate even after GMRES, and the
    # float64 pivot-free LU meets it: one INFO line, no COLAMD
    system, coords = interleaved_trap(rng, cc=1e-15)
    calls = count_splu(monkeypatch)
    solver = BlockSolver(coords)
    with caplog.at_level("INFO", logger="savfem.linsolve"):
        c, mu, stats = solver.solve(system)
    assert stats.refactored and stats.fallback is False
    assert_solves(system, c, mu, stats)
    assert calls == [np.float32, np.float64]
    assert [r.levelname for r in caplog.records] == ["INFO"]
    assert "exceeds tolerance" in caplog.text and "COLAMD" not in caplog.text
    # the solver stays in float64: its next fresh LU is one factorization
    solver.release()
    c, mu, stats = solver.solve(system)
    assert stats.refactored and stats.fallback is False
    assert_solves(system, c, mu, stats)
    assert calls == [np.float32, np.float64, np.float64]
    totals = solver.totals
    assert (totals.factorizations, totals.promoted, totals.fallbacks) == (3, 1, 0)


def test_marginal_pivot_free_lu_is_refined(rng, caplog):
    # at cc = 1e-8 the pivot-free LU's own solve misses the 1e-10 residual
    # gate; GMRES on that LU meets it without a fallback
    system, coords = interleaved_trap(rng, cc=1e-8)
    pattern = BlockPattern.build(coords, system.b_mumu)
    lu = linsolve._lu_solver(pattern.matrix(system, np.float32), pattern.order)
    unrefined = linsolve._sherman_morrison(system, lu)[0](system.rhs)
    assert linsolve._residual(system, unrefined) > 1e-10
    solver = BlockSolver(coords)
    with caplog.at_level("WARNING", logger="savfem.linsolve"):
        c, mu, stats = solver.solve(system)
    assert stats.refactored and not stats.fallback and stats.iterations >= 1
    assert_solves(system, c, mu, stats)
    totals = solver.totals
    assert (totals.factorizations, totals.refined, totals.fallbacks) == (1, 1, 0)
    assert caplog.text == ""


def test_block_off_the_fixed_pattern_raises(rng):
    # the solver's pattern is that of its first system's B_mumu; a block off
    # it raises, at the first solve and at a later one alike
    system, coords = interleaved_trap(rng, cc=1e-8)
    solver = BlockSolver(coords)
    solve_rank_one_system(system, solver)
    system.b_cc = sp.csr_matrix(system.b_cc.toarray())  # drops the explicit zeros
    with pytest.raises(LinearSolveError, match="block cc"):
        solve_rank_one_system(system, solver)
    assert solver.totals.solves == 1
    with pytest.raises(LinearSolveError, match="block cc"):
        solve_rank_one_system(system, BlockSolver(coords))


def test_gmres_matches_dense_solve(rng):
    n = 40
    a = rng.standard_normal((n, n)) + 4.0 * np.sqrt(n) * np.eye(n)
    b = rng.standard_normal(n)
    exact = np.linalg.solve(a, b)
    # a preconditioner from a perturbed matrix, as a stale LU would be
    m_inv = np.linalg.inv(a + 0.3 * rng.standard_normal((n, n)))
    x, iterations = gmres(lambda y: a @ y, lambda y: m_inv @ y, b, m_inv @ b, 1e-13, 20)
    assert 0 < iterations < 20
    assert np.linalg.norm(a @ x - b) <= 1e-13 * 1.01
    np.testing.assert_allclose(x, exact, rtol=0, atol=1e-12 * np.linalg.norm(exact))
    # a first guess at the target takes no iteration
    x, iterations = gmres(lambda y: a @ y, lambda y: m_inv @ y, b, exact, 1e-13, 20)
    assert iterations == 0 and x is exact


def test_gmres_gives_up_when_the_projection_misses_the_target(rng):
    n = 60
    a = rng.standard_normal((n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
    b = rng.standard_normal(n)
    x, iterations = gmres(lambda y: a @ y, lambda y: y, b, np.zeros(n), 1e-13, 20)
    assert x is None
    assert 2 <= iterations < 20  # abandoned before the cap


def test_block_solver_reuses_the_lu_along_a_bdf2_sequence(sphere_l3_forms, monkeypatch):
    # Level-3 sphere, spinodal data, one BDF1 and eight BDF2 steps through
    # one BlockSolver; every solve, on a fresh float32 LU or a reused one, is
    # compared with the refined dense solve.
    forms = sphere_l3_forms
    physics = PhysicsParams(epsilon=0.05)
    solve = solve_rank_one_system
    seen = []

    def compared(system, solver):
        c, mu, stats = solve(system, solver)
        exact = refined_dense_solve(system)
        c_ref, mu_ref = exact[: system.n], exact[system.n :]
        seen.append(stats)
        assert np.linalg.norm(c - c_ref) <= 1e-12 * np.linalg.norm(c_ref)
        # mu of a reuse is resolved less tightly (measured 3.9e-12 to 1.3e-11,
        # c at most 2.8e-13; fresh solves: mu at most 1.6e-14, c 2.6e-16):
        # the residual GMRES leaves sits in the c rows, and mu, which enters
        # them through the mobility stiffness, is the more sensitive to it
        assert np.linalg.norm(mu - mu_ref) <= 2e-11 * np.linalg.norm(mu_ref)
        return c, mu, stats

    monkeypatch.setattr(integrators, "solve_rank_one_system", compared)
    solver = BlockSolver(forms.active.dof_coords)
    prev, state = None, initial_state(forms, physics, bernoulli_ic(forms.active, 0.5, 1))
    state, prev = integrators.bdf1_step(state, 0.005, forms, physics, solver), state
    for _ in range(8):
        state, prev = integrators.bdf2_step(prev, state, 0.005, forms, physics, solver), state

    # the first BDF2 step reuses the BDF1 LU (alpha changes, so no refresh);
    # the second, with an unchanged B_cc, needs more than REFRESH_ITER
    # iterations and drops the LU, so the third factors; and so on
    factored = [s.refactored for s in seen]
    assert factored == [True, False, False, True, False, True, False, False, True]
    slow = [s.iterations > REFRESH_ITER for s in seen]
    assert slow == [False, True, True, False, True, False, False, True, False]
    assert all(s.rel_residual <= 1e-12 for s in seen)
    totals = solver.totals
    assert (totals.solves, totals.factorizations, totals.reused) == (9, 4, 5)
    # every fresh float32 LU is refined to FRESH_TOL, in two iterations here
    assert [s.iterations for s in seen if s.refactored] == [2, 2, 2, 2]
    assert (totals.refreshed, totals.abandoned, totals.refined) == (3, 0, 4)
    assert totals.promoted == totals.fallbacks == 0
    assert totals.iterations == sum(s.iterations for s in seen)


def count_splu(monkeypatch):
    """The dtypes of the matrices ``splu`` factors, one per call."""
    calls = []
    splu = linsolve.spla.splu

    def counted(a, *args, **kwargs):
        calls.append(a.dtype)
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(linsolve.spla, "splu", counted)
    return calls


def assert_solves(system, c, mu, stats):
    assert stats.rel_residual <= 1e-12 and not stats.fallback
    exact = dense_solve(system)
    err = np.linalg.norm(np.concatenate([c, mu]) - exact) / np.linalg.norm(exact)
    assert err < 1e-10


def lu_sweeps(monkeypatch, one_column=False):
    """The column count of every sweep of the LUs that ``_lu_solver`` makes;
    with ``one_column``, a block is swept one column at a time."""
    widths = []
    lu_solver = linsolve._lu_solver

    def counted(*args, **kwargs):
        solve = lu_solver(*args, **kwargs)

        def sweep(b):
            widths.append(1 if b.ndim == 1 else b.shape[1])
            if one_column and b.ndim == 2:
                return np.column_stack([solve(column) for column in b.T])
            return solve(b)

        return sweep

    monkeypatch.setattr(linsolve, "_lu_solver", counted)
    return widths


def test_solve_sweeps_two_columns_once(sphere_l3_forms, monkeypatch):
    # A^-1 [0; u] of the Sherman-Morrison term and the first preconditioner
    # application A^-1 rhs share one sweep; each GMRES iteration sweeps once
    widths = lu_sweeps(monkeypatch)
    solver = BlockSolver(sphere_l3_forms.active.dof_coords)
    _, _, fresh = solver.solve(sphere_system(sphere_l3_forms))
    assert fresh.refactored and fresh.iterations >= 1
    assert widths == [2] + [1] * fresh.iterations
    _, _, reused = solver.solve(sphere_system(sphere_l3_forms, cc_scale=1.0 / 0.005))
    assert not reused.refactored
    assert widths == [2] + [1] * fresh.iterations + [2] + [1] * reused.iterations


def test_two_column_sweep_matches_one_column_sweeps(sphere_l3_forms, monkeypatch):
    system = sphere_system(sphere_l3_forms)
    coords = sphere_l3_forms.active.dof_coords
    c2, mu2, _ = BlockSolver(coords).solve(system)
    lu_sweeps(monkeypatch, one_column=True)
    c1, mu1, _ = BlockSolver(coords).solve(system)
    for two, one in ((c2, c1), (mu2, mu1)):
        assert np.linalg.norm(two - one) <= 1e-12 * np.linalg.norm(one)


def test_changed_b_cc_reuses_the_lu(sphere_l3_forms, monkeypatch):
    forms = sphere_l3_forms
    calls = count_splu(monkeypatch)
    solver = BlockSolver(forms.active.dof_coords)
    _, _, first = solver.solve(sphere_system(forms))
    _, _, same = solver.solve(sphere_system(forms))
    assert first.refactored and not same.refactored
    # the fresh float32 LU is refined in two iterations; reused for the same
    # system, it meets GMRES_TOL in one
    assert (first.iterations, same.iterations) == (2, 1)
    # a new dt (BDF2 -> BDF1 coefficient) keeps the LU
    system = sphere_system(forms, cc_scale=1.0 / 0.005)
    c, mu, changed = solver.solve(system)
    assert len(calls) == 1
    assert not changed.refactored and changed.iterations > REFRESH_ITER
    assert_solves(system, c, mu, changed)
    # B_cc differs from the previous solve's, so the slow reuse keeps the LU
    assert solver.totals.refreshed == 0
    solver.solve(sphere_system(forms))
    assert len(calls) == 1


def test_steady_b_cc_after_a_slow_reuse_refreshes(sphere_l3_forms, monkeypatch):
    forms = sphere_l3_forms
    calls = count_splu(monkeypatch)
    solver = BlockSolver(forms.active.dof_coords)
    solver.solve(sphere_system(forms))
    # a drifted mobility at the same B_cc: reused, but slowly
    system = sphere_system(forms, cmu_scale=1.5)
    c, mu, slow = solver.solve(system)
    assert not slow.refactored and slow.iterations > REFRESH_ITER
    assert_solves(system, c, mu, slow)
    assert len(calls) == 1 and solver.totals.refreshed == 1
    # the next solve factors afresh, although its system is the same
    _, _, next_ = solver.solve(sphere_system(forms, cmu_scale=1.5))
    assert next_.refactored and next_.iterations == 2
    assert len(calls) == 2
    # a fast reuse at the same B_cc keeps the new LU
    _, _, fast = solver.solve(sphere_system(forms, cmu_scale=1.5))
    assert not fast.refactored and fast.iterations <= REFRESH_ITER
    assert len(calls) == 2 and solver.totals.refreshed == 1
    assert solver.totals.abandoned == 0


def test_alternating_b_cc_never_refreshes(sphere_l3_forms, monkeypatch):
    # BDF1 and BDF2 systems in turn, as an adaptive run solves them: every
    # reuse is slow, but no two consecutive solves share B_cc
    forms = sphere_l3_forms
    calls = count_splu(monkeypatch)
    solver = BlockSolver(forms.active.dof_coords)
    solver.solve(sphere_system(forms))
    for k in range(6):
        cc_scale = (1.0 if k % 2 == 0 else 1.5) / 0.005
        system = sphere_system(forms, cc_scale=cc_scale, cmu_scale=1.0 + 0.05 * k)
        c, mu, stats = solver.solve(system)
        assert not stats.refactored and stats.iterations > REFRESH_ITER
        assert_solves(system, c, mu, stats)
    assert len(calls) == 1
    assert solver.totals.refreshed == 0 and solver.totals.reused == 6


def test_release_keeps_the_pattern(sphere_l3_forms, monkeypatch, pattern_builds):
    # the pattern is built at the first solve, not with the solver, and a
    # release drops the LU but not the nested-dissection order
    forms = sphere_l3_forms
    calls = count_splu(monkeypatch)
    solver = BlockSolver(forms.active.dof_coords)
    assert pattern_builds == []
    solver.solve(sphere_system(forms))
    solver.release()
    _, _, stats = solver.solve(sphere_system(forms))
    assert stats.refactored and len(calls) == 2
    assert pattern_builds == [forms.active.n_dofs]


def test_stale_lu_is_abandoned_and_refactored(sphere_l3_forms, monkeypatch):
    forms = sphere_l3_forms
    calls = count_splu(monkeypatch)
    solver = BlockSolver(forms.active.dof_coords)
    solver.solve(sphere_system(forms))
    system = sphere_system(forms, cmu_scale=10.0)
    c, mu, stats = solver.solve(system)
    assert len(calls) == 2
    assert stats.refactored and stats.iterations == 2 and not stats.fallback
    assert stats.rel_residual <= 1e-10
    assert solver.totals.abandoned == 1 and solver.totals.iterations >= 2
    exact = dense_solve(system)
    err = np.linalg.norm(np.concatenate([c, mu]) - exact) / np.linalg.norm(exact)
    assert err < 1e-10


def test_singular_preconditioner_denominator_refactors(monkeypatch):
    # Identity pattern, b_cc = b_mumu = I, b_muc = 0: A x1 = [0; u] gives
    # x1_c = -k u for b_cmu = k I, so the denominator is 1 - k sigma u.v.
    # The stored LU (k = 1) makes it zero at sigma = 1/(u.v); the system
    # itself (k = 2) has denominator -1.
    n = 6
    eye = sp.identity(n, format="csr")
    u = np.arange(1.0, n + 1.0)
    v = np.ones(n)

    def system(k, sigma):
        return BlockSystem(
            b_cc=eye.copy(),
            b_cmu=k * eye,
            b_muc=on_pattern(eye, np.zeros(n)),
            b_mumu=eye.copy(),
            rank_one_scale=sigma,
            rank_one_left=u,
            rank_one_right=v,
            rhs=np.ones(2 * n),
        )

    calls = count_splu(monkeypatch)
    solver = BlockSolver(np.random.default_rng(0).random((n, 3)))
    solver.solve(system(1.0, 0.5 / np.dot(u, v)))
    stale = system(2.0, 1.0 / np.dot(u, v))
    c, mu, stats = solver.solve(stale)
    assert len(calls) == 2
    assert stats.refactored and stats.woodbury_denominator == pytest.approx(-1.0)
    assert solver.totals.abandoned == 1 and solver.totals.iterations == 0
    np.testing.assert_allclose(np.concatenate([c, mu]), dense_solve(stale), rtol=1e-12)


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
