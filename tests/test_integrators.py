"""Time integrator algebra: coefficients, balance identities, adaptivity."""

import dataclasses
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pointwise import circumdiameters
from savfem.assembly import (
    assemble_f0prime_load,
    assemble_surface_stiffness,
    compute_E1,
    interpolate_at_surface_qp,
)
from savfem.experiments import initial_state
from savfem.integrators import (
    BDF1,
    SchemeCoefficients,
    StateSnapshot,
    TimeController,
    TimeStepError,
    _sav_step,
    adapt_step,
    bdf1_step,
    bdf2_step,
    energy_balance_terms,
    make_energy_report,
    modified_energy,
    proposed_factor,
)
from savfem.linsolve import BlockSolver, BlockSystem, solve_rank_one_system
from savfem.physics import EnergyFloorError, PhysicsParams, f0_prime, guarded_shifted_energy, mobility


@pytest.fixture()
def physics():
    return PhysicsParams(epsilon=0.05, c_shift=1.0)


def fresh(forms):
    """A new BlockSolver on the mesh of ``forms``, which orders its pattern
    and factors at its first solve."""
    return BlockSolver(forms.active.dof_coords)


@pytest.fixture()
def solver(sphere_l2_forms):
    """The one BlockSolver of a test's time loop."""
    return fresh(sphere_l2_forms)


@pytest.fixture()
def seeded_state(sphere_l2_forms, physics, rng):
    c0 = (rng.random(sphere_l2_forms.active.n_dofs) < 0.5).astype(float)
    return initial_state(sphere_l2_forms, physics, c0)


class TestCoefficients:
    def test_uniform_ratio(self):
        coef = SchemeCoefficients.from_ratio(1.0)
        assert (coef.alpha, coef.beta, coef.gamma) == (1.5, 2.0, 0.5)

    def test_ratio_two(self):
        coef = SchemeCoefficients.from_ratio(2.0)
        assert coef.alpha == pytest.approx(5.0 / 3.0, abs=1e-15)
        assert coef.beta == pytest.approx(3.0, abs=1e-15)
        assert coef.gamma == pytest.approx(4.0 / 3.0, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(q=st.floats(1e-3, 1e3))
    def test_consistency_sum(self, q):
        # alpha - beta + gamma = 0 makes the difference formula exact for
        # constants at any ratio
        coef = SchemeCoefficients.from_ratio(q)
        assert abs(coef.alpha - coef.beta + coef.gamma) < 1e-12 * max(1.0, coef.beta)

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SchemeCoefficients.from_ratio(0.0)

    def test_bdf1_is_the_zero_ratio_limit(self):
        coef = SchemeCoefficients.from_ratio(1e-300)
        assert (coef.alpha, coef.beta, coef.gamma) == (BDF1.alpha, BDF1.beta, BDF1.gamma)


class TestEquilibrium:
    def test_constant_half_is_steady(self, sphere_l2_forms, physics, solver):
        # f0'(1/2) = 0: the flow starts at an equilibrium and stays there
        state = initial_state(sphere_l2_forms, physics, np.full(sphere_l2_forms.active.n_dofs, 0.5))
        nxt = bdf1_step(state, 0.01, sphere_l2_forms, physics, solver)
        np.testing.assert_allclose(nxt.c, state.c, atol=1e-12)
        assert nxt.r == pytest.approx(state.r, abs=1e-12)
        nxt2 = bdf2_step(state, nxt, 0.01, sphere_l2_forms, physics, solver)
        np.testing.assert_allclose(nxt2.c, state.c, atol=1e-11)

    def test_time_bookkeeping(self, sphere_l2_forms, physics, seeded_state, solver):
        nxt = bdf1_step(seeded_state, 0.01, sphere_l2_forms, physics, solver)
        assert nxt.t == pytest.approx(0.01)
        assert nxt.dt_used == 0.01
        assert seeded_state.t == 0.0  # history is immutable


class TestBalanceIdentities:
    def test_bdf1_residual_machine_zero(self, sphere_l2_forms, physics, seeded_state, solver):
        state = seeded_state
        for _ in range(3):
            nxt = bdf1_step(state, 0.005, sphere_l2_forms, physics, solver)
            terms = energy_balance_terms(None, state, nxt, sphere_l2_forms, physics)
            rel = abs(terms.sum()) / np.abs(terms).max()
            assert rel < 1e-9
            state = nxt

    def test_bdf2_residual_machine_zero(self, sphere_l2_forms, physics, seeded_state, solver):
        # fixed steps, then step ratios 2 and 1/2, where the seventh term,
        # zero on fixed steps, closes the balance
        prev = seeded_state
        state = bdf1_step(prev, 0.005, sphere_l2_forms, physics, solver)
        for q in (1.0, 1.0, 1.0, 2.0, 0.5, 2.0, 0.5):
            nxt = bdf2_step(prev, state, q * state.dt_used, sphere_l2_forms, physics, solver)
            terms = energy_balance_terms(prev, state, nxt, sphere_l2_forms, physics)
            assert (terms[6] == 0.0) == (q == 1.0)
            rel = abs(terms.sum()) / np.abs(terms).max()
            assert rel < 1e-9
            prev, state = state, nxt

    def test_residual_detects_corruption(self, sphere_l2_forms, physics, seeded_state, solver):
        # the identity must be sensitive: a 1e-6 perturbation of c breaks it
        # (non-constant, since constants lie in the kernel of the gradient forms)
        nxt = bdf1_step(seeded_state, 0.005, sphere_l2_forms, physics, solver)
        clean = abs(energy_balance_terms(None, seeded_state, nxt, sphere_l2_forms, physics).sum())
        bump = 1e-6 * sphere_l2_forms.active.dof_coords[:, 0]
        corrupted = dataclasses.replace(nxt, c=nxt.c + bump)
        dirty = abs(energy_balance_terms(None, seeded_state, corrupted, sphere_l2_forms, physics).sum())
        assert dirty > 1e3 * max(clean, 1e-300)

    def test_dissipation_terms_nonnegative(self, sphere_l2_forms, physics, seeded_state, solver):
        nxt = bdf1_step(seeded_state, 0.005, sphere_l2_forms, physics, solver)
        terms = energy_balance_terms(None, seeded_state, nxt, sphere_l2_forms, physics)
        # terms[0] is the energy increment, the rest are dissipation
        assert np.all(terms[1:] >= -1e-14)
        assert terms[0] <= 1e-14


class TestVariableStep:
    def test_reduces_to_uniform_bdf2(self, sphere_l2_forms, physics, seeded_state):
        # on a uniform history bdf2_step is the step with the literal uniform
        # coefficients; each path has its own solver, so both see the same
        # sequence of solves
        dt = 0.005
        uniform_coef = SchemeCoefficients(alpha=1.5, beta=2.0, gamma=0.5)
        prev = seeded_state
        state = bdf1_step(prev, dt, sphere_l2_forms, physics, fresh(sphere_l2_forms))
        uniform_solver, variable_solver = fresh(sphere_l2_forms), fresh(sphere_l2_forms)
        for _ in range(20):
            variable = bdf2_step(prev, state, dt, sphere_l2_forms, physics, variable_solver)
            uniform = _sav_step(
                prev, state, dt, uniform_coef, 2.0 * state.c - prev.c,
                sphere_l2_forms, physics, uniform_solver, None,
            )
            scale = np.abs(uniform.c).max()
            assert np.abs(variable.c - uniform.c).max() < 1e-12 * scale
            assert abs(variable.r - uniform.r) < 1e-12 * abs(uniform.r)
            prev, state = state, uniform

    def test_accepts_step_ratio_change(self, sphere_l2_forms, physics, seeded_state, solver):
        prev = seeded_state
        state = bdf1_step(prev, 0.004, sphere_l2_forms, physics, solver)
        nxt = bdf2_step(prev, state, 0.008, sphere_l2_forms, physics, solver)
        assert nxt.t == pytest.approx(0.012)
        assert np.all(np.isfinite(nxt.c))

    def test_rejects_initial_data_as_newer_state(
        self, sphere_l2_forms, physics, seeded_state, solver
    ):
        # initial data has no step, so it has no step ratio
        with pytest.raises(ValueError, match="positive"):
            bdf2_step(seeded_state, seeded_state, 0.004, sphere_l2_forms, physics, solver)

    def test_nonpositive_dt_rejected(self, sphere_l2_forms, physics, seeded_state, solver):
        with pytest.raises(ValueError, match="positive"):
            bdf1_step(seeded_state, 0.0, sphere_l2_forms, physics, solver)
        state = bdf1_step(seeded_state, 0.004, sphere_l2_forms, physics, solver)
        with pytest.raises(ValueError, match="positive"):
            bdf2_step(seeded_state, state, 0.0, sphere_l2_forms, physics, solver)


class TestModifiedEnergies:
    def test_bdf1_energy_at_equilibrium(self, sphere_l2_forms, physics):
        # constant c: gradient and stab terms vanish, energy = r^2 = E1 + C
        state = initial_state(sphere_l2_forms, physics, np.full(sphere_l2_forms.active.n_dofs, 0.5))
        area = sphere_l2_forms.active.area
        expected = area / 64.0 + physics.c_shift
        assert modified_energy(state, sphere_l2_forms, physics) == pytest.approx(
            expected, rel=1e-12
        )

    def test_bdf2_energy_of_identical_pair(self, sphere_l2_forms, physics):
        state = initial_state(sphere_l2_forms, physics, np.full(sphere_l2_forms.active.n_dofs, 0.5))
        e1 = modified_energy(state, sphere_l2_forms, physics)
        e2 = modified_energy(state, sphere_l2_forms, physics, prev=state)
        # with state == prev the pair energy doubles the r^2 and gradient parts
        assert e2 == pytest.approx(2.0 * e1, rel=1e-12)

    def test_monotone_decay_short_run(self, sphere_l2_forms, physics, seeded_state, solver):
        state = seeded_state
        energies = [modified_energy(state, sphere_l2_forms, physics)]
        for _ in range(10):
            state = bdf1_step(state, 0.005, sphere_l2_forms, physics, solver)
            energies.append(modified_energy(state, sphere_l2_forms, physics))
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-9 * np.abs(energies[0]))


class TestController:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeController(dt=0.0)
        with pytest.raises(ValueError):
            TimeController(dt=1.0, dt_max=0.5)
        with pytest.raises(ValueError):
            TimeController(dt=0.01, zeta=0.0)
        with pytest.raises(ValueError):
            TimeController(dt=0.01, ratio_max=1.0)

    def test_proposed_factor_value(self):
        assert proposed_factor(4e-3, 1e-3, 0.9) == pytest.approx(0.45, abs=1e-15)

    def test_proposed_factor_zero_error(self):
        assert proposed_factor(0.0, 1e-3, 0.9) == float("inf")

    def test_adapt_accepts_easy_step(self, sphere_l2_forms, physics, seeded_state, solver):
        controller = TimeController(dt=1e-4, tol=1e-3)
        prev = seeded_state
        state = bdf1_step(prev, controller.dt, sphere_l2_forms, physics, solver)
        nxt, attempts = adapt_step(controller, prev, state, sphere_l2_forms, physics, solver)
        assert attempts[-1].accepted
        assert nxt.t > state.t
        # growth is capped by ratio_max
        assert controller.dt <= 3.5 * attempts[-1].dt + 1e-15

    def test_adapt_rejects_shrink_strictly(self, sphere_l2_forms, physics, seeded_state, solver):
        # a huge first step forces rejections; each retry must shrink dt.
        # the scheme gap decays slowly while dt_prev stays at 5, so give the
        # shrink iteration a generous retry budget
        controller = TimeController(dt=5.0, dt_max=10.0, tol=1e-7, max_retries=40, dt_min=1e-12)
        prev = seeded_state
        state = bdf1_step(prev, 5.0, sphere_l2_forms, physics, solver)
        _, attempts = adapt_step(controller, prev, state, sphere_l2_forms, physics, solver)
        rejected = [a.dt for a in attempts if not a.accepted]
        assert rejected, "expected at least one rejection at tol = 1e-7"
        assert all(b < a for a, b in zip(rejected, [*rejected[1:], attempts[-1].dt]))

    def test_adapt_retry_cap_raises(self, sphere_l2_forms, physics, seeded_state, solver):
        controller = TimeController(dt=5.0, dt_max=10.0, tol=1e-14, max_retries=2, dt_min=1e-16)
        prev = seeded_state
        state = bdf1_step(prev, 5.0, sphere_l2_forms, physics, solver)
        with pytest.raises(TimeStepError):
            adapt_step(controller, prev, state, sphere_l2_forms, physics, solver)


class TestGuards:
    def test_energy_floor_error_on_zero_field(self, sphere_l2_forms, solver):
        # c = 0 has E1 = 0; with no shift the SAV denominator is invalid
        physics = PhysicsParams(epsilon=0.05, c_shift=0.0)
        zero = StateSnapshot(
            c=np.zeros(sphere_l2_forms.active.n_dofs),
            mu=np.zeros(sphere_l2_forms.active.n_dofs),
            r=0.0,
            t=0.0,
            dt_used=0.0,
        )
        with pytest.raises(EnergyFloorError):
            bdf1_step(zero, 0.01, sphere_l2_forms, physics, solver)

    def test_initial_state_fails_without_shift_at_zero(self, sphere_l2_forms):
        physics = PhysicsParams(epsilon=0.05, c_shift=0.0)
        with pytest.raises(EnergyFloorError):
            initial_state(sphere_l2_forms, physics, np.zeros(sphere_l2_forms.active.n_dofs))


class TestEnergyReport:
    def test_fields(self, sphere_l2_forms, physics, seeded_state, solver):
        nxt = bdf1_step(seeded_state, 0.005, sphere_l2_forms, physics, solver)
        report = make_energy_report(None, seeded_state, nxt, sphere_l2_forms, physics, "bdf1")
        assert report.t == pytest.approx(0.005)
        assert report.dt == pytest.approx(0.005)
        assert report.modified_energy == pytest.approx(
            modified_energy(nxt, sphere_l2_forms, physics), rel=1e-14
        )
        # r tracks sqrt(E1 + C) closely on a resolved step
        assert report.r_consistency < 1e-2 * (report.e1 + physics.c_shift)
        terms = energy_balance_terms(None, seeded_state, nxt, sphere_l2_forms, physics)
        assert report.balance_residual == abs(terms.sum())

    def test_scheme_picks_energy_and_balance(self, sphere_l2_forms, physics, seeded_state, solver):
        forms = sphere_l2_forms
        prev = seeded_state
        state = bdf1_step(prev, 0.005, forms, physics, solver)
        nxt = bdf2_step(prev, state, 0.005, forms, physics, solver)
        first = abs(energy_balance_terms(None, state, nxt, forms, physics).sum())
        second = abs(energy_balance_terms(prev, state, nxt, forms, physics).sum())
        bdf1 = make_energy_report(prev, state, nxt, forms, physics, "bdf1")
        assert bdf1.modified_energy == modified_energy(nxt, forms, physics)
        assert bdf1.balance_residual == first
        for scheme in ("bdf2", "adaptive"):
            report = make_energy_report(prev, state, nxt, forms, physics, scheme)
            assert report.modified_energy == modified_energy(nxt, forms, physics, prev=state)
            assert report.balance_residual == second
            bootstrap = make_energy_report(None, state, nxt, forms, physics, scheme)
            assert bootstrap.balance_residual == first

    @pytest.mark.parametrize("scheme", ["bdf1", "bdf2", "adaptive"])
    def test_previous_row_energy_is_reused(
        self, scheme, sphere_l2_forms, physics, seeded_state, solver, monkeypatch
    ):
        # with the previous row's energy the rows are bitwise the same, and
        # after the first row the modified energy is evaluated once per row
        import savfem.integrators as integrators

        calls = []
        energy = integrators.modified_energy

        def counted(*args, **kwargs):
            calls[-1] += 1
            return energy(*args, **kwargs)

        forms = sphere_l2_forms
        prev, state, rows = None, seeded_state, []
        for _ in range(4):
            if scheme == "bdf1" or prev is None:
                nxt = bdf1_step(state, 0.005, forms, physics, solver)
            else:
                nxt = bdf2_step(prev, state, 0.005, forms, physics, solver)
            fresh = make_energy_report(prev, state, nxt, forms, physics, scheme)
            monkeypatch.setattr(integrators, "modified_energy", counted)
            calls.append(0)
            prev_energy = rows[-1].modified_energy if rows else None
            rows.append(make_energy_report(prev, state, nxt, forms, physics, scheme, prev_energy))
            monkeypatch.setattr(integrators, "modified_energy", energy)
            assert rows[-1] == fresh
            prev, state = state, nxt
        assert calls == [3, 1, 1, 1]


class TestStepMobility:
    def test_snapshot_carries_the_step_mobility(
        self, sphere_l2_forms, physics, seeded_state, solver
    ):
        active = sphere_l2_forms.active
        assert seeded_state.mobility is None
        state = bdf1_step(seeded_state, 0.004, sphere_l2_forms, physics, solver)
        expected = _oracle_mobility(active, seeded_state.c)
        np.testing.assert_array_equal(state.mobility.data, expected.data)
        nxt = bdf2_step(seeded_state, state, 0.008, sphere_l2_forms, physics, solver)
        c_ref = 2.0 * state.c - seeded_state.c
        expected = _oracle_mobility(active, c_ref)
        np.testing.assert_array_equal(nxt.mobility.data, expected.data)


# Oracles: the three step routines and the two balance-term routines of the
# integrators before BDF1, BDF2 and variable-step BDF2 became one step, and a
# test-side formula of the variable-step remainder of the BDF2 balance.  They
# use per-element weighted copies of the stabilization (stab_h, stab_invh)
# and reassemble the mobility for the balance.


class _OracleForms(NamedTuple):
    active: object
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    stab_h: sp.csr_matrix
    stab_invh: sp.csr_matrix


def _oracle_forms(forms, weighted: bool) -> _OracleForms:
    """The static forms with stabilization copies: the per-element weighted
    ones the old routines were given, or the folded step's h-scaled ones."""
    a, stab, h = forms.active, forms.stab, forms.h_stab
    if weighted:
        elem = np.einsum("eik,ekl,ejl->eij", a.grads, a.stab_metric, a.grads)
        rows = np.broadcast_to(a.elem_dofs[:, :, None], elem.shape).reshape(-1)
        cols = np.broadcast_to(a.elem_dofs[:, None, :], elem.shape).reshape(-1)

        def scaled(weight):
            data = (weight[:, None, None] * elem).reshape(-1)
            mat = sp.coo_matrix((data, (rows, cols)), shape=stab.shape).tocsr()
            mat.sum_duplicates()
            np.testing.assert_array_equal(mat.indices, stab.indices)
            return mat

        d = circumdiameters(a)
        stab_h, stab_invh = scaled(d), scaled(1.0 / d)
    else:
        stab_h, stab_invh = _on(stab, h * stab.data), _on(stab, stab.data / h)
    return _OracleForms(a, forms.mass, forms.stiffness, stab_h, stab_invh)


def _on(form, data):
    return sp.csr_matrix((data, form.indices, form.indptr), shape=form.shape)


def _oracle_mobility(active, c):
    return assemble_surface_stiffness(active, mobility(interpolate_at_surface_qp(active, c)))


def _oracle_reference(forms, c_ref, physics):
    mob = _oracle_mobility(forms.active, c_ref)
    w = assemble_f0prime_load(forms.active, f0_prime(interpolate_at_surface_qp(forms.active, c_ref)))
    s = guarded_shifted_energy(compute_E1(forms.active, c_ref), physics.c_shift)
    return mob, w, s


def _oracle_solve(forms, physics, mobility, cc_scale, rhs_c, rhs_mu, w, s):
    eps2 = physics.epsilon**2
    system = BlockSystem(
        b_cc=cc_scale * forms.mass,
        b_cmu=_on(mobility, mobility.data + forms.stab_h.data),
        b_muc=_on(forms.stiffness, (-eps2) * forms.stiffness.data + (-eps2) * forms.stab_invh.data),
        b_mumu=forms.mass,
        rank_one_scale=-1.0 / (2.0 * s),
        rank_one_left=w,
        rank_one_right=w,
        rhs=np.concatenate([rhs_c, rhs_mu]),
    )
    c, mu, _ = solve_rank_one_system(system, fresh(forms))
    return c, mu


def _oracle_bdf1(prev, dt, forms, physics):
    mobility, w, s = _oracle_reference(forms, prev.c, physics)
    sq = np.sqrt(s)
    rho = physics.rho
    rhs_c = (rho / dt) * (forms.mass @ prev.c)
    rhs_mu = (prev.r / sq - np.dot(w, prev.c) / (2.0 * s)) * w
    c, mu = _oracle_solve(forms, physics, mobility, rho / dt, rhs_c, rhs_mu, w, s)
    r = prev.r + np.dot(w, c - prev.c) / (2.0 * sq)
    return StateSnapshot(c=c, mu=mu, r=float(r), t=prev.t + dt, dt_used=dt)


def _oracle_bdf2(prev2, prev1, dt, forms, physics):
    mobility, w, s = _oracle_reference(forms, 2.0 * prev1.c - prev2.c, physics)
    sq = np.sqrt(s)
    rho = physics.rho
    rhs_c = (2.0 * rho / dt) * (forms.mass @ prev1.c) - (0.5 * rho / dt) * (forms.mass @ prev2.c)
    rhs_mu = (
        (4.0 * prev1.r - prev2.r) / (3.0 * sq)
        - 2.0 * np.dot(w, prev1.c) / (3.0 * s)
        + np.dot(w, prev2.c) / (6.0 * s)
    ) * w
    c, mu = _oracle_solve(forms, physics, mobility, 1.5 * rho / dt, rhs_c, rhs_mu, w, s)
    r = (4.0 * prev1.r - prev2.r + np.dot(w, 3.0 * c - 4.0 * prev1.c + prev2.c) / (2.0 * sq)) / 3.0
    return StateSnapshot(c=c, mu=mu, r=float(r), t=prev1.t + dt, dt_used=dt)


def _oracle_bdf2_variable(prev2, prev1, dt, dt_prev, forms, physics):
    coef = SchemeCoefficients.from_ratio(dt / dt_prev)
    al, be, ga = coef.alpha, coef.beta, coef.gamma
    mobility, w, s = _oracle_reference(forms, 2.0 * prev1.c - prev2.c, physics)
    sq = np.sqrt(s)
    rho = physics.rho
    rhs_c = (be * rho / dt) * (forms.mass @ prev1.c) - (ga * rho / dt) * (forms.mass @ prev2.c)
    rhs_mu = (
        (be * prev1.r - ga * prev2.r) / (al * sq)
        - be * np.dot(w, prev1.c) / (2.0 * al * s)
        + ga * np.dot(w, prev2.c) / (2.0 * al * s)
    ) * w
    c, mu = _oracle_solve(forms, physics, mobility, al * rho / dt, rhs_c, rhs_mu, w, s)
    r = (
        be * prev1.r
        - ga * prev2.r
        + np.dot(w, al * c - be * prev1.c + ga * prev2.c) / (2.0 * sq)
    ) / al
    return StateSnapshot(c=c, mu=mu, r=float(r), t=prev1.t + dt, dt_used=dt)


def _quad(mat, v):
    return float(v @ (mat @ v))


def _oracle_energy_bdf1(state, forms, physics):
    eps2 = physics.epsilon**2
    return (
        0.5 * eps2 * _quad(forms.stiffness, state.c)
        + state.r**2
        + 0.5 * eps2 * _quad(forms.stab_invh, state.c)
    )


def _oracle_energy_bdf2(state, prev, forms, physics):
    eps2 = physics.epsilon**2
    d = 2.0 * state.c - prev.c
    return (
        0.5 * eps2 * (_quad(forms.stiffness, state.c) + _quad(forms.stiffness, d))
        + state.r**2
        + (2.0 * state.r - prev.r) ** 2
        + 0.5 * eps2 * (_quad(forms.stab_invh, state.c) + _quad(forms.stab_invh, d))
    )


def _oracle_balance_bdf1(prev, nxt, dt, forms, physics):
    eps2 = physics.epsilon**2
    a_mob = _oracle_mobility(forms.active, prev.c)
    d = nxt.c - prev.c
    return np.array(
        [
            _oracle_energy_bdf1(nxt, forms, physics) - _oracle_energy_bdf1(prev, forms, physics),
            0.5 * eps2 * _quad(forms.stiffness, d),
            (nxt.r - prev.r) ** 2,
            0.5 * eps2 * _quad(forms.stab_invh, d),
            (dt / physics.rho) * _quad(a_mob, nxt.mu),
            (dt / physics.rho) * _quad(forms.stab_h, nxt.mu),
        ]
    )


def _oracle_balance_bdf2(prev2, prev1, nxt, dt, forms, physics):
    eps2 = physics.epsilon**2
    a_mob = _oracle_mobility(forms.active, 2.0 * prev1.c - prev2.c)
    d2 = nxt.c - 2.0 * prev1.c + prev2.c
    return np.array(
        [
            _oracle_energy_bdf2(nxt, prev1, forms, physics)
            - _oracle_energy_bdf2(prev1, prev2, forms, physics),
            0.5 * eps2 * _quad(forms.stiffness, d2),
            (nxt.r - 2.0 * prev1.r + prev2.r) ** 2,
            0.5 * eps2 * _quad(forms.stab_invh, d2),
            (2.0 * dt / physics.rho) * _quad(a_mob, nxt.mu),
            (2.0 * dt / physics.rho) * _quad(forms.stab_h, nxt.mu),
        ]
    )


def _oracle_balance_remainder(prev2, prev1, nxt, forms, physics):
    """The seventh BDF2 balance term: 4[(c, d c)_E + r d r] at the new state,
    d the ratio-q difference less the uniform one and
    (u, v)_E = (eps^2/2)(K u, v) + (eps^2/2)(stab/h u, v)."""
    coef = SchemeCoefficients.from_ratio(nxt.dt_used / prev1.dt_used)

    def d(new, cur, old):
        ratio_q = coef.alpha * new - coef.beta * cur + coef.gamma * old
        return ratio_q - (1.5 * new - 2.0 * cur + 0.5 * old)

    dc, dr = d(nxt.c, prev1.c, prev2.c), d(nxt.r, prev1.r, prev2.r)
    half_eps2 = 0.5 * physics.epsilon**2
    energy = half_eps2 * (nxt.c @ (forms.stiffness @ dc)) + half_eps2 * (
        nxt.c @ (forms.stab_invh @ dc)
    )
    return 4.0 * (float(energy) + nxt.r * dr)


def _rel_dev(new, old) -> float:
    return float(np.abs(np.asarray(new) - old).max() / np.abs(old).max())


class TestFoldedSchemeAgainstOracles:
    """The folded step and balance against the three-copy routines.

    Given the h-scaled stabilization the folded step uses, the old routines
    give the same c, mu and r to 1e-14 (in fact bit for bit); given their
    element-weighted copies, which equal h stab and stab / h to round-off,
    they agree to the 1e-12 of criterion 6.  Balance terms are compared on
    the scale of the modified energy, whose increment is their first term.
    """

    TOL = {"scaled": 1e-14, "weighted": 1e-12}

    @pytest.fixture(scope="class", params=["scaled", "weighted"])
    def oracle(self, request, sphere_l2_forms):
        return request.param, _oracle_forms(sphere_l2_forms, request.param == "weighted")

    @pytest.mark.parametrize("scheme", ["bdf1", "bdf2", "q2", "q0.5"])
    def test_steps(self, scheme, sphere_l2_forms, oracle, physics, seeded_state):
        (kind, oracle_forms), forms, dt = oracle, sphere_l2_forms, 0.004
        prev = seeded_state
        state = bdf1_step(prev, dt, forms, physics, fresh(forms))
        for _ in range(3):
            if scheme == "bdf1":
                new = bdf1_step(state, dt, forms, physics, fresh(forms))
                old = _oracle_bdf1(state, dt, oracle_forms, physics)
            elif scheme == "bdf2":
                new = bdf2_step(prev, state, dt, forms, physics, fresh(forms))
                old = _oracle_bdf2(prev, state, dt, oracle_forms, physics)
            else:
                dt = float(scheme[1:]) * state.dt_used
                new = bdf2_step(prev, state, dt, forms, physics, fresh(forms))
                old = _oracle_bdf2_variable(prev, state, dt, state.dt_used, oracle_forms, physics)
            for a, b in ((new.c, old.c), (new.mu, old.mu), (new.r, old.r)):
                assert _rel_dev(a, b) <= self.TOL[kind]
            assert (new.t, new.dt_used) == (old.t, old.dt_used)
            prev, state = state, new

    @pytest.mark.parametrize("scheme", ["bdf1", "bdf2", "q2", "q0.5"])
    def test_balance_terms(self, scheme, sphere_l2_forms, oracle, physics, seeded_state, solver):
        (kind, oracle_forms), forms, dt = oracle, sphere_l2_forms, 0.004
        prev = seeded_state
        state = bdf1_step(prev, dt, forms, physics, solver)
        for _ in range(3):
            if scheme == "bdf1":
                nxt = bdf1_step(state, dt, forms, physics, solver)
                new = energy_balance_terms(None, state, nxt, forms, physics)
                old = _oracle_balance_bdf1(state, nxt, dt, oracle_forms, physics)
            else:
                dt = (1.0 if scheme == "bdf2" else float(scheme[1:])) * state.dt_used
                nxt = bdf2_step(prev, state, dt, forms, physics, solver)
                new = energy_balance_terms(prev, state, nxt, forms, physics)
                old = np.append(
                    _oracle_balance_bdf2(prev, state, nxt, dt, oracle_forms, physics),
                    _oracle_balance_remainder(prev, state, nxt, oracle_forms, physics),
                )
                if scheme == "bdf2":
                    assert new[6] == 0.0
            scale = modified_energy(state, forms, physics, prev=prev)
            assert new.shape == old.shape
            assert np.abs(new - old).max() <= 1e-14 * scale
            prev, state = state, nxt
