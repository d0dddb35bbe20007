"""Acceptance gate: nine behavioral criteria of the solver.

Each criterion ends with one `criterion N (...): PASS/FAIL` line printed
straight to the terminal (bypassing capture), so the verdicts and measured
numbers are visible in any pytest run.

Reference error values are from an independent implementation of the same
discretization; its mesh construction differs, so absolute errors carry a
factor-2 allowance while observed convergence rates carry +-0.4.

The small-interface (epsilon = 0.05) convergence column is slow and is gated
behind SAVFEM_SLOW=1.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from savfem.assembly import compute_mass
from savfem.config import RunConfig, load_config
from savfem.experiments import (
    bernoulli_ic,
    build_problem,
    initial_state,
    observed_rate,
    run_convergence,
    run_phase_separation,
)
from savfem.integrators import (
    SchemeCoefficients,
    _sav_step,
    adapt_step,
    bdf1_step,
    bdf2_step,
    energy_balance_terms,
)
from savfem.levelset import sphere
from savfem.linsolve import BlockSolver, BlockSystem, solve_rank_one_system
from savfem.mesh import build_active_mesh, build_mesh
from savfem.physics import PhysicsParams

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

RATE_TOL = 0.4
ERROR_FACTOR = 2.0
TIME_BUDGET_S = 900.0

# reference L2(Gamma_h) errors of c at t = 1 (see module docstring)
REF_EPS1 = {
    "bdf1": {3: 0.3453e-2, 4: 0.0765e-2, 5: 0.0181e-2},
    "bdf2": {3: 0.3474e-2, 4: 0.0767e-2, 5: 0.0181e-2},
}
REF_EPS1_RATES = {(3, 4): 2.18, (4, 5): 2.07}
REF_EPS005 = {3: 2.8247e-2, 4: 0.9720e-2}
REF_EPS005_RATE = 1.54


def report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


# --- criterion 1: convergence rates -------------------------------------


@pytest.fixture(scope="module")
def eps1_tables():
    t0 = time.perf_counter()
    tables = {
        scheme: run_convergence([3, 4, 5], epsilon=1.0, scheme=scheme, t_end=1.0)
        for scheme in ("bdf1", "bdf2")
    }
    return tables, time.perf_counter() - t0


def test_criterion_1_convergence_rates(eps1_tables, capsys):
    tables, elapsed = eps1_tables
    failures = []
    summary = []
    for scheme, rows in tables.items():
        errors = {row.level: row.error for row in rows}
        for level, ref in REF_EPS1[scheme].items():
            ratio = errors[level] / ref
            summary.append(f"{scheme} l{level} err {errors[level]:.3e} ({ratio:.2f}x ref)")
            if not (1.0 / ERROR_FACTOR <= ratio <= ERROR_FACTOR):
                failures.append(f"{scheme} level {level}: error ratio {ratio:.2f} outside [0.5, 2]")
        for (coarse, fine), target in REF_EPS1_RATES.items():
            rate = observed_rate(errors[coarse], errors[fine])
            summary.append(f"{scheme} rate l{coarse}->l{fine} {rate:.2f}")
            if abs(rate - target) > RATE_TOL:
                failures.append(
                    f"{scheme} rate l{coarse}->l{fine} = {rate:.2f}, "
                    f"target {target} +- {RATE_TOL}"
                )
    if elapsed > TIME_BUDGET_S:
        failures.append(f"runtime {elapsed:.0f}s exceeds {TIME_BUDGET_S:.0f}s budget")
    verdict = "FAIL" if failures else "PASS"
    report(
        capsys,
        f"criterion 1 (convergence rates, eps=1): {verdict}  "
        f"[{'; '.join(summary)}; {elapsed:.0f}s]",
    )
    assert not failures, "; ".join(failures)


@pytest.mark.skipif(
    os.environ.get("SAVFEM_SLOW") != "1",
    reason="slow epsilon=0.05 column; set SAVFEM_SLOW=1 to run",
)
def test_criterion_1_slow_eps005(capsys):
    rows = run_convergence([3, 4], epsilon=0.05, scheme="bdf1", t_end=1.0)
    errors = {row.level: row.error for row in rows}
    rate = observed_rate(errors[3], errors[4])
    failures = []
    for level, ref in REF_EPS005.items():
        ratio = errors[level] / ref
        if not (1.0 / ERROR_FACTOR <= ratio <= ERROR_FACTOR):
            failures.append(f"level {level}: error ratio {ratio:.2f} outside [0.5, 2]")
    if abs(rate - REF_EPS005_RATE) > RATE_TOL:
        failures.append(
            f"rate {rate:.2f} outside {REF_EPS005_RATE} +- {RATE_TOL}; the reference "
            "value reflects coarse-level error saturation of a different mesh "
            "construction (this discretization is on the h^2 trend here, see "
            "the errors), so the window is not reachable without degrading l4"
        )
    verdict = "FAIL" if failures else "PASS"
    report(
        capsys,
        f"criterion 1 (slow, eps=0.05): {verdict}  "
        f"[l3 {errors[3]:.3e}, l4 {errors[4]:.3e}, rate {rate:.2f}]",
    )
    assert not failures, "; ".join(failures)


# --- criterion 2: termwise energy-balance identity -----------------------


def test_criterion_2_bdf1_energy_balance(sphere_l3_forms, capsys):
    physics = PhysicsParams(epsilon=0.05, c_shift=1.0)
    dt = 0.005
    state = initial_state(
        sphere_l3_forms, physics, bernoulli_ic(sphere_l3_forms.active, 0.5, seed=1)
    )
    solver = BlockSolver(sphere_l3_forms.active.dof_coords)
    worst = 0.0
    for _ in range(50):
        nxt = bdf1_step(state, dt, sphere_l3_forms, physics, solver)
        terms = energy_balance_terms(None, state, nxt, sphere_l3_forms, physics)
        worst = max(worst, abs(terms.sum()) / np.abs(terms).max())
        state = nxt
    ok = worst <= 1e-9
    report(
        capsys,
        f"criterion 2 (BDF1 balance identity): {'PASS' if ok else 'FAIL'}  "
        f"[worst termwise residual {worst:.3e}, tolerance 1e-9, 50 steps]",
    )
    assert ok, f"worst relative balance residual {worst:.3e} > 1e-9"


# --- criteria 3 and 4: energy decay and mass conservation ----------------


@pytest.fixture(scope="module")
def decay_runs(tmp_path_factory):
    runs = {}
    for scheme in ("bdf1", "bdf2"):
        for a in (0.3, 0.5, 0.7):
            config = RunConfig(
                surface="sphere",
                level=4,
                epsilon=0.05,
                scheme=scheme,
                dt=0.005,
                t_end=1.0,  # 200 steps
                ic_mean=a,
                seed=1,
                output_dir=str(tmp_path_factory.mktemp(f"decay_{scheme}_{a}")),
            )
            runs[(scheme, a)] = (config, run_phase_separation(config))
    return runs


def test_criterion_3_energy_monotonicity(decay_runs, capsys):
    failures = []
    worst = 0.0
    for (scheme, a), (config, result) in decay_runs.items():
        energy = np.array([r.modified_energy for r in result.reports])
        assert len(energy) == 200
        rises = np.diff(energy) / np.abs(energy[:-1])
        worst = max(worst, float(rises.max()))
        if np.any(rises > 1e-9):
            k = int(np.argmax(rises))
            failures.append(
                f"{scheme} a={a}: energy rises by {rises[k]:.2e} (relative) at step {k + 2}"
            )
    ok = not failures
    report(
        capsys,
        f"criterion 3 (modified-energy decay): {'PASS' if ok else 'FAIL'}  "
        f"[6 runs x 200 steps, worst relative rise {worst:.3e}, slack 1e-9]",
    )
    assert ok, "; ".join(failures)


def test_criterion_4_mass_conservation(decay_runs, capsys):
    worst = 0.0
    failures = []
    for (scheme, a), (config, result) in decay_runs.items():
        active = result.active
        m0 = compute_mass(active, bernoulli_ic(active, a, seed=1))
        masses = np.array([r.mass for r in result.reports])
        drift = float(np.abs(masses - m0).max() / abs(m0))
        worst = max(worst, drift)
        if drift > 1e-8:
            failures.append(f"{scheme} a={a}: relative mass drift {drift:.2e}")
    ok = not failures
    report(
        capsys,
        f"criterion 4 (mass conservation): {'PASS' if ok else 'FAIL'}  "
        f"[6 runs x 200 steps, worst relative drift {worst:.3e}, tolerance 1e-8]",
    )
    assert ok, "; ".join(failures)


# --- criterion 5: rank-one solver vs dense oracle ------------------------


def test_criterion_5_woodbury_vs_dense(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 201))

        def block(spd):
            a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
            return a @ a.T + n * np.eye(n) if spd else a

        # the four blocks on their union CSR pattern, ordered on random points
        blocks = [block(spd) for spd in (True, False, False, True)]
        union = sp.csr_matrix(np.any([b != 0 for b in blocks], axis=0))
        rows, cols = np.nonzero(union.toarray())
        b_cc, b_cmu, b_muc, b_mumu = (
            sp.csr_matrix((b[rows, cols], union.indices, union.indptr), shape=(n, n))
            for b in blocks
        )
        system = BlockSystem(
            b_cc=b_cc,
            b_cmu=b_cmu,
            b_muc=b_muc,
            b_mumu=b_mumu,
            rank_one_scale=float(rng.uniform(-2.0, 2.0)),
            rank_one_left=rng.standard_normal(n),
            rank_one_right=rng.standard_normal(n),
            rhs=rng.standard_normal(2 * n),
        )
        solver = BlockSolver(np.random.default_rng(n).random((n, 3)))
        c, mu, _ = solve_rank_one_system(system, solver)
        dense = np.zeros((2 * n, 2 * n))
        dense[:n, :n] = system.b_cc.toarray()
        dense[:n, n:] = system.b_cmu.toarray()
        dense[n:, :n] = system.b_muc.toarray()
        dense[n:, n:] = system.b_mumu.toarray()
        dense[n:, :n] += system.rank_one_scale * np.outer(
            system.rank_one_left, system.rank_one_right
        )
        exact = np.linalg.solve(dense, system.rhs)
        err = np.linalg.norm(np.concatenate([c, mu]) - exact) / np.linalg.norm(exact)
        worst = max(worst, float(err))
    ok = worst < 1e-10
    report(
        capsys,
        f"criterion 5 (rank-one solver vs dense): {'PASS' if ok else 'FAIL'}  "
        f"[20 systems, N <= 200, worst relative error {worst:.3e}, tolerance 1e-10]",
    )
    assert ok, f"worst relative error {worst:.3e} >= 1e-10"


# --- criterion 6: variable-step reduction ---------------------------------


def test_criterion_6_variable_step_reduction(sphere_l2_forms, capsys):
    coef1 = SchemeCoefficients.from_ratio(1.0)
    coef2 = SchemeCoefficients.from_ratio(2.0)
    coef_ok = (coef1.alpha, coef1.beta, coef1.gamma) == (1.5, 2.0, 0.5) and np.allclose(
        [coef2.alpha, coef2.beta, coef2.gamma], [5.0 / 3.0, 3.0, 4.0 / 3.0], atol=1e-15
    )

    physics = PhysicsParams(epsilon=0.05, c_shift=1.0)
    dt = 0.005
    prev = initial_state(
        sphere_l2_forms, physics, bernoulli_ic(sphere_l2_forms.active, 0.5, seed=1)
    )
    # bdf2_step on a uniform history against the step with the literal uniform
    # coefficients; one solver per path after the shared first step: both see
    # the same solves
    coords = sphere_l2_forms.active.dof_coords
    state = bdf1_step(prev, dt, sphere_l2_forms, physics, BlockSolver(coords))
    uniform_solver, variable_solver = BlockSolver(coords), BlockSolver(coords)
    uniform_coef = SchemeCoefficients(alpha=1.5, beta=2.0, gamma=0.5)
    worst = 0.0
    for _ in range(20):
        uniform = _sav_step(
            prev, state, dt, uniform_coef, 2.0 * state.c - prev.c,
            sphere_l2_forms, physics, uniform_solver, None,
        )
        variable = bdf2_step(prev, state, dt, sphere_l2_forms, physics, variable_solver)
        scale = float(np.abs(uniform.c).max())
        dev = max(
            float(np.abs(variable.c - uniform.c).max()) / scale,
            abs(variable.r - uniform.r) / abs(uniform.r),
        )
        worst = max(worst, dev)
        prev, state = state, uniform
    ok = coef_ok and worst <= 1e-12
    report(
        capsys,
        f"criterion 6 (variable-step reduction): {'PASS' if ok else 'FAIL'}  "
        f"[coefficients q=1 (1.5, 2, 0.5) and q=2 (5/3, 3, 4/3): "
        f"{'ok' if coef_ok else 'WRONG'}; worst q=1 deviation {worst:.3e} over 20 steps]",
    )
    assert coef_ok, "variable-step coefficients are wrong at q = 1 or q = 2"
    assert worst <= 1e-12, f"q = 1 deviation {worst:.3e} > 1e-12"


# --- criterion 7: adaptive controller behavior ----------------------------


def test_criterion_7_adaptive_controller(capsys):
    config = load_config(CONFIG_DIR / "adaptive_a05.cfg")
    assert (config.level, config.tol, config.zeta, config.dt, config.ic_mean) == (
        3,
        1e-3,
        0.9,
        0.005,
        0.5,
    ), "shipped adaptive config drifted from the documented study"

    _, active, forms = build_problem(config)
    physics = config.physics()
    controller = config.controller()
    solver = BlockSolver(active.dof_coords, config.solver_config())
    state0 = initial_state(forms, physics, bernoulli_ic(active, config.ic_mean, config.seed))
    prev = state0
    state = bdf1_step(prev, controller.dt, forms, physics, solver)
    rejection_monotone = True
    rejections = 0
    while state.t < config.t_end:
        nxt, attempts = adapt_step(controller, prev, state, forms, physics, solver)
        dts = [a.dt for a in attempts]
        for i, attempt in enumerate(attempts[:-1]):
            rejections += 1
            if not attempt.accepted and dts[i + 1] >= dts[i]:
                rejection_monotone = False
        prev, state = state, nxt
    final_dt = state.dt_used
    reached = state.t >= config.t_end
    grown = final_dt >= 10.0 * config.dt
    ok = reached and grown and rejection_monotone
    report(
        capsys,
        f"criterion 7 (adaptive controller): {'PASS' if ok else 'FAIL'}  "
        f"[reached t={state.t:.2f}; final dt {final_dt:.3g} "
        f"(>= {10 * config.dt:.3g} required); {rejections} rejections, "
        f"strict shrink: {rejection_monotone}]",
    )
    assert reached, f"run stalled at t = {state.t}"
    assert grown, f"final dt {final_dt:.3g} < 10 x initial {config.dt}"
    assert rejection_monotone, "a rejected step failed to reduce dt strictly"


# --- criterion 8: geometry oracle -----------------------------------------


def test_criterion_8_geometry_oracle(capsys):
    errors = []
    for level in (2, 3, 4):
        mesh = build_mesh(sphere(1.0), np.array([[-5.0 / 3.0, 5.0 / 3.0]] * 3), level)
        active = build_active_mesh(mesh, levelset=sphere(1.0))
        errors.append(abs(active.area - 4.0 * np.pi))
    orders = [observed_rate(a, b) for a, b in zip(errors, errors[1:])]
    area_ok = all(order >= 1.8 for order in orders)

    config = load_config(CONFIG_DIR / "cell_a05.cfg")
    _, cell_active, _ = build_problem(config)
    dofs = cell_active.n_dofs
    dof_ratio = dofs / 14298.0
    dofs_ok = abs(dofs - 14298) <= 0.2 * 14298
    ok = area_ok and dofs_ok
    report(
        capsys,
        f"criterion 8 (geometry oracle): {'PASS' if ok else 'FAIL'}  "
        f"[sphere area orders {orders[0]:.2f}, {orders[1]:.2f} (>= 1.8); "
        f"cell dofs {dofs} = {dof_ratio:.2f}x target 14298 (within +-20%)]",
    )
    assert area_ok, f"area convergence orders {orders} below 1.8"
    assert dofs_ok, f"cell dof count {dofs} outside 14298 +- 20%"


# --- criterion 9: exact balance and energy decay on an adaptive run -------


def test_criterion_9_adaptive_balance_identity(tmp_path, capsys):
    config = load_config(CONFIG_DIR / "adaptive_a05.cfg", [f"output_dir={tmp_path}"])
    result = run_phase_separation(config)
    energy = np.array([r.modified_energy for r in result.reports])
    balance = np.array([r.balance_residual for r in result.reports])
    worst_balance = float((balance / np.abs(energy)).max())
    worst_rise = float((np.diff(energy) / np.abs(energy[:-1])).max())
    ok = worst_balance <= 1e-9 and worst_rise <= 1e-9
    report(
        capsys,
        f"criterion 9 (adaptive balance identity): {'PASS' if ok else 'FAIL'}  "
        f"[{len(energy)} rows, {result.rejected} rejections; worst balance_residual / "
        f"|modified_energy| {worst_balance:.3e} (tolerance 1e-9); worst relative energy "
        f"rise {worst_rise:.3e} (slack 1e-9)]",
    )
    assert worst_balance <= 1e-9, f"balance residual {worst_balance:.3e} of the energy > 1e-9"
    assert worst_rise <= 1e-9, f"modified energy rises by {worst_rise:.3e} (relative) > 1e-9"
