"""Experiment drivers: manufactured convergence runs and phase separation."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .assembly import (
    AssembledForms,
    assemble_forms,
    assemble_load,
    compute_E1,
    l2_norm_gamma,
)
from .config import SPHERE_BOX, RunConfig
from .integrators import (
    EnergyReport,
    StateSnapshot,
    adapt_step,
    bdf1_step,
    bdf2_step,
    make_energy_report,
)
from .levelset import sphere
from .linsolve import BlockSolver, SolverConfig
from .manufactured import manufactured_solution
from .mesh import ActiveMesh, build_active_mesh, build_mesh
from .output import EnergyCsvSink, write_vtk_surface
from .physics import PhysicsParams, r_init

__all__ = [
    "bernoulli_ic",
    "initial_state",
    "observed_rate",
    "ConvergenceRow",
    "run_convergence",
    "RunResult",
    "run_phase_separation",
    "build_problem",
]

log = logging.getLogger(__name__)

REFERENCE_DT = 0.02  # convergence step at level 3, halved per refinement


def bernoulli_ic(active: ActiveMesh, mean: float, seed: int) -> np.ndarray:
    """Random indicator initial data with expectation ``mean`` per dof."""
    if not (0.0 < mean < 1.0):
        raise ValueError("mean must lie in (0, 1)")
    rng = np.random.Generator(np.random.PCG64(seed))
    return (rng.random(active.n_dofs) < mean).astype(float)


def initial_state(forms: AssembledForms, physics: PhysicsParams, c0: np.ndarray) -> StateSnapshot:
    """Wrap initial data: r from the shifted energy, mu zeroed, t = 0."""
    c0 = np.asarray(c0, dtype=float)
    r0 = r_init(compute_E1(forms.active, c0), physics.c_shift)
    return StateSnapshot(c=c0, mu=np.zeros_like(c0), r=r0, t=0.0, dt_used=0.0)


def observed_rate(coarse_error: float, fine_error: float) -> float:
    """log2 error ratio under mesh halving; +inf when the fine error is zero."""
    if coarse_error < 0 or fine_error < 0:
        raise ValueError("errors must be nonnegative")
    if fine_error == 0.0:
        return math.inf
    return math.log2(coarse_error / fine_error)


def _step_count(t_end: float, dt: float) -> int:
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * t_end:
        raise ValueError(f"t_end {t_end} is not a multiple of dt {dt}")
    return n_steps


def _advance(scheme, prev, state, dt, forms, physics, solver, forcing=None, controller=None):
    """One accepted step from (prev, state), and its number of rejected attempts.

    Every step of a "bdf1" run and the first step (``prev`` None) of the
    others is a BDF1 step of size dt; then a "bdf2" run takes uniform BDF2
    steps and an "adaptive" run the controller's steps.
    """
    if scheme == "bdf1" or prev is None:
        return bdf1_step(state, dt, forms, physics, solver, forcing), 0
    if scheme == "bdf2":
        return bdf2_step(prev, state, dt, forms, physics, solver, forcing), 0
    nxt, attempts = adapt_step(controller, prev, state, forms, physics, solver)
    return nxt, sum(1 for a in attempts if not a.accepted)


@dataclass(frozen=True)
class ConvergenceRow:
    level: int
    h: float
    dt: float
    n_dofs: int
    error: float
    rate: float | None


def run_convergence(
    levels,
    epsilon: float,
    scheme: str = "bdf1",
    t_end: float = 1.0,
    c_shift: float = 1.0,
    solver_config: SolverConfig | None = None,
    geometry_divisions: int = 2,
    progress: bool = False,
) -> list[ConvergenceRow]:
    """Manufactured-solution refinement study on the unit sphere.

    Initial data is the nodal interpolant of the exact tanh band; the source
    term keeps it stationary, and the reported error is
    ||c_h(t_end) - I_h c*||_{L2(Gamma_h)}.  The step size halves with the
    mesh: dt_l = 0.02 * 2^(3-l).  Each level's steps share one BlockSolver
    built from ``solver_config``, whose totals are logged at INFO level.
    """
    if scheme not in ("bdf1", "bdf2"):
        raise ValueError("convergence runs support bdf1 or bdf2")
    physics = PhysicsParams(epsilon=epsilon, c_shift=c_shift)
    study = (manufactured_solution(epsilon), physics, scheme, t_end, solver_config, geometry_divisions)
    rows: list[ConvergenceRow] = []
    for level in levels:
        t0 = time.perf_counter()
        row = _convergence_level(level, rows[-1].error if rows else None, *study)
        rows.append(row)
        if progress:
            log.info(
                "level %d: h=%.4e dofs=%d error=%.4e rate=%s (%.1fs)",
                level, row.h, row.n_dofs, row.error,
                "-" if row.rate is None else f"{row.rate:.2f}", time.perf_counter() - t0,
            )
    return rows


def _convergence_level(level, prev_error, ms, physics, scheme, t_end, solver_config, divisions):
    """One level of ``run_convergence``; its mesh, forms and states die on return."""
    mesh = build_mesh(sphere(1.0), SPHERE_BOX, level)
    active = build_active_mesh(mesh, levelset=sphere(1.0), geometry_divisions=divisions)
    forms = assemble_forms(active)
    forcing = assemble_load(active, ms.forcing)
    c_star = ms.concentration(active.dof_coords)
    state = initial_state(forms, physics, c_star)

    dt = REFERENCE_DT * 2.0 ** (3 - level)
    solver = BlockSolver(active.dof_coords, solver_config)
    prev = None
    for _ in range(_step_count(t_end, dt)):
        nxt, _ = _advance(scheme, prev, state, dt, forms, physics, solver, forcing)
        prev, state = state, nxt
    solver.release()
    log.info("level %d: %s", level, solver.totals)

    error = l2_norm_gamma(active, state.c - c_star)
    return ConvergenceRow(
        level=level, h=mesh.h, dt=dt, n_dofs=active.n_dofs, error=error,
        rate=None if prev_error is None else observed_rate(prev_error, error),
    )


def build_problem(config: RunConfig):
    """Background mesh, active mesh and static forms for a run config."""
    mesh = build_mesh(config.levelset(), config.box(), config.level, base_scale=config.base_scale)
    active = build_active_mesh(
        mesh, levelset=config.levelset(), geometry_divisions=config.geometry_divisions
    )
    return mesh, active, assemble_forms(active)


@dataclass
class RunResult:
    """Final state plus the per-step diagnostics of one time loop."""

    state: StateSnapshot
    reports: list[EnergyReport]
    accepted: int
    rejected: int
    energy_csv: Path
    vtk_files: list[Path] = field(default_factory=list)
    active: ActiveMesh | None = None


def run_phase_separation(config: RunConfig) -> RunResult:
    """Time loop for one phase-separation run described by ``config``.

    Unforced flow; per accepted step one diagnostics row is emitted (rows
    start at the first computed step) and, every ``vtk_interval`` steps and
    after the last, a VTK snapshot.  BDF2 and adaptive runs bootstrap with a
    single BDF1 step of size dt.  Adaptive runs do not clamp the final step
    to t_end, so the last accepted step size is a genuine controller product.
    All solves of the run share one BlockSolver, whose totals are logged at
    INFO level when the run ends.
    """
    adaptive = config.scheme == "adaptive"
    n_steps = None if adaptive else _step_count(config.t_end, config.dt)
    _, active, forms = build_problem(config)
    physics = config.physics()
    solver = BlockSolver(active.dof_coords, config.solver_config())
    controller = config.controller() if adaptive else None
    state = initial_state(forms, physics, bernoulli_ic(active, config.ic_mean, config.seed))

    out_dir = config.resolved_output_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    sink = EnergyCsvSink(out_dir / f"{config.run_name}_energy.csv")
    vtk_files: list[Path] = []

    def maybe_vtk(step_index: int, snapshot: StateSnapshot, final: bool = False) -> None:
        if config.vtk_interval == 0:
            return
        if final or step_index % config.vtk_interval == 0:
            path = out_dir / f"{config.run_name}_{step_index:06d}.vtk"
            write_vtk_surface(path, active, snapshot.c)
            vtk_files.append(path)

    reports: list[EnergyReport] = []
    prev = None
    rejected = 0
    done = False
    try:
        maybe_vtk(0, state)
        while not done:
            nxt, n_rejected = _advance(
                config.scheme, prev, state, config.dt, forms, physics, solver,
                controller=controller,
            )
            prev_energy = reports[-1].modified_energy if reports else None
            reports.append(
                make_energy_report(prev, state, nxt, forms, physics, config.scheme, prev_energy)
            )
            prev, state = state, nxt
            rejected += n_rejected
            sink.write(reports[-1])
            done = state.t >= config.t_end if adaptive else len(reports) == n_steps
            maybe_vtk(len(reports), state, final=done)
    finally:
        solver.release()
        sink.close()
    log.info("%s: %s", config.run_name, solver.totals)

    return RunResult(
        state=state,
        reports=reports,
        accepted=len(reports),
        rejected=rejected,
        energy_csv=sink.path,
        vtk_files=vtk_files,
        active=active,
    )
