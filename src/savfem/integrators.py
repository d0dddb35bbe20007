"""Energy-stable SAV time integrators for the surface Cahn-Hilliard flow.

BDF1, BDF2 and variable-step BDF2 are one scheme, the variable-step BDF2
difference D c = (alpha c^{n+1} - beta c^n + gamma c^{n-1}) / dt (Chen,
Wang, Yan and Zhang, SINUM 2019) at a reference field ~c.  BDF1 is (1, 1, 0)
with ~c = c^n; BDF2 at the ratio q = dt^n / dt^{n-1} is
(alpha, beta, gamma)(q) with ~c = 2c^n - c^{n-1}, and (3/2, 2, 1/2) at q = 1.
One step solves a block system with a rank-one term, then updates r:

    rho (D c, v) + (M(~c) grad mu^{n+1}, grad v) + h (stab)              = 0
    (mu^{n+1}, q) - eps^2 (grad c^{n+1}, grad q) - h^{-1} eps^2 (stab)   = r^{n+1} (w, q) / S
    alpha r^{n+1} = beta r^n - gamma r^{n-1} + (w, dt D c) / (2 S)

with w_j = (f0'(~c), psi_j), S = sqrt(E1(~c) + C) and ``stab`` the
normal-gradient form scaled by the uniform element diameter h.

The modified energy and the balance terms implement the summation-by-parts
identities of BDF1 and BDF2 exactly (the normal-gradient energy terms carry
the h^{-1} eps^2 / 2 weight of the stabilized mu-equation), so after a
converged solve the balance residual is at the solver tolerance.  At a step
ratio q != 1 the BDF2 balance adds one signed term, the remainder of the
variable-step difference against the uniform one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import (
    AssembledForms,
    assemble_coefficient_forms,
    compute_E1,
    compute_mass,
    on_pattern,
)
from .linsolve import BlockSolver, BlockSystem, solve_rank_one_system
from .physics import PhysicsParams, guarded_shifted_energy

__all__ = [
    "StateSnapshot",
    "SchemeCoefficients",
    "BDF1",
    "TimeController",
    "StepAttempt",
    "EnergyReport",
    "TimeStepError",
    "bdf1_step",
    "bdf2_step",
    "modified_energy",
    "energy_balance_terms",
    "adapt_step",
    "proposed_factor",
    "make_energy_report",
]


class TimeStepError(RuntimeError):
    pass


@dataclass(frozen=True)
class StateSnapshot:
    """One accepted time level: concentration, potential, auxiliary variable.

    ``dt_used`` is the step that produced this state (0 for initial data),
    ``mobility`` the mobility stiffness that step assembled at its reference
    field (None for initial data).  Snapshots are treated as immutable
    history.
    """

    c: np.ndarray
    mu: np.ndarray
    r: float
    t: float
    dt_used: float
    mobility: sp.csr_matrix | None = field(default=None, repr=False)


@dataclass(frozen=True)
class SchemeCoefficients:
    """Variable-step BDF2 coefficients (alpha, beta, gamma) for the ratio q."""

    alpha: float
    beta: float
    gamma: float

    @classmethod
    def from_ratio(cls, q: float) -> "SchemeCoefficients":
        if q <= 0:
            raise ValueError("step ratio q must be positive")
        return cls(
            alpha=(1.0 + 2.0 * q) / (1.0 + q),
            beta=1.0 + q,
            gamma=q * q / (1.0 + q),
        )


BDF1 = SchemeCoefficients(alpha=1.0, beta=1.0, gamma=0.0)


def _sav_step(
    prev2: StateSnapshot,
    prev1: StateSnapshot,
    dt: float,
    coef: SchemeCoefficients,
    c_ref: np.ndarray,
    forms: AssembledForms,
    physics: PhysicsParams,
    solver: BlockSolver,
    forcing: np.ndarray | None,
) -> StateSnapshot:
    """The step with difference ``coef`` and reference field ``c_ref``.

    ``solver`` is the time loop's BlockSolver, whose pattern and stored LU
    may serve the solve.  ``forcing`` is an optional pre-assembled load
    vector (f, psi_j) added to the concentration equation.
    """
    mobility, w, e1 = assemble_coefficient_forms(forms.active, c_ref)
    s = guarded_shifted_energy(e1, physics.c_shift)
    sq = np.sqrt(s)
    al, be, ga = coef.alpha, coef.beta, coef.gamma
    rho, eps2, h = physics.rho, physics.epsilon**2, forms.h_stab

    rhs_c = (be * rho / dt) * (forms.mass @ prev1.c) - (ga * rho / dt) * (forms.mass @ prev2.c)
    if forcing is not None:
        rhs_c = rhs_c + forcing
    rhs_mu = (
        (be * prev1.r - ga * prev2.r) / (al * sq)
        - be * np.dot(w, prev1.c) / (2.0 * al * s)
        + ga * np.dot(w, prev2.c) / (2.0 * al * s)
    ) * w
    system = BlockSystem(
        b_cc=(al * rho / dt) * forms.mass,
        b_cmu=on_pattern(forms.active, mobility.data + h * forms.stab.data),
        b_muc=on_pattern(
            forms.active, (-eps2) * forms.stiffness.data + (-eps2) * (forms.stab.data / h)
        ),
        b_mumu=forms.mass,
        rank_one_scale=-1.0 / (2.0 * s),
        rank_one_left=w,
        rank_one_right=w,
        rhs=np.concatenate([rhs_c, rhs_mu]),
    )
    c, mu, _ = solve_rank_one_system(system, solver)
    r = (be * prev1.r - ga * prev2.r + np.dot(w, al * c - be * prev1.c + ga * prev2.c) / (2.0 * sq)) / al
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(mu)) and np.isfinite(r)):
        raise TimeStepError("time step produced non-finite values")
    return StateSnapshot(c=c, mu=mu, r=float(r), t=prev1.t + dt, dt_used=dt, mobility=mobility)


def bdf1_step(
    prev: StateSnapshot,
    dt: float,
    forms: AssembledForms,
    physics: PhysicsParams,
    solver: BlockSolver,
    forcing: np.ndarray | None = None,
) -> StateSnapshot:
    """One first-order SAV step from ``prev``."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return _sav_step(prev, prev, dt, BDF1, prev.c, forms, physics, solver, forcing)


def bdf2_step(
    prev2: StateSnapshot,
    prev1: StateSnapshot,
    dt: float,
    forms: AssembledForms,
    physics: PhysicsParams,
    solver: BlockSolver,
    forcing: np.ndarray | None = None,
) -> StateSnapshot:
    """One second-order SAV step; prev1 is the newer state.

    The step ratio is q = dt / prev1.dt_used, exactly 1 on fixed steps; the
    first step of a BDF2 run is bootstrapped by bdf1_step.
    """
    if dt <= 0 or prev1.dt_used <= 0:
        raise ValueError("dt and the step of prev1 must be positive")
    coef = SchemeCoefficients.from_ratio(dt / prev1.dt_used)
    c_ref = 2.0 * prev1.c - prev2.c
    return _sav_step(prev2, prev1, dt, coef, c_ref, forms, physics, solver, forcing)


def _quad_form(mat, v) -> float:
    return float(v @ (mat @ v))


def modified_energy(
    state: StateSnapshot,
    forms: AssembledForms,
    physics: PhysicsParams,
    prev: StateSnapshot | None = None,
) -> float:
    """BDF1 energy (eps^2/2)||grad_G c||^2 + r^2 + (eps^2/2h) c^T stab c.

    With ``prev``, the BDF2 energy of the pair: the BDF1 energy of the state
    plus that of (2c - c_prev, 2r - r_prev).
    """
    eps2, h = physics.epsilon**2, forms.h_stab

    def bdf1(c, r):
        return (
            0.5 * eps2 * _quad_form(forms.stiffness, c)
            + r**2
            + (0.5 * eps2 / h) * _quad_form(forms.stab, c)
        )

    energy = bdf1(state.c, state.r)
    if prev is not None:
        energy += bdf1(2.0 * state.c - prev.c, 2.0 * state.r - prev.r)
    return energy


def energy_balance_terms(
    prev2: StateSnapshot | None,
    prev1: StateSnapshot,
    nxt: StateSnapshot,
    forms: AssembledForms,
    physics: PhysicsParams,
    energies: tuple[float, float] | None = None,
) -> np.ndarray:
    """Signed terms of the energy balance of the step prev1 -> nxt.

    Without ``prev2`` it is the BDF1 balance: BDF1 energies and first
    differences.  With ``prev2`` it is the BDF2 balance at the step ratio
    q = nxt.dt_used / prev1.dt_used: pair energies, second differences, a
    factor 2 on the dissipation and a seventh, signed term, the remainder
    4[(c^{n+1}, dc)_E + r^{n+1} dr] of the ratio-q difference against the
    uniform one.  Here dx = (alpha - 3/2) x^{n+1} - (beta - 2) x^n +
    (gamma - 1/2) x^{n-1} and (u, v)_E = (eps^2/2)(K u, v) + (eps^2/2h)(S u, v)
    is the inner product of the modified energy; the remainder is exactly 0.0
    at q = 1.  The terms sum to zero up to the solver tolerance at every
    ratio; the dissipation uses the mobility the step assembled
    (``nxt.mobility``) and the step ``nxt.dt_used``.  ``energies`` is the
    (new, previous) pair of these modified energies when the caller has it
    already.
    """
    eps2, h = physics.epsilon**2, forms.h_stab
    if prev2 is None:
        dc, dr, factor = nxt.c - prev1.c, nxt.r - prev1.r, 1.0
    else:
        dc, dr, factor = nxt.c - 2.0 * prev1.c + prev2.c, nxt.r - 2.0 * prev1.r + prev2.r, 2.0
    if energies is None:
        pair = None if prev2 is None else prev1
        energies = (
            modified_energy(nxt, forms, physics, pair),
            modified_energy(prev1, forms, physics, prev2),
        )
    tau = factor * nxt.dt_used / physics.rho
    terms = [
        energies[0] - energies[1],
        0.5 * eps2 * _quad_form(forms.stiffness, dc),
        dr**2,
        (0.5 * eps2 / h) * _quad_form(forms.stab, dc),
        tau * _quad_form(nxt.mobility, nxt.mu),
        tau * h * _quad_form(forms.stab, nxt.mu),
    ]
    if prev2 is not None:
        coef = SchemeCoefficients.from_ratio(nxt.dt_used / prev1.dt_used)

        def delta(new, cur, old):
            return (coef.alpha - 1.5) * new - (coef.beta - 2.0) * cur + (coef.gamma - 0.5) * old

        dc_q, dr_q = delta(nxt.c, prev1.c, prev2.c), delta(nxt.r, prev1.r, prev2.r)
        energy_c = (0.5 * eps2) * (forms.stiffness @ nxt.c + (forms.stab @ nxt.c) / h)
        terms.append(4.0 * (float(energy_c @ dc_q) + nxt.r * dr_q))
    return np.array(terms)


@dataclass
class TimeController:
    """Adaptive step-size state and policy constants."""

    dt: float
    dt_min: float = 1e-7
    dt_max: float = 10.0
    tol: float = 1e-3
    zeta: float = 0.9
    ratio_max: float = 3.5
    max_retries: int = 10

    def __post_init__(self):
        if not (0.0 < self.dt_min <= self.dt <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt <= dt_max")
        if not (0.0 < self.zeta <= 1.0):
            raise ValueError("zeta must lie in (0, 1]")
        if self.tol <= 0 or self.ratio_max <= 1.0 or self.max_retries < 1:
            raise ValueError("invalid controller constants")


@dataclass(frozen=True)
class StepAttempt:
    dt: float
    error: float
    accepted: bool


def proposed_factor(error: float, tol: float, zeta: float) -> float:
    """Step-scaling factor zeta * sqrt(tol / e); +inf for a zero error."""
    if error <= 0.0:
        return float("inf")
    return zeta * float(np.sqrt(tol / error))


def adapt_step(
    controller: TimeController,
    prev2: StateSnapshot,
    prev1: StateSnapshot,
    forms: AssembledForms,
    physics: PhysicsParams,
    solver: BlockSolver,
):
    """One adaptive step: BDF1/BDF2 comparison with retry-and-shrink.

    At the trial dt both a BDF1 solution c1 and a BDF2 solution c2 at the
    ratio dt / prev1.dt_used are computed; their relative L2(Gamma_h)
    distance e, taken with the exact P1 mass as sqrt(c^T M c), decides:
    e > tol shrinks dt by zeta*sqrt(tol/e) (< 1) and retries, otherwise c2
    is accepted (with its BDF2 r-update) and the next dt grows by the same
    factor, clamped by ratio_max and dt_max.  Returns (accepted snapshot,
    attempts); controller.dt is updated to the next proposed step.
    """
    attempts: list[StepAttempt] = []
    dt = controller.dt
    for _ in range(controller.max_retries + 1):
        if dt < controller.dt_min:
            raise TimeStepError(
                f"trial step {dt:.3e} fell below dt_min {controller.dt_min:.3e} "
                f"after {len(attempts)} attempts"
            )
        c1 = bdf1_step(prev1, dt, forms, physics, solver)
        c2 = bdf2_step(prev2, prev1, dt, forms, physics, solver)
        denom = np.sqrt(_quad_form(forms.mass, c2.c))
        error = float(np.sqrt(_quad_form(forms.mass, c1.c - c2.c)) / denom) if denom > 0 else float("inf")
        factor = proposed_factor(error, controller.tol, controller.zeta)
        if error > controller.tol:
            attempts.append(StepAttempt(dt=dt, error=error, accepted=False))
            dt = factor * dt  # factor < 1 here, so rejected steps strictly shrink
            continue
        attempts.append(StepAttempt(dt=dt, error=error, accepted=True))
        controller.dt = float(min(factor * dt, controller.ratio_max * dt, controller.dt_max))
        return c2, attempts
    raise TimeStepError(
        f"step rejected {controller.max_retries + 1} times; last trial dt {dt:.3e}"
    )


@dataclass(frozen=True)
class EnergyReport:
    """Per-step diagnostics row (one CSV line per accepted step)."""

    t: float
    dt: float
    modified_energy: float
    e1: float
    r: float
    r_consistency: float
    mass: float
    balance_residual: float


def make_energy_report(
    prev2: StateSnapshot | None,
    prev1: StateSnapshot,
    state: StateSnapshot,
    forms: AssembledForms,
    physics: PhysicsParams,
    scheme: str,
    prev_energy: float | None = None,
) -> EnergyReport:
    """The diagnostics row of the accepted step prev1 -> state.

    ``scheme`` picks the modified energy: "bdf1" the single-state energy,
    "bdf2" and "adaptive" the pair energy with ``prev1``.  The balance
    residual is that of the BDF1 identity for the steps of a "bdf1" run and
    for a first step (``prev2`` None), and of the BDF2 identity at the
    step's ratio otherwise.  On every row after a run's first, the balance's
    energies are this row's modified energy and the previous row's,
    ``prev_energy``; with it, the modified energy is evaluated once per row.
    """
    bdf1 = scheme == "bdf1"
    energy = modified_energy(state, forms, physics, None if bdf1 else prev1)
    energies = None if prev_energy is None else (energy, prev_energy)
    terms = energy_balance_terms(None if bdf1 else prev2, prev1, state, forms, physics, energies)
    e1 = compute_E1(forms.active, state.c)
    report = EnergyReport(
        t=state.t,
        dt=state.dt_used,
        modified_energy=energy,
        e1=e1,
        r=state.r,
        r_consistency=float(abs(state.r**2 - (e1 + physics.c_shift))),
        mass=compute_mass(forms.active, state.c),
        balance_residual=float(abs(terms.sum())),
    )
    for name, value in vars(report).items():
        if not np.isfinite(value):
            raise ValueError(f"energy report field {name} is not finite")
    return report
