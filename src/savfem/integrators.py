"""Energy-stable SAV time integrators for the surface Cahn-Hilliard flow.

Each step solves one linear block system for (c^{n+1}, mu^{n+1}) followed by
a scalar update of the auxiliary variable r.  Denominators sqrt(E1(.)) are
shifted to sqrt(E1(.) + C) uniformly, which keeps the discrete energy
balance an exact algebraic identity:

BDF1 (reference field c^n):

    (rho/dt) (c^{n+1}, v) + (M(c^n) grad mu^{n+1}, grad v) + h (stab)      = (rho/dt)(c^n, v)
    (mu^{n+1}, q) - eps^2 (grad c^{n+1}, grad q) - h^{-1} eps^2 (stab)
                  - (1/(2(E1+C))) (w, c^{n+1})(w, q)                       = rhs_mu
    r^{n+1} = r^n + (w, c^{n+1} - c^n) / (2 sqrt(E1+C)),   w_j = (f0'(c^n), psi_j)

BDF2 uses the extrapolation ~c = 2c^n - c^{n-1} as reference field, the
(3, -4, 1)/(2 dt) difference, and the corresponding three-term r-update; the
variable-step variant replaces (3/2, 2, 1/2) by (alpha, beta, gamma)(q) with
q = dt^n / dt^{n-1}.

The modified energies and balance residuals implement the summation-by-parts
identities of the schemes exactly (all normal-gradient energy terms carry
the per-element h^{-1} eps^2 / 2 weight that the stabilized c-equation
produces), so after a converged linear solve the balance residual is at the
level of the solver tolerance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import (
    AssembledForms,
    assemble_f0prime_load,
    assemble_surface_stiffness,
    compute_E1,
    compute_mass,
    l2_norm_gamma,
)
from .linsolve import (
    BlockPattern,
    BlockSystem,
    LinearSolveError,
    SolverConfig,
    solve_rank_one_system,
)
from .physics import PhysicsParams, guarded_shifted_energy

__all__ = [
    "StateSnapshot",
    "SchemeCoefficients",
    "TimeController",
    "StepAttempt",
    "EnergyReport",
    "HistoryError",
    "TimeStepError",
    "bdf1_step",
    "bdf2_step",
    "bdf2_variable_step",
    "modified_energy_bdf1",
    "modified_energy_bdf2",
    "energy_balance_terms_bdf1",
    "energy_balance_residual_bdf1",
    "energy_balance_terms_bdf2",
    "energy_balance_residual_bdf2",
    "adapt_step",
    "proposed_factor",
    "make_energy_report",
]

log = logging.getLogger(__name__)


class HistoryError(RuntimeError):
    pass


class TimeStepError(RuntimeError):
    pass


@dataclass(frozen=True)
class StateSnapshot:
    """One accepted time level: concentration, potential, auxiliary variable.

    ``dt_used`` is the step that produced this state (0 for initial data).
    Snapshots are treated as immutable history.
    """

    c: np.ndarray
    mu: np.ndarray
    r: float
    t: float
    dt_used: float


@dataclass(frozen=True)
class SchemeCoefficients:
    """Variable-step BDF2 coefficients (alpha, beta, gamma) for the ratio q."""

    alpha: float
    beta: float
    gamma: float
    q: float

    @classmethod
    def from_ratio(cls, q: float) -> "SchemeCoefficients":
        if q <= 0:
            raise ValueError("step ratio q must be positive")
        return cls(
            alpha=(1.0 + 2.0 * q) / (1.0 + q),
            beta=1.0 + q,
            gamma=q * q / (1.0 + q),
            q=q,
        )


def _check_finite(state: StateSnapshot) -> StateSnapshot:
    if not (np.all(np.isfinite(state.c)) and np.all(np.isfinite(state.mu)) and np.isfinite(state.r)):
        raise TimeStepError("time step produced non-finite values")
    return state


def _reference_forms(forms: AssembledForms, c_ref: np.ndarray, physics: PhysicsParams):
    """Mobility stiffness, SAV load and shifted energy at the reference field."""
    forms.update_coefficient_forms(c_ref, physics)
    e1 = compute_E1(forms.active, c_ref)
    s = guarded_shifted_energy(e1, physics.c_shift)
    return forms.mobility, forms.sav_load, s


def _block_pattern(forms: AssembledForms) -> BlockPattern:
    """The fixed block pattern of the forms' mesh, built at its first solve."""
    pattern = forms.active._cache.get("block_pattern")
    if pattern is None:
        mass = forms.mass
        for form in (forms.stiffness, forms.stab_h, forms.stab_invh):
            if not (
                np.array_equal(form.indptr, mass.indptr)
                and np.array_equal(form.indices, mass.indices)
            ):
                raise LinearSolveError("the static forms do not share one CSR pattern")
        pattern = BlockPattern.build(forms.active.dof_coords, mass)
        forms.active._cache["block_pattern"] = pattern
    return pattern


def _on_pattern(form: sp.csr_matrix, data: np.ndarray) -> sp.csr_matrix:
    """``data`` on the CSR pattern of ``form``; unlike a sparse add, this
    keeps explicit zeros, so every block has the fixed pattern."""
    return sp.csr_matrix((data, form.indices, form.indptr), shape=form.shape)


def _solve_block(forms, physics, cc_scale, rhs_c, rhs_mu, w, s, solver_config):
    eps2 = physics.epsilon**2
    system = BlockSystem(
        b_cc=cc_scale * forms.mass,
        b_cmu=_on_pattern(forms.mobility, forms.mobility.data + forms.stab_h.data),
        b_muc=_on_pattern(
            forms.stiffness, (-eps2) * forms.stiffness.data + (-eps2) * forms.stab_invh.data
        ),
        b_mumu=forms.mass,
        rank_one_scale=-1.0 / (2.0 * s),
        rank_one_left=w,
        rank_one_right=w,
        rhs=np.concatenate([rhs_c, rhs_mu]),
    )
    return solve_rank_one_system(system, solver_config, _block_pattern(forms))


def bdf1_step(
    prev: StateSnapshot,
    dt: float,
    forms: AssembledForms,
    physics: PhysicsParams,
    solver_config: SolverConfig | None = None,
    forcing: np.ndarray | None = None,
) -> StateSnapshot:
    """One first-order SAV step from ``prev``.

    ``forcing`` is an optional pre-assembled load vector (f, psi_j) added to
    the concentration equation.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    _, w, s = _reference_forms(forms, prev.c, physics)
    sq = np.sqrt(s)
    rho = physics.rho

    rhs_c = (rho / dt) * (forms.mass @ prev.c)
    if forcing is not None:
        rhs_c = rhs_c + forcing
    rhs_mu = (prev.r / sq - np.dot(w, prev.c) / (2.0 * s)) * w

    c, mu, _ = _solve_block(forms, physics, rho / dt, rhs_c, rhs_mu, w, s, solver_config)
    r = prev.r + np.dot(w, c - prev.c) / (2.0 * sq)
    return _check_finite(StateSnapshot(c=c, mu=mu, r=float(r), t=prev.t + dt, dt_used=dt))


def bdf2_step(
    prev2: StateSnapshot,
    prev1: StateSnapshot,
    dt: float,
    forms: AssembledForms,
    physics: PhysicsParams,
    solver_config: SolverConfig | None = None,
    forcing: np.ndarray | None = None,
) -> StateSnapshot:
    """One uniform-step second-order SAV step; prev1 is the newer state.

    Requires prev1 to have been produced with the same dt (the first step of
    a BDF2 run is bootstrapped by bdf1_step).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if abs(prev1.dt_used - dt) > 1e-12 * dt:
        raise HistoryError(
            f"uniform BDF2 needs equal steps: prev dt {prev1.dt_used!r} vs dt {dt!r}"
        )
    c_tilde = 2.0 * prev1.c - prev2.c
    _, w, s = _reference_forms(forms, c_tilde, physics)
    sq = np.sqrt(s)
    rho = physics.rho

    rhs_c = (2.0 * rho / dt) * (forms.mass @ prev1.c) - (0.5 * rho / dt) * (forms.mass @ prev2.c)
    if forcing is not None:
        rhs_c = rhs_c + forcing
    rhs_mu = (
        (4.0 * prev1.r - prev2.r) / (3.0 * sq)
        - 2.0 * np.dot(w, prev1.c) / (3.0 * s)
        + np.dot(w, prev2.c) / (6.0 * s)
    ) * w

    c, mu, _ = _solve_block(forms, physics, 1.5 * rho / dt, rhs_c, rhs_mu, w, s, solver_config)
    r = (4.0 * prev1.r - prev2.r + np.dot(w, 3.0 * c - 4.0 * prev1.c + prev2.c) / (2.0 * sq)) / 3.0
    return _check_finite(StateSnapshot(c=c, mu=mu, r=float(r), t=prev1.t + dt, dt_used=dt))


def bdf2_variable_step(
    prev2: StateSnapshot,
    prev1: StateSnapshot,
    dt: float,
    dt_prev: float,
    forms: AssembledForms,
    physics: PhysicsParams,
    solver_config: SolverConfig | None = None,
    forcing: np.ndarray | None = None,
) -> StateSnapshot:
    """Variable-step BDF2 with ratio q = dt / dt_prev.

    Reduces exactly to bdf2_step at q = 1.
    """
    if dt <= 0 or dt_prev <= 0:
        raise ValueError("dt and dt_prev must be positive")
    coef = SchemeCoefficients.from_ratio(dt / dt_prev)
    al, be, ga = coef.alpha, coef.beta, coef.gamma
    c_tilde = 2.0 * prev1.c - prev2.c
    _, w, s = _reference_forms(forms, c_tilde, physics)
    sq = np.sqrt(s)
    rho = physics.rho

    rhs_c = (be * rho / dt) * (forms.mass @ prev1.c) - (ga * rho / dt) * (forms.mass @ prev2.c)
    if forcing is not None:
        rhs_c = rhs_c + forcing
    rhs_mu = (
        (be * prev1.r - ga * prev2.r) / (al * sq)
        - be * np.dot(w, prev1.c) / (2.0 * al * s)
        + ga * np.dot(w, prev2.c) / (2.0 * al * s)
    ) * w

    c, mu, _ = _solve_block(forms, physics, al * rho / dt, rhs_c, rhs_mu, w, s, solver_config)
    r = (
        be * prev1.r
        - ga * prev2.r
        + np.dot(w, al * c - be * prev1.c + ga * prev2.c) / (2.0 * sq)
    ) / al
    return _check_finite(StateSnapshot(c=c, mu=mu, r=float(r), t=prev1.t + dt, dt_used=dt))


def _quad_form(mat, v) -> float:
    return float(v @ (mat @ v))


def modified_energy_bdf1(state: StateSnapshot, forms: AssembledForms, physics: PhysicsParams) -> float:
    """(eps^2/2)||grad_G c||^2 + r^2 + (eps^2/2) c^T S_invh c."""
    eps2 = physics.epsilon**2
    return (
        0.5 * eps2 * _quad_form(forms.stiffness, state.c)
        + state.r**2
        + 0.5 * eps2 * _quad_form(forms.stab_invh, state.c)
    )


def modified_energy_bdf2(
    state: StateSnapshot, prev: StateSnapshot, forms: AssembledForms, physics: PhysicsParams
) -> float:
    """Six-term BDF2 energy of the pair (state, prev)."""
    eps2 = physics.epsilon**2
    d = 2.0 * state.c - prev.c
    return (
        0.5 * eps2 * (_quad_form(forms.stiffness, state.c) + _quad_form(forms.stiffness, d))
        + state.r**2
        + (2.0 * state.r - prev.r) ** 2
        + 0.5 * eps2 * (_quad_form(forms.stab_invh, state.c) + _quad_form(forms.stab_invh, d))
    )


def energy_balance_terms_bdf1(
    prev: StateSnapshot,
    nxt: StateSnapshot,
    dt: float,
    forms: AssembledForms,
    physics: PhysicsParams,
) -> np.ndarray:
    """Signed terms of the BDF1 energy balance; they sum to zero exactly.

    The mobility form is re-assembled at the step's reference field c^n, so
    the terms match the matrices the step actually used.
    """
    eps2 = physics.epsilon**2
    a_mob = assemble_surface_stiffness(forms.active, prev.c, physics.mobility)
    d = nxt.c - prev.c
    return np.array(
        [
            modified_energy_bdf1(nxt, forms, physics) - modified_energy_bdf1(prev, forms, physics),
            0.5 * eps2 * _quad_form(forms.stiffness, d),
            (nxt.r - prev.r) ** 2,
            0.5 * eps2 * _quad_form(forms.stab_invh, d),
            (dt / physics.rho) * _quad_form(a_mob, nxt.mu),
            (dt / physics.rho) * _quad_form(forms.stab_h, nxt.mu),
        ]
    )


def energy_balance_residual_bdf1(prev, nxt, dt, forms, physics) -> float:
    return float(abs(energy_balance_terms_bdf1(prev, nxt, dt, forms, physics).sum()))


def energy_balance_terms_bdf2(
    prev2: StateSnapshot,
    prev1: StateSnapshot,
    nxt: StateSnapshot,
    dt: float,
    forms: AssembledForms,
    physics: PhysicsParams,
) -> np.ndarray:
    """Signed terms of the uniform BDF2 energy balance (zero sum)."""
    eps2 = physics.epsilon**2
    c_tilde = 2.0 * prev1.c - prev2.c
    a_mob = assemble_surface_stiffness(forms.active, c_tilde, physics.mobility)
    d2 = nxt.c - 2.0 * prev1.c + prev2.c
    return np.array(
        [
            modified_energy_bdf2(nxt, prev1, forms, physics)
            - modified_energy_bdf2(prev1, prev2, forms, physics),
            0.5 * eps2 * _quad_form(forms.stiffness, d2),
            (nxt.r - 2.0 * prev1.r + prev2.r) ** 2,
            0.5 * eps2 * _quad_form(forms.stab_invh, d2),
            (2.0 * dt / physics.rho) * _quad_form(a_mob, nxt.mu),
            (2.0 * dt / physics.rho) * _quad_form(forms.stab_h, nxt.mu),
        ]
    )


def energy_balance_residual_bdf2(prev2, prev1, nxt, dt, forms, physics) -> float:
    return float(abs(energy_balance_terms_bdf2(prev2, prev1, nxt, dt, forms, physics).sum()))


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
    solver_config: SolverConfig | None = None,
    forcing: np.ndarray | None = None,
):
    """One adaptive step: BDF1/BDF2 comparison with retry-and-shrink.

    At the trial dt both a BDF1 solution c1 and a variable-step BDF2
    solution c2 are computed; their relative L2(Gamma_h) distance e decides:
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
        c1 = bdf1_step(prev1, dt, forms, physics, solver_config, forcing)
        c2 = bdf2_variable_step(
            prev2, prev1, dt, prev1.dt_used, forms, physics, solver_config, forcing
        )
        denom = l2_norm_gamma(forms.active, c2.c)
        error = l2_norm_gamma(forms.active, c1.c - c2.c) / denom if denom > 0 else float("inf")
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
    state: StateSnapshot,
    prev: StateSnapshot | None,
    forms: AssembledForms,
    physics: PhysicsParams,
    balance_residual: float,
    scheme: str,
) -> EnergyReport:
    """Assemble the diagnostics row for one accepted state.

    ``scheme`` picks the modified energy: "bdf1" uses the single-state
    energy, "bdf2" the pair energy with ``prev``.
    """
    if scheme == "bdf2":
        if prev is None:
            raise ValueError("bdf2 energy needs the previous state")
        energy = modified_energy_bdf2(state, prev, forms, physics)
    else:
        energy = modified_energy_bdf1(state, forms, physics)
    e1 = compute_E1(forms.active, state.c)
    report = EnergyReport(
        t=state.t,
        dt=state.dt_used,
        modified_energy=energy,
        e1=e1,
        r=state.r,
        r_consistency=float(abs(state.r**2 - (e1 + physics.c_shift))),
        mass=compute_mass(forms.active, state.c),
        balance_residual=float(balance_residual),
    )
    for name, value in vars(report).items():
        if not np.isfinite(value):
            raise ValueError(f"energy report field {name} is not finite")
    return report
