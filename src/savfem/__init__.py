"""Surface Cahn-Hilliard solver on implicitly defined surfaces.

Unfitted trace finite elements on a background tetrahedral mesh combined
with scalar-auxiliary-variable time integrators (BDF1, BDF2, adaptive
variable-step BDF2) that dissipate a modified energy exactly.
"""

from .assembly import (
    AssembledForms,
    assemble_forms,
    assemble_load,
    assemble_normal_stabilization,
    assemble_surface_mass,
    assemble_surface_stiffness,
    compute_E1,
    compute_mass,
    l2_norm_gamma,
)
from .config import CELL_BOX, SPHERE_BOX, ConfigError, RunConfig, load_config
from .experiments import (
    ConvergenceRow,
    RunResult,
    bernoulli_ic,
    initial_state,
    observed_rate,
    run_convergence,
    run_phase_separation,
)
from .integrators import (
    EnergyReport,
    SchemeCoefficients,
    StateSnapshot,
    TimeController,
    TimeStepError,
    adapt_step,
    bdf1_step,
    bdf2_step,
    energy_balance_terms,
    modified_energy,
)
from .levelset import LevelSetField, idealized_cell, interpolate_p1, sphere
from .linsolve import (
    BlockSolver,
    BlockSystem,
    LinearSolveError,
    SingularUpdateError,
    SolverConfig,
    solve_rank_one_system,
)
from .manufactured import ManufacturedSolution, manufactured_solution
from .mesh import ActiveMesh, BackgroundMesh, MeshError, build_active_mesh, build_mesh
from .physics import EnergyFloorError, PhysicsParams, f0, f0_prime, r_init

__version__ = "0.1.0"
