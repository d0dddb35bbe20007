"""The benchmark workloads, and one round of one of them in its own process.

    python3 savbench/workloads.py --workload NAME --seed N --mode full|setup \
        --trace 0|1 --out DIR

writes DIR/result.json, and DIR/trace.json when traced.  A ``full`` round
runs the whole workload from the loaded config and checks its outputs; a
``setup`` round stops each mesh level once its initial data exist, to time
set-up alone.  savbench/run.py starts the rounds and reports the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    config: str  # shipped config, relative to the checkout
    overrides: tuple[str, ...]
    full_rounds: int  # full rounds per timed run, each with its own seed
    levels: tuple[int, ...] = ()  # run_convergence levels; empty for a phase-separation run


# Why each workload, and what it stresses, is in savbench/README.md.
WORKLOADS = {
    # Level 5 (10 912 dofs), fixed-step BDF2, four steps, a surface snapshot
    # before the first and after the last step.
    "sphere-l5-bdf2": Workload("configs/sphere_a05.cfg", ("t_end=0.02", "vtk_interval=4"), 1),
    # Level 3 adaptive run to t_end = 5.  Its step count depends on the
    # random initial data, so a timed run makes three rounds on three seeds.
    "adaptive-l3": Workload("configs/adaptive_a05.cfg", ("t_end=5",), 3),
    # The manufactured-solution study as `savfem converge --config
    # configs/table1_eps005.cfg --levels 3 4 --epsilon 1 --scheme bdf2` runs it.
    "converge-eps1": Workload(
        "configs/table1_eps005.cfg", ("epsilon=1", "scheme=bdf2", "t_end=1"), 1, (3, 4)
    ),
}


class StopAfterSetup(Exception):
    """Raised by a setup round once the initial data exist."""


class SetupClock:
    """Set-up time: from the start of a run, or from ``build_mesh`` of a
    later mesh level, to the return of ``initial_state``, summed over levels.
    Both functions are probed as ``experiments`` imported them."""

    def __init__(self, experiments, stop: bool):
        self.total = 0.0
        self.opened: float | None = None
        build_mesh = experiments.build_mesh
        initial_state = experiments.initial_state

        def build_mesh_probe(*args, **kwargs):
            if self.opened is None:
                self.opened = time.perf_counter()
            return build_mesh(*args, **kwargs)

        def initial_state_probe(*args, **kwargs):
            state = initial_state(*args, **kwargs)
            self.total += time.perf_counter() - self.opened
            self.opened = None
            if stop:
                raise StopAfterSetup
            return state

        experiments.build_mesh = build_mesh_probe
        experiments.initial_state = initial_state_probe

    def start(self) -> None:
        self.opened = time.perf_counter()


def _check_outputs(spec: Workload, config, output) -> list[str]:
    """Failure messages of the workload's output checks."""
    from savfem.assembly import compute_mass
    from savfem.experiments import bernoulli_ic

    if spec.levels:
        return checks.check_convergence({row.level: row.error for row in output})

    header, rows = checks.parse_energy_csv(output.energy_csv.read_text())
    t, dt, energy, _, _, _, mass, balance = rows.T
    active = output.active
    initial_mass = compute_mass(active, bernoulli_ic(active, config.ic_mean, config.seed))
    failures = checks.check_header(header) + checks.check_energy_decay(energy)
    failures += checks.check_mass(mass, initial_mass)
    if config.scheme == "adaptive":
        # balance_residual is left unchecked here: the program applies the
        # uniform BDF2 identity to variable steps (see CHANGES.md).
        return failures + checks.check_adaptive_steps(
            t, dt, config.t_end, config.dt_max, config.ratio_max
        )
    n_steps = round(config.t_end / config.dt)
    failures += checks.check_uniform_steps(t, dt, config.dt, n_steps)
    failures += checks.check_balance(balance, energy)
    if config.vtk_interval:
        expected = {0, n_steps} | set(range(0, n_steps + 1, config.vtk_interval))
        if len(output.vtk_files) != len(expected):
            failures.append(f"{len(output.vtk_files)} snapshots, expected {len(expected)}")
        for path in output.vtk_files:
            points, triangles, values = checks.parse_vtk_surface(path)
            failures += checks.check_sphere_snapshot(points, triangles, values, active.mesh.h)
            path.unlink()  # 25 MB each at level 5
    return failures


def run_round(name: str, seed: int, mode: str, traced: bool, out_dir: Path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from savfem import experiments
    from savfem.config import load_config

    spec = WORKLOADS[name]
    config = load_config(
        ROOT / spec.config, [*spec.overrides, f"seed={seed}", f"output_dir={out_dir}"]
    )
    result: dict = {"attempted": 0, "failed": 0, "failures": []}

    def entry(levels=spec.levels):
        if levels:
            return experiments.run_convergence(
                levels,
                epsilon=config.epsilon,
                scheme=config.scheme,
                t_end=config.t_end,
                c_shift=config.c_shift,
                solver_config=config.solver_config(),
                geometry_divisions=config.geometry_divisions,
            )
        return experiments.run_phase_separation(config)

    tracer = clock = None
    if traced:
        tracer = tracing.Tracer()
        result["missing"] = tracer.install(tracing.TARGETS)
    else:
        try:
            clock = SetupClock(experiments, stop=mode == "setup")
        except AttributeError as exc:
            result["missing"] = [str(exc)]

    if mode == "setup":
        if clock is None:
            return result
        for levels in [(level,) for level in spec.levels] or [()]:
            clock.start()
            try:
                entry(levels)
            except StopAfterSetup:
                pass
        result["setup_s"] = clock.total
        return result

    start = time.perf_counter()
    if clock:
        clock.start()
    try:
        if tracer:
            output = tracer.call(f"experiments.{name}", entry, (), {})
        else:
            output = entry()
    except Exception:
        traceback.print_exc()
        csv = out_dir / f"{config.run_name}_energy.csv"
        rows = len(csv.read_text().splitlines()) - 1 if csv.exists() and not spec.levels else 0
        result["attempted"] = result["failed"] = rows + 1
        result["failures"].append(traceback.format_exc(limit=1).strip().splitlines()[-1])
        return result
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if clock:
        result["setup_s"] = clock.total
    # An operation is a time-step attempt; a fixed-step run accepts them all.
    if spec.levels:
        result["accepted"] = sum(round(config.t_end / row.dt) for row in output)
        result["attempted"] = result["accepted"]
    else:
        result["accepted"] = output.accepted
        result["attempted"] = output.accepted + output.rejected
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.installed, root=0)
        (out_dir / "trace.json").write_text(
            json.dumps({"missing": tracer.missing, "spans": tracer.as_json()})
        )
    try:
        result["failures"] = _check_outputs(spec, config, output)
    except (OSError, ValueError) as exc:
        result["failures"] = [f"outputs could not be checked: {exc}"]
    if result["failures"]:
        result["failed"] = result["attempted"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["full", "setup"], required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    result = run_round(args.workload, args.seed, args.mode, bool(args.trace), args.out.resolve())
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
