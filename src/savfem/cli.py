"""Command-line entry points: solve, converge, mesh-info."""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from .config import ConfigError, load_config
from .experiments import build_problem, run_convergence, run_phase_separation
from .output import format_convergence_table, write_convergence_csv, write_vtk_surface

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="savfem",
        description="Surface Cahn-Hilliard solver on implicit surfaces "
        "(trace FEM with SAV time stepping).",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )

    p_solve = sub.add_parser("solve", help="run one phase-separation simulation")
    add_config_args(p_solve)
    p_solve.add_argument(
        "--export-surface",
        action="store_true",
        help="also write the final reconstructed surface as <run_name>_surface.vtk",
    )

    p_conv = sub.add_parser("converge", help="manufactured-solution refinement study")
    add_config_args(p_conv)
    p_conv.add_argument("--epsilon", type=float, default=None, help="defaults to the config value")
    p_conv.add_argument("--levels", type=int, nargs="+", default=[3, 4, 5])
    p_conv.add_argument("--scheme", choices=["bdf1", "bdf2"], default=None)
    p_conv.add_argument("--t-end", type=float, default=None)
    p_conv.add_argument("--output", default=None, help="write the table as CSV")

    p_mesh = sub.add_parser("mesh-info", help="report mesh statistics for a config")
    add_config_args(p_mesh)
    return parser


def _cmd_solve(args) -> int:
    config = load_config(args.config, args.override)
    result = run_phase_separation(config)
    if args.export_surface:
        path = config.resolved_output_dir() / f"{config.run_name}_surface.vtk"
        write_vtk_surface(path, result.active, result.state.c)
        print(f"surface: {path}")
    print(
        f"done: t={result.state.t:.6g} steps={result.accepted} "
        f"rejected={result.rejected} r={result.state.r:.6g}"
    )
    if result.reports:
        print(f"modified_energy={result.reports[-1].modified_energy:.10g} "
              f"mass={result.reports[-1].mass:.10g}")
    print(f"energy csv: {result.energy_csv}")
    return 0


def _cmd_converge(args) -> int:
    config = load_config(args.config, args.override)
    rows = run_convergence(
        levels=args.levels,
        epsilon=config.epsilon if args.epsilon is None else args.epsilon,
        scheme=args.scheme or config.scheme,
        t_end=config.t_end if args.t_end is None else args.t_end,
        c_shift=config.c_shift,
        solver_config=config.solver_config(),
        geometry_divisions=config.geometry_divisions,
        progress=args.verbose,
    )
    print(format_convergence_table(rows))
    if args.output:
        write_convergence_csv(args.output, rows)
        print(f"csv: {args.output}")
    return 0


def _cmd_mesh_info(args) -> int:
    config = load_config(args.config, args.override)
    mesh, active, forms = build_problem(config)
    nx, ny, nz = mesh.divisions
    print(f"surface: {config.surface}")
    print(f"level: {config.level}")
    print(f"divisions: {nx} x {ny} x {nz}")
    print(f"h: {mesh.h:.8g}")
    print(f"band nodes: {len(mesh.nodes)}")
    print(f"band tets: {len(mesh.tets)}")
    print(f"cut tets: {active.n_elements}")
    print(f"geometry divisions: {active.geometry_divisions}")
    print(f"geometry patches: {active.n_patches}")
    print(f"dofs: {active.n_dofs}")
    n_vertices, tri = len(active.poly_bary), active.tri_index
    edges = np.unique(np.sort(tri[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1) @ [n_vertices, 1])
    print(f"surface vertices: {n_vertices}")
    print(f"surface triangles: {len(tri)}")
    print(f"euler characteristic: {n_vertices - len(edges) + len(tri)}")
    print(f"surface area: {active.area:.8g}")
    print(f"band volume: {active.band_volume:.8g}")
    print(f"element diameter: {forms.h_stab:.8g}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "converge":
            return _cmd_converge(args)
        return _cmd_mesh_info(args)
    except (ConfigError, FileNotFoundError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
