"""Resident memory after each set-up stage and in the time steps of one run.

    python3 scripts/rss_stages.py CONFIG [--override K=V ...] [--levels L ...] [--traced]

Runs ``savfem solve`` on CONFIG with the overrides, from this checkout's
``src``, or with ``--levels`` the convergence study of its epsilon, scheme
and t_end on those levels, as savbench's ``converge-eps1`` runs it, and
prints one line per probe: the function that just returned, the current
resident set (VmRSS) and the maximum so far (ru_maxrss), in MiB.  Probes
follow ``build_mesh``, every stage of ``build_active_mesh``,
``assemble_forms``, the forcing load of a convergence level
(``assemble_load``), ``initial_state``, every VTK snapshot and every
factorization.  With ``--traced`` the run is traced by tracemalloc, which
numpy reports its data buffers to, and each line also prints the traced
memory and the traced peak since the previous probe, in MiB: a high-water
mark per stage that heap layout does not decide (SuperLU's own storage is
not traced).  Tracing keeps a record of every allocation in the heap, so
the resident columns of a traced run are not those of a plain one.  Set
``t_end`` to keep to the first steps, e.g.

    python3 scripts/rss_stages.py configs/sphere_a05.cfg \\
        --override t_end=0.02 --override vtk_interval=4 --override output_dir=/tmp/rss
    python3 scripts/rss_stages.py configs/table1_eps005.cfg --override epsilon=1 \\
        --override scheme=bdf2 --override t_end=1 --levels 3 4

Each function is wrapped where its caller looks it up: in ``experiments``
as it imported them, and in ``mesh`` and ``linsolve`` for the stages and
factorizations they call by module-level name.  A name that is missing
stops the script, so that a rename cannot drop a probe silently.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import os
import resource
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBES = {
    "savfem.experiments": (
        "build_mesh", "build_active_mesh", "assemble_forms", "assemble_load", "initial_state",
        "write_vtk_surface",
    ),
    "savfem.mesh": (
        "_classify", "_element_geometry", "_patches", "_extract_polygons", "_triangle_areas",
        "_patch_gram",
    ),
    "savfem.linsolve": ("_lu_solver",),
}


def rss_mib() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def probe_line(name: str) -> str:
    """One output line: the resident set and, while tracing, the traced
    memory and the traced peak since the previous line."""
    line = f"{name:<22} {rss_mib():9.1f} {max_rss_mib():9.1f}"
    if tracemalloc.is_tracing():
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        line += f" {current / 2**20:10.1f} {peak / 2**20:10.1f}"
    return line


def install(probes) -> None:
    for module_name, names in probes.items():
        module = importlib.import_module(module_name)
        for name in names:
            if not hasattr(module, name):
                raise SystemExit(f"rss_stages: {module_name} has no {name}; update PROBES")
            fn = getattr(module, name)

            @functools.wraps(fn)
            def probed(*args, _fn=fn, _name=name, **kwargs):
                result = _fn(*args, **kwargs)
                print(probe_line(_name), flush=True)
                return result

            setattr(module, name, probed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--override", action="append", default=[], metavar="K=V")
    parser.add_argument("--levels", type=int, nargs="+", default=None,
                        help="run the convergence study on these levels")
    parser.add_argument("--traced", action="store_true",
                        help="also print tracemalloc's memory and peak since the previous line")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from savfem.config import load_config
    from savfem.experiments import run_convergence, run_phase_separation

    config = load_config(args.config, args.override)
    install(PROBES)
    header = f"{'after':<22} {'rss_mib':>9} {'max_mib':>9}"
    print(header + (f" {'traced_mib':>10} {'tpeak_mib':>10}" if args.traced else ""), flush=True)
    if args.traced:
        tracemalloc.start()
    try:
        if args.levels:
            run_convergence(
                args.levels, epsilon=config.epsilon, scheme=config.scheme, t_end=config.t_end,
                c_shift=config.c_shift, solver_config=config.solver_config(),
                geometry_divisions=config.geometry_divisions,
            )
        else:
            run_phase_separation(config)
        print(probe_line("end of run"), flush=True)
    finally:
        tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
