#!/usr/bin/env python3
"""Modified-energy decay for random 30/50/70 mixtures on the sphere.

Runs BDF1 and BDF2 for a in {0.3, 0.5, 0.7} at level 4 with dt = 0.005
(200 steps each) and reports the largest energy increase and the mass
drift against the initial data's mass; both should be at round-off level.
Energy histories land in out/decay_<scheme>_a<percent>_energy.csv.
"""

import argparse

import numpy as np

from savfem.assembly import compute_mass
from savfem.config import RunConfig
from savfem.experiments import bernoulli_ic, run_phase_separation


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--level", type=int, default=4)
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--dt", type=float, default=0.005)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    for scheme in ("bdf1", "bdf2"):
        for a in (0.3, 0.5, 0.7):
            config = RunConfig(
                surface="sphere",
                level=args.level,
                epsilon=0.05,
                scheme=scheme,
                dt=args.dt,
                t_end=args.steps * args.dt,
                ic="random",
                ic_mean=a,
                seed=args.seed,
                run_name=f"decay_{scheme}_a{int(100 * a)}",
            )
            result = run_phase_separation(config)
            energy = np.array([r.modified_energy for r in result.reports])
            mass = np.array([r.mass for r in result.reports])
            max_rise = np.max(np.diff(energy)) / abs(energy[0])
            # report rows start at the first computed step, so mass[0] is already stepped
            mass0 = compute_mass(result.active, bernoulli_ic(result.active, a, args.seed))
            drift = np.max(np.abs(mass - mass0)) / abs(mass0)
            print(
                f"{scheme} a={a}: energy {energy[0]:.6f} -> {energy[-1]:.6f}  "
                f"max relative rise {max_rise:.2e}  mass drift {drift:.2e}  "
                f"csv {result.energy_csv}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
