#!/usr/bin/env python3
"""Manufactured-solution convergence tables on the unit sphere.

Default: epsilon = 1 with BDF1 and BDF2 at levels 3-5 (a few minutes).
Pass --epsilon 0.05 for the small-interface column (slow: level 4 runs
200 steps on ~2.8k dofs, level 5 is much longer).
"""

import argparse
from pathlib import Path

from savfem.experiments import run_convergence
from savfem.output import format_convergence_table, write_convergence_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=1.0)
    ap.add_argument("--levels", type=int, nargs="+", default=[3, 4, 5])
    ap.add_argument("--schemes", nargs="+", default=["bdf1", "bdf2"])
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    for scheme in args.schemes:
        rows = run_convergence(
            args.levels, epsilon=args.epsilon, scheme=scheme, t_end=args.t_end, progress=True
        )
        print(f"\n{scheme}, epsilon = {args.epsilon}")
        print(format_convergence_table(rows))
        csv = out_dir / f"convergence_{scheme}_eps{args.epsilon:g}.csv"
        write_convergence_csv(csv, rows)
        print(f"csv: {csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
