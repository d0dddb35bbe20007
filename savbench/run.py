"""The savfem benchmark: run one workload and print its metrics.

    python3 savbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a savfem checkout.  Every round of the workload runs in
a fresh process (savbench/workloads.py) with BLAS/OpenMP threads capped at
the number of usable cores.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: the median over the run's full
rounds of wall_s, steps_per_s and peak_rss_mib, and the median set-up time
over the full rounds plus setup-only rounds, three samples in all.
--trace 1 runs the workload once untraced and once traced and reports the
per-layer metrics of the traced round, with trace.overhead_s, the traced
minus the untraced wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS
from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a run ends within 180 s
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "peak_rss_mib": "MiB"}


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("SAVFEM_OUTPUT_DIR", None)  # it would override the round's output_dir
    return env


class Run:
    """The rounds of one benchmark run and their results."""

    def __init__(self, workload: str, out: Path):
        self.workload = workload
        self.out = out
        self.started = time.perf_counter()
        self.results: list[dict] = []
        self.longest = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def fits(self, seconds: float) -> bool:
        return self.elapsed() + self.longest <= seconds

    def round(self, mode: str, seed: int, traced: bool = False) -> dict:
        out = self.out / f"round{len(self.results)}-{mode}"
        cmd = [
            sys.executable, str(HERE / "workloads.py"), "--workload", self.workload,
            "--seed", str(seed), "--mode", mode, "--trace", str(int(traced)), "--out", str(out),
        ]
        t0 = time.perf_counter()
        try:
            timeout = max(1.0, RUN_LIMIT_S + 5 - self.elapsed())
            proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr, timeout=timeout)
            ok = proc.returncode == 0
        except subprocess.TimeoutExpired:
            ok = False
        self.longest = max(self.longest, time.perf_counter() - t0)
        result_file = out / "result.json"
        if ok and result_file.exists():
            result = json.loads(result_file.read_text())
        else:
            result = {"attempted": 1, "failed": 1, "failures": [f"{mode} round did not finish"]}
        for failure in result["failures"]:
            print(f"{self.workload} {mode} round: {failure}", file=sys.stderr)
        self.results.append(result)
        return result

    def totals(self) -> tuple[int, int]:
        return sum(r["attempted"] for r in self.results), sum(r["failed"] for r in self.results)


def timed_run(run: Run, seed: int, seconds: float) -> dict:
    spec = WORKLOADS[run.workload]
    full = []
    while not full or (
        run.fits(RUN_LIMIT_S) and (len(full) < spec.full_rounds or run.fits(seconds))
    ):
        full.append(run.round("full", seed + 1000 * len(full)))
    setups = [r["setup_s"] for r in full if "setup_s" in r]
    while len(setups) < SETUP_SAMPLES and run.fits(RUN_LIMIT_S):
        result = run.round("setup", seed)
        if "setup_s" not in result:
            break
        setups.append(result["setup_s"])

    done = [r for r in full if "wall_s" in r]
    values = {}
    if setups:
        values["setup_s"] = statistics.median(setups)
    if done:
        values["wall_s"] = statistics.median(r["wall_s"] for r in done)
        values["peak_rss_mib"] = statistics.median(r["peak_rss_mib"] for r in done)
        rates = [r["accepted"] / (r["wall_s"] - r["setup_s"]) for r in done if "setup_s" in r]
        if rates:
            values["steps_per_s"] = statistics.median(rates)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced_run(run: Run, seed: int) -> dict:
    plain = run.round("full", seed)
    traced = run.round("full", seed, traced=True)
    metrics = {
        name: {"value": value, "unit": LAYER_METRICS[name][0]}
        for name, value in traced.get("layers", {}).items()
    }
    if "wall_s" in plain and "wall_s" in traced:
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
    for name in traced.get("missing", []):
        print(f"not traced, no longer in the program: {name}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "savfem" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no savfem checkout at {ROOT} (src/savfem and configs/ are missing)",
              file=sys.stderr)
        return 2

    out = HERE / "_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = Run(args.workload, out)
    metrics = traced_run(run, args.seed) if args.trace else timed_run(run, args.seed, args.seconds)
    attempted, failed = run.totals()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
