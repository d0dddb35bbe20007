"""Interleaved before/after comparison of two checkouts with savbench.

    python3 scripts/bench_compare.py --base REV --tag TAG [--pairs 10] [--seed 1]
        [--workloads NAME ...] [--workdir DIR]

Exports the base revision with ``git archive`` into DIR/base (a temporary
directory by default, deleted at exit; an existing DIR/base is refused) and
compares it with this checkout's working tree.
Each pair runs ``python3 savbench/run.py --workload W --seed S --trace 0``
once on each side, the side that runs first alternating from pair to pair,
so that drift in the machine's speed hits both sides alike.  Each side runs
its own savbench.

Writes BENCH_<TAG>.json at the root of this checkout after every pair: the
end-to-end metrics of each pair, each side's median and quartiles, and per
metric the number of pairs in which this checkout is better than the base,
whether a gain holds and a no-regression verdict against the metric's
``bound`` in BENCHMARK.json: "worse", "unresolved" (the base's own spread
is wider than the bound) or "ok".  At the end of the series it prints one
line per workload and metric with both medians, the base's quartiles, the
wins, ``gain_holds`` and ``no_regression``, then the path of the file.
A pair in which either side is not correct or has failed operations is kept
in the pairs but left out of the medians and win counts, and counted as
``failed_pairs``; a gain never holds while any pair failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent


def export_base(rev: str, workdir: Path) -> Path:
    """The tree of ``rev`` as a plain directory under ``workdir``."""
    target = workdir / "base"
    archive = workdir / "base.tar"
    workdir.mkdir(parents=True, exist_ok=True)
    subprocess.run(["git", "archive", "--output", str(archive), rev], cwd=HEAD, check=True)
    target.mkdir(parents=True)
    with tarfile.open(archive) as tar:
        tar.extractall(target, filter="data")
    archive.unlink()
    return target


def run_side(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "savbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip().splitlines()[-1:]}
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def pair_failed(pair: dict) -> bool:
    return any(
        not pair[side].get("correct") or pair[side].get("failed", 0) > 0 for side in ("base", "head")
    )


def no_regression(base: list[float], head: list[float], sign: float, bound: float) -> str:
    """"worse" when the head's median is worse than the base's by more than
    ``bound`` (relative to the base median); else "unresolved" when the base's
    interquartile range exceeds ``bound`` times its median, unless every
    head run beats every base run; else "ok".  ``sign`` is 1 when lower is
    better and -1 when higher is."""
    base_q, head_q = quartiles(base), quartiles(head)
    allowed = bound * abs(base_q["median"])
    if sign * (head_q["median"] - base_q["median"]) > allowed:
        return "worse"
    beats_all = max(sign * h for h in head) < min(sign * b for b in base)
    if base_q["q3"] - base_q["q1"] > allowed and not beats_all:
        return "unresolved"
    return "ok"


def summary(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric of ``metrics`` (name -> its BENCHMARK.json entry, with
    ``better`` and ``bound``): both sides' quartiles, the head's wins over
    the pairs that did not fail and the no-regression verdict."""
    any_failed = any(pair_failed(p) for p in pairs)
    ok = [p for p in pairs if not pair_failed(p)]
    out = {}
    for metric, spec in metrics.items():
        direction = spec["better"]
        done = [p for p in ok if metric in p["base"] and metric in p["head"]]
        if not done:
            continue
        base = [p["base"][metric] for p in done]
        head = [p["head"][metric] for p in done]
        sign = 1.0 if direction == "lower" else -1.0
        base_q, head_q = quartiles(base), quartiles(head)
        wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
        gain = sign * (base_q["median"] - head_q["median"])
        out[metric] = {
            "better": direction,
            "base": base_q,
            "head": head_q,
            "head_wins": wins,
            "pairs": len(done),
            "median_ratio_base_over_head": base_q["median"] / head_q["median"],
            # A gain counts when the head wins 9 of 10 pairs and the medians
            # differ by more than the base's own interquartile spread.
            "gain_holds": not any_failed
            and wins >= 0.9 * len(done)
            and gain > base_q["q3"] - base_q["q1"],
            "no_regression": no_regression(base, head, sign, spec["bound"]),
        }
    return out


def summary_lines(report: dict) -> list[str]:
    """One line per workload and metric of a series' ``report``."""
    lines = []
    for workload, entry in report["workloads"].items():
        for metric, m in entry["summary"].items():
            base, head = m["base"], m["head"]
            lines.append(
                f"{workload} {metric} ({m['better']} is better): base {base['median']:.4g} "
                f"[{base['q1']:.4g}, {base['q3']:.4g}] head {head['median']:.4g}; "
                f"wins {m['head_wins']}/{m['pairs']}; gain_holds {m['gain_holds']}; "
                f"no_regression {m['no_regression']}"
            )
    return lines


def git_rev(rev: str) -> str:
    return subprocess.run(
        ["git", "rev-parse", rev], cwd=HEAD, capture_output=True, text=True, check=True
    ).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--tag", required=True, help="output is BENCH_<tag>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the base is exported (default: a temporary directory)")
    args = parser.parse_args(argv)

    spec = json.loads((HEAD / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    if args.workdir is not None and (args.workdir / "base").exists():
        parser.error(f"{args.workdir / 'base'} already exists; remove it or pick another --workdir")
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_compare_"))
    try:
        return compare(args, workdir, metrics, workloads)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)


def compare(args, workdir: Path, metrics: dict[str, dict], workloads: list[str]) -> int:
    sides = {"base": export_base(args.base, workdir), "head": HEAD}

    report = {
        "tag": args.tag,
        "base_rev": git_rev(args.base),
        "head_rev": git_rev("HEAD") + " + working tree",
        "seed": args.seed,
        "machine": {"nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
                    "python": platform.python_version()},
        "command": "python3 savbench/run.py --workload W --seed S --trace 0",
        "workloads": {w: {"pairs": [], "failed_pairs": 0, "summary": {}} for w in workloads},
    }
    out = HEAD / f"BENCH_{args.tag}.json"
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for workload in workloads:
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_side(sides[side], workload, args.seed)
            entry = report["workloads"][workload]
            entry["pairs"].append(pair)
            entry["failed_pairs"] = sum(1 for p in entry["pairs"] if pair_failed(p))
            entry["summary"] = summary(entry["pairs"], metrics)
            wall = {s: pair[s].get("wall_s") for s in ("base", "head")}
            print(f"pair {i + 1}/{args.pairs} {workload}: wall_s {wall}", file=sys.stderr)
            out.write_text(json.dumps(report, indent=1) + "\n")
    print("\n".join(summary_lines(report)))
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
