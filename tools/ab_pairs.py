"""Run alternating parent/change pairs of the benchmark and compare them.

    python3 tools/ab_pairs.py PARENT CHANGE --workload verify-a3[,map-b3,...]
                              [--pairs 10] [--seconds 25] [--first-seed 1]

PARENT and CHANGE are two checkouts, each with its own perfbench/run.py,
BENCHMARK.json and src/. --workload names one workload or several,
separated by commas. Pair i runs every workload at seed first-seed + i in
both checkouts, workload by workload, one checkout after the other: the
parent first in even pairs and the change first in odd ones. For each
workload and each end-to-end metric the script prints both sides'
medians and interquartile ranges, and how many pairs the change won and
lost ("better" as BENCHMARK.json declares it; ties count for neither).
It also prints each run's values. The script only reports: it applies
no bound and no claim rule.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; the metrics of its last output line, by name."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["failed"] = result["failed"]
    return metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def print_table(workload: str, runs: dict[str, list[dict]], better: dict[str, str],
                pairs: int, seconds: float) -> None:
    """One workload's comparison table, then each run's values."""
    print(f"{workload}: {pairs} pairs, {seconds:g} s runs")
    print(f"{'metric':14s} {'parent median':>14s} {'parent IQR':>12s} "
          f"{'change median':>14s} {'change IQR':>12s} {'ratio':>8s} {'wins':>5s} {'losses':>6s}")
    for name, direction in better.items():
        a = [r[name] for r in runs["parent"]]
        b = [r[name] for r in runs["change"]]
        pq1, pmed, pq3 = quartiles(a)
        cq1, cmed, cq3 = quartiles(b)
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        losses = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        ratio = cmed / pmed if pmed else float("nan")
        print(f"{name:14s} {pmed:14.6g} {pq3 - pq1:12.4g} {cmed:14.6g} {cq3 - cq1:12.4g} "
              f"{ratio:8.3f} {wins:5d} {losses:6d}")
    for side in ("parent", "change"):
        for name in better:
            print(f"{side} {name}: " + " ".join(f"{r[name]:.6g}" for r in runs[side]))
    print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better["failed"] = "lower"
    workloads = args.workload.split(",")
    sides = {"parent": args.parent, "change": args.change}
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                runs[workload][side].append(run_once(sides[side], workload, seed, seconds))
        print(f"pair {i + 1}/{args.pairs} seed {seed} done ({order[0]} first)",
              file=sys.stderr, flush=True)

    for workload in workloads:
        print_table(workload, runs[workload], better, args.pairs, seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
