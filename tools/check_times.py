"""Time each check of an `orbitfold verify` in two checkouts, alternating.

    python3 tools/check_times.py PARENT CHANGE [--preset a3] [--count 100]
                                 [--seed 1] [--repeats 11]

PARENT and CHANGE are two checkouts, each with its own src/, given as
paths absolute or relative to the current directory. Each repeat
starts one subprocess per checkout, the parent first in even repeats and
the change first in odd ones. A subprocess imports orbitfold from its
checkout's src/ and runs one untimed verification as a warm-up. It then
makes 5 timed passes, each on a fresh group and chain as the command-line
verify builds them, and times in each: the chain build (preset_group and
build_chain), the tube check (validate_tubes) and every check_* function
that run_verification calls, each on its own, with time.perf_counter. It
keeps each item's minimum over the passes, which is steadier than one
pass per interpreter on a shared machine. Last, it makes one more pass,
untimed, under tracemalloc, so the timed passes run untraced: an item's
peak is the most memory numpy and Python held during it above what was
held when it began. The script prints each item's median time over the
repeats and its interquartile range in milliseconds on both sides, and
the ratio of the medians; then each item's median peak in MB on both
sides, and their ratio. It only reports: it applies no bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# run in the subprocess, with the checkout's src/ on sys.path
PROBE = r"""
import json, sys, time, tracemalloc
import orbitfold.verify as verify
from orbitfold.groups import preset_group
from orbitfold.smoothing import build_chain, validate_tubes

preset, count, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
PASSES = 5
times, peaks = {}, {}

def measured(name, fn):
    def run(*args, **kwargs):
        tracing = tracemalloc.is_tracing()
        if tracing:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times[name] = times.get(name, 0.0) + time.perf_counter() - t0
            if tracing:
                peak = tracemalloc.get_traced_memory()[1] - held
                peaks[name] = max(peaks.get(name, 0), peak)
    return run

def one_pass():
    chain = measured("chain build", lambda: build_chain(preset_group(preset)))()
    measured("tube check", validate_tubes)(chain)
    verify.run_verification(chain, count=count, seed=seed)

one_pass()
for name in [n for n in vars(verify) if n.startswith("check_")]:
    setattr(verify, name, measured(name, getattr(verify, name)))
best = {}
for _ in range(PASSES):
    times.clear()
    one_pass()
    for name, seconds in times.items():
        best[name] = min(best.get(name, seconds), seconds)
tracemalloc.start()
one_pass()
tracemalloc.stop()
print(json.dumps({"seconds": best, "peak_bytes": peaks}))
"""


def run_once(checkout: Path, preset: str, count: int, seed: int) -> dict[str, dict]:
    """One fresh interpreter: each item's least seconds over the timed
    passes ("seconds") and its peak in the traced pass ("peak_bytes"), by
    name."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, preset, str(count), str(seed)],
        cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--preset", default="a3")
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=11)
    args = parser.parse_args(argv)

    # absolute, since each subprocess runs inside its checkout
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.repeats):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.preset, args.count, args.seed))
        print(f"repeat {i + 1}/{args.repeats} done ({order[0]} first)",
              file=sys.stderr, flush=True)

    names = list(runs["parent"][0]["seconds"])
    names += [n for n in runs["change"][0]["seconds"] if n not in names]
    print(f"{args.preset} verify, count {args.count}, seed {args.seed}: "
          f"{args.repeats} repeats, times in ms")
    print(f"{'item':32s} {'parent median':>14s} {'parent IQR':>11s} "
          f"{'change median':>14s} {'change IQR':>11s} {'ratio':>7s}")
    totals = {"parent": [0.0] * args.repeats, "change": [0.0] * args.repeats}
    for name in names:
        row = []
        for side in ("parent", "change"):
            values = [1e3 * r["seconds"].get(name, 0.0) for r in runs[side]]
            totals[side] = [t + v for t, v in zip(totals[side], values)]
            q1, med, q3 = quartiles(values)
            row += [med, q3 - q1]
        ratio = row[2] / row[0] if row[0] else float("nan")
        print(f"{name:32s} {row[0]:14.3f} {row[1]:11.3f} {row[2]:14.3f} {row[3]:11.3f} "
              f"{ratio:7.3f}")
    row = []
    for side in ("parent", "change"):
        q1, med, q3 = quartiles(totals[side])
        row += [med, q3 - q1]
    print(f"{'total':32s} {row[0]:14.3f} {row[1]:11.3f} {row[2]:14.3f} {row[3]:11.3f} "
          f"{row[2] / row[0]:7.3f}")
    print("\ntracemalloc peak of each item, one traced pass per repeat, in MB")
    print(f"{'item':32s} {'parent median':>14s} {'change median':>14s} {'ratio':>7s}")
    for name in names:
        medians = [statistics.median([r["peak_bytes"].get(name, 0) / 1e6 for r in runs[side]])
                   for side in ("parent", "change")]
        ratio = medians[1] / medians[0] if medians[0] else float("nan")
        print(f"{name:32s} {medians[0]:14.3f} {medians[1]:14.3f} {ratio:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
