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
build_chain), the tube check (the public orbitfold.validate_tubes) and
every check_* function that run_verification calls, each on its own (where
run_verification runs check_tubes too, the total counts the tube check
twice), with time.perf_counter
(wall time) and time.thread_time (the CPU time of the thread). It keeps
each item's minimum over the passes, which is steadier than one pass per
interpreter on a shared machine. Thread CPU time leaves out the time the
process waits while other processes hold the CPU. Last, it makes one more pass,
untimed, under tracemalloc, so the timed passes run untraced: an item's
peak is the most memory numpy and Python held during it above what was
held when it began. A last untimed pass counts, per item, the calls to
the public fold, to chamber._fold_rows and to smoothing._tube_claims,
through every module's binding of each. The script prints each item's
median wall time over the repeats and its interquartile range in
milliseconds on both sides, and the ratio of the medians, and beside
them the median thread CPU times and their ratio, and then one column
per counted function with its calls on both sides, as "parent/change";
then each item's median peak in MB on both sides, and their ratio.
Counts repeat exactly from run to run, so a change in the work an item
does shows beside its noisy times. It only reports: it applies no bound.
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
import orbitfold.chamber as chamber
import orbitfold.smoothing as smoothing
import orbitfold.verify as verify
from orbitfold import build_chain, preset_group, validate_tubes

preset, count, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
PASSES = 5
COUNTED = {"fold": chamber, "_fold_rows": chamber, "_tube_claims": smoothing}
times, cpu, peaks, calls = {}, {}, {}, {}
live = dict.fromkeys(COUNTED, 0)     # calls so far, once counting is on

def measured(name, fn):
    def run(*args, **kwargs):
        tracing = tracemalloc.is_tracing()
        if tracing:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        before = dict(live)
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            times[name] = times.get(name, 0.0) + time.perf_counter() - t0
            cpu[name] = cpu.get(name, 0.0) + time.thread_time() - c0
            if tracing:
                peak = tracemalloc.get_traced_memory()[1] - held
                peaks[name] = max(peaks.get(name, 0), peak)
            calls[name] = {f: live[f] - before[f] for f in live}
    return run

def count_calls():
    # every orbitfold module's binding of a counted function calls one
    # wrapper, which adds to live
    for fn_name, home in COUNTED.items():
        original = getattr(home, fn_name)
        def counted(*args, fn_name=fn_name, original=original, **kwargs):
            live[fn_name] += 1
            return original(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "orbitfold" and getattr(module, fn_name, None) is original:
                setattr(module, fn_name, counted)

def one_pass():
    chain = measured("chain build", lambda: build_chain(preset_group(preset)))()
    measured("tube check", validate_tubes)(chain)
    verify.run_verification(chain, count=count, seed=seed)

one_pass()
for name in [n for n in vars(verify) if n.startswith("check_")]:
    setattr(verify, name, measured(name, getattr(verify, name)))
best, best_cpu = {}, {}
for _ in range(PASSES):
    times.clear()
    cpu.clear()
    one_pass()
    for clock, kept in ((times, best), (cpu, best_cpu)):
        for name, seconds in clock.items():
            kept[name] = min(kept.get(name, seconds), seconds)
tracemalloc.start()
one_pass()
tracemalloc.stop()
count_calls()
one_pass()
print(json.dumps({"seconds": best, "cpu_seconds": best_cpu, "peak_bytes": peaks,
                  "calls": calls}))
"""


def run_once(checkout: Path, preset: str, count: int, seed: int) -> dict[str, dict]:
    """One fresh interpreter: each item's least wall and thread CPU
    seconds over the timed passes ("seconds", "cpu_seconds"), its peak
    in the traced pass ("peak_bytes") and its calls to each counted
    function in the counting pass ("calls"), by name."""
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
    counted = list(runs["parent"][0]["calls"].get(names[0], {}))
    print(f"{'item':32s} {'parent median':>14s} {'parent IQR':>11s} "
          f"{'change median':>14s} {'change IQR':>11s} {'ratio':>7s} "
          f"{'parent cpu':>11s} {'change cpu':>11s} {'cpu ratio':>9s}"
          + "".join(f" {fn:>15s}" for fn in counted))

    def ms(side, clock, name):
        return [1e3 * r[clock].get(name, 0.0) for r in runs[side]]

    def totals(side, clock):
        return [sum(col) for col in zip(*(ms(side, clock, name) for name in names))]

    def calls(side, items, fn):
        """Median over the repeats of the calls to fn in the given items."""
        return int(statistics.median(sum(r["calls"].get(name, {}).get(fn, 0) for name in items)
                                     for r in runs[side]))

    def row(label, values, items):
        """label, then each side's wall median and IQR, their ratio, each
        side's thread CPU median and their ratio, and the calls the items
        make to each counted function, parent/change."""
        cells = []
        for side in ("parent", "change"):
            q1, med, q3 = quartiles(values(side, "seconds"))
            cells += [med, q3 - q1]
        cpu = [statistics.median(values(side, "cpu_seconds")) for side in ("parent", "change")]
        ratio = cells[2] / cells[0] if cells[0] else float("nan")
        cpu_ratio = cpu[1] / cpu[0] if cpu[0] else float("nan")
        counts = [f"{calls('parent', items, fn)}/{calls('change', items, fn)}" for fn in counted]
        print(f"{label:32s} {cells[0]:14.3f} {cells[1]:11.3f} {cells[2]:14.3f} "
              f"{cells[3]:11.3f} {ratio:7.3f} {cpu[0]:11.3f} {cpu[1]:11.3f} {cpu_ratio:9.3f}"
              + "".join(f" {pair:>15s}" for pair in counts))

    for name in names:
        row(name, lambda side, clock: ms(side, clock, name), [name])
    row("total", totals, names)
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
