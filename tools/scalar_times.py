"""Time the scalar maps in two checkouts, alternating, and count their calls.

    python3 tools/scalar_times.py PARENT CHANGE [--repeats 7] [--points 400]
                                  [--seed 1]

PARENT and CHANGE are two checkouts, each with its own src/, given as
paths absolute or relative to the current directory. The cases are the
scalar `apply_H` on a2, a3 and b3, one call per point, and `model_H` of
the 3x3 symmetric-matrix model, one call per matrix. Their inputs are
drawn from numpy alone, with the seed, so both checkouts see the same:
per preset, a third of the points at Gaussian directions and log-uniform
sizes in [0.05, 5], a third moved onto a random mirror and a third onto
two, each then moved off by at most 0.05*|p| in a Gaussian direction, so
that most land in the wall tubes; for model_H, half the matrices
Gaussian symmetric ones and half with two equal eigenvalues, rotated at
random (their section point lies on a wall).

Each repeat starts one subprocess per checkout, the parent first in even
repeats and the change first in odd ones. A subprocess imports orbitfold
from its checkout's src/, makes one untimed pass over each case's inputs,
then times 5 passes with time.perf_counter and keeps the best, as µs per
call. A last, untimed pass counts the calls to chamber._norm, through
every module's binding of it, to Face.project_to_span, to
smoothing._radius_at and to SmoothChain.lower_face_distances, as calls
per map call. The script prints each case's median best time over
the repeats and its interquartile range on both sides, the ratio of the
medians, and the counts as "parent/change". Counts repeat exactly from
run to run, so a change in the work a call does shows beside its noisy
times. It only reports: it applies no bound.
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
import json, sys, time
import numpy as np
import orbitfold as of
import orbitfold.chamber as chamber
import orbitfold.smoothing as smoothing

points, seed = int(sys.argv[1]), int(sys.argv[2])
PASSES = 5

def near_walls(rng, normals, dim, count, walls):
    # Gaussian points moved onto `walls` random mirrors, then off them
    out = []
    for _ in range(count):
        p = rng.normal(size=dim) * 10.0 ** rng.uniform(np.log10(0.05), np.log10(5.0))
        rows = normals[rng.choice(len(normals), size=walls, replace=False)]
        p = p - rows.T @ np.linalg.lstsq(rows.T, p, rcond=None)[0]
        off = rng.normal(size=dim)
        out.append(p + (0.05 * rng.uniform() * np.linalg.norm(p) / np.linalg.norm(off)) * off)
    return out

def preset_case(index, name):
    chain = of.build_chain(of.preset_group(name))
    rng = np.random.default_rng([seed, index])
    dim, normals = chain.group.dimension, chain.group.mirror_normals
    third = points // 3
    generic = [rng.normal(size=dim) * 10.0 ** rng.uniform(np.log10(0.05), np.log10(5.0))
               for _ in range(points - 2 * third)]
    inputs = generic + near_walls(rng, normals, dim, third, 1) + near_walls(rng, normals, dim, third, 2)
    return (lambda p: of.apply_H(chain, p)), inputs

def model_case():
    model = of.sym_eig_model()
    chain = of.build_chain(model.weyl)
    rng = np.random.default_rng([seed, 3])     # after the three presets
    inputs = []
    for k in range(points):
        if k % 2 == 0:
            a = rng.normal(size=(3, 3))
            inputs.append(a + a.T)
        else:
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            lam = rng.normal()
            inputs.append(q @ np.diag([lam, lam, rng.normal()]) @ q.T)
    return (lambda m: of.model_H(model, chain, m)), inputs

cases = {f"apply_H {name}": preset_case(k, name) for k, name in enumerate(("a2", "a3", "b3"))}
cases["model_H"] = model_case()

counts = {"_norm": 0, "project_to_span": 0, "_radius_at": 0, "lower_face_distances": 0}
def counting(key, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counted

best, per_call = {}, {}
for name, (call, inputs) in cases.items():
    for p in inputs:
        call(p)
    times = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        for p in inputs:
            call(p)
        times.append(time.perf_counter() - t0)
    best[name] = 1e6 * min(times) / len(inputs)

norm = chamber._norm
for module in [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "orbitfold"]:
    if getattr(module, "_norm", None) is norm:
        module._norm = counting("_norm", norm)
chamber.Face.project_to_span = counting("project_to_span", chamber.Face.project_to_span)
smoothing._radius_at = counting("_radius_at", smoothing._radius_at)
smoothing.SmoothChain.lower_face_distances = counting(
    "lower_face_distances", smoothing.SmoothChain.lower_face_distances)
for name, (call, inputs) in cases.items():
    for key in counts:
        counts[key] = 0
    for p in inputs:
        call(p)
    per_call[name] = {key: n / len(inputs) for key, n in counts.items()}
print(json.dumps({"us": best, "calls": per_call}))
"""


def run_once(checkout: Path, points: int, seed: int) -> dict:
    """One fresh interpreter: each case's best µs per call ("us") and its
    counted calls per map call ("calls"), by case."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(points), str(seed)],
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
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--points", type=int, default=400)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    # absolute, since each subprocess runs inside its checkout
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.repeats):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.points, args.seed))
        print(f"repeat {i + 1}/{args.repeats} done ({order[0]} first)",
              file=sys.stderr, flush=True)

    cases = list(runs["parent"][0]["us"])
    counted = list(runs["parent"][0]["calls"][cases[0]])
    print(f"scalar calls, {args.points} inputs per case, seed {args.seed}: "
          f"{args.repeats} repeats, best of 5 passes, µs per call")
    print(f"{'case':12s} {'parent median':>14s} {'parent IQR':>11s} {'change median':>14s} "
          f"{'change IQR':>11s} {'ratio':>7s}" + "".join(f" {fn:>22s}" for fn in counted))
    for case in cases:
        cells = []
        for side in ("parent", "change"):
            q1, med, q3 = quartiles([r["us"][case] for r in runs[side]])
            cells += [med, q3 - q1]
        ratio = cells[2] / cells[0] if cells[0] else float("nan")
        # counts are deterministic: the first run of each side gives them
        pairs = [f"{runs['parent'][0]['calls'][case][fn]:.2f}/"
                 f"{runs['change'][0]['calls'][case][fn]:.2f}" for fn in counted]
        print(f"{case:12s} {cells[0]:14.2f} {cells[1]:11.2f} {cells[2]:14.2f} "
              f"{cells[3]:11.2f} {ratio:7.3f}" + "".join(f" {pair:>22s}" for pair in pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
