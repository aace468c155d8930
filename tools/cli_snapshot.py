"""Snapshot the deterministic command-line output into one directory.

    python3 tools/cli_snapshot.py OUTDIR [--src SRC]

Runs `python -m orbitfold.cli` from SRC (default: this checkout's src/) for
every case below and writes, per case NAME, NAME.stdout, NAME.stderr,
NAME.exit and, for commands given --out, NAME.out. The cases are `verify
--out`, `probe --out`, `build-map`, `grid` and `fold` for i2-3, i2-4, a2,
b2, a3 and b3 at seeds 0 and 1, `demo-sym3` at both seeds with and without
--out, `verify --preset A3` (a preset spelled in capitals), and ten edge
configurations: a rank-1 group under `verify` and `probe`, two groups of
rank 3 given by `[group] normals` under `verify` and `build-map` (the
axis group A1^3, and an order-6 group with a fixed line whose generators
are not simple), probe offsets at the rounding floor, a3 probes of orders
1, 2 and 3, which put the directional stencils of the jump path under
test, and `demo-sym3` with and without --out under a probe offset
schedule other than the default one, which its curve probes take, under a
schedule at the rounding floor, which they refuse, under a
configuration that sets the offsets alone and names no group, and b3
under `verify`, `probe` and `grid` with tube caps of 0.08 at levels 1 and
2, small enough that the stacked cap blend of the tube radius runs (no
default case reaches it). The `fold`
inputs are generated here
from numpy alone and written to OUTDIR/inputs, so they do not depend on
the code under test.

Two checkouts behave the same when `diff -r` of their snapshots is empty:

    python3 tools/cli_snapshot.py /tmp/snap-a --src ../parent/src
    python3 tools/cli_snapshot.py /tmp/snap-b
    diff -r /tmp/snap-a /tmp/snap-b
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("i2-3", "i2-4", "a2", "b2", "a3", "b3")
SEEDS = (0, 1)
DIMENSIONS = {"i2-3": 2, "i2-4": 2, "a2": 3, "b2": 2, "a3": 4, "b3": 3}
# label -> (the commands run under the configuration, its text); each
# command runs with --out, and demo-sym3, whose stdout then differs, also
# without. demo-sym3 builds its own group; a configuration that names none
# falls back to the default one.
EDGE_CONFIGS = {
    "rank1": (("verify", "probe"), "[group]\nnormals = 1.0\n"),
    "normals-axes": (("verify", "build-map"), "[group]\nnormals = 1,0,0; 0,1,0; 0,0,1\n"),
    "normals-skew": (("verify", "build-map"), "[group]\nnormals = 1,1,0; 0,1,-1; 1,0,1\n"),
    "offset-floor": (("probe",),
                     "[group]\npreset = b2\n\n[probe]\noffsets = 1e-20,1e-21\n"),
    "orders-123": (("probe",), "[group]\npreset = a3\n\n[probe]\norders = 1,2,3\n"),
    "sym3-offsets": (("demo-sym3",), "[group]\npreset = a2\n\n[probe]\n"
                                     "offsets = 0.3,0.1,0.03,0.01,0.001\n"),
    "sym3-offset-floor": (("demo-sym3",), "[group]\npreset = a2\n\n[probe]\n"
                                          "offsets = 1e-15,1e-16\n"),
    "sym3-offsets-only": (("demo-sym3",), "[probe]\noffsets = 0.3,0.1,0.03,0.01,0.001\n"),
    "small-caps": (("verify", "probe", "grid"),
                   "[group]\npreset = b3\n\n[tubes]\nc = 1:0.08,2:0.08\n"),
}


def _on_mirrors(preset: str, rng: np.random.Generator) -> list[np.ndarray]:
    """Points exactly on each mirror of the preset, three per mirror."""
    dim = DIMENSIONS[preset]
    out = []
    if preset.startswith("i2"):
        m = int(preset[3:])
        for k in range(m):
            line = np.array([math.cos(k * math.pi / m), math.sin(k * math.pi / m)])
            out += [float(r) * line for r in rng.uniform(-3.0, 3.0, size=3)]
        return out
    for i in range(dim):
        for j in range(i + 1, dim):
            for sign in ((1.0,) if preset.startswith("a") else (1.0, -1.0)):
                for p in rng.normal(scale=2.0, size=(3, dim)):
                    p[j] = sign * p[i]
                    out.append(p)
        if preset.startswith("b"):
            for p in rng.normal(scale=2.0, size=(3, dim)):
                p[i] = 0.0
                out.append(p)
    return out


def fold_points(preset: str) -> list[np.ndarray]:
    """Random, on-mirror and log-scale points (|p| from 1e-300 to 1e150),
    and the origin."""
    rng = np.random.default_rng(7)
    dim = DIMENSIONS[preset]
    pts = list(rng.normal(scale=2.0, size=(40, dim)))
    pts += _on_mirrors(preset, rng)
    for mag in 10.0 ** rng.uniform(-300.0, 150.0, size=30):
        u = rng.normal(size=dim)
        pts.append(mag * u / np.linalg.norm(u))
    pts.append(np.zeros(dim))
    return pts


def cases(outdir: Path) -> list[tuple[str, list[str]]]:
    inputs = outdir / "inputs"
    out = []
    for preset in PRESETS:
        points = inputs / f"{preset}.csv"
        points.write_text("".join(
            ",".join("%.17g" % x for x in p) + "\n" for p in fold_points(preset)))
        for seed in SEEDS:
            base = ["--preset", preset, "--seed", str(seed)]
            name = f"{preset}-s{seed}"
            out += [
                (f"{name}-verify", ["verify", *base, "--out", f"{name}-verify.out"]),
                (f"{name}-probe", ["probe", *base, "--out", f"{name}-probe.out"]),
                (f"{name}-build-map", ["build-map", *base]),
                (f"{name}-grid", ["grid", *base]),
                (f"{name}-fold", ["fold", str(points), *base]),
            ]
    out.append(("A3-verify", ["verify", "--preset", "A3", "--out", "A3-verify.out"]))
    for seed in SEEDS:
        out += [
            (f"sym3-s{seed}-demo", ["demo-sym3", "--seed", str(seed)]),
            (f"sym3-s{seed}-demo-out",
             ["demo-sym3", "--seed", str(seed), "--out", f"sym3-s{seed}-demo-out.out"]),
        ]
    for label, (commands, text) in EDGE_CONFIGS.items():
        config = inputs / f"{label}.ini"
        config.write_text(text)
        for command in commands:
            name = f"{label}-{command}"
            args = [command, "--config", str(config)]
            out.append((name, [*args, "--out", f"{name}.out"]))
            if command == "demo-sym3":
                out.append((f"{name}-stdout", args))
    return out


def run_case(src: Path, outdir: Path, name: str, args: list[str]) -> None:
    args = [str(outdir / a) if a.endswith(".out") else a for a in args]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "orbitfold.cli", *args],
                          env=env, capture_output=True, text=True, cwd=outdir)
    (outdir / f"{name}.stdout").write_text(proc.stdout)
    (outdir / f"{name}.stderr").write_text(proc.stderr)
    (outdir / f"{name}.exit").write_text(f"{proc.returncode}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the orbitfold package")
    args = parser.parse_args(argv)
    outdir = args.outdir.resolve()
    (outdir / "inputs").mkdir(parents=True, exist_ok=True)
    src = args.src.resolve()
    todo = cases(outdir)
    # two interpreters at a time: each case is CPU-bound and holds ~80 MB
    with ThreadPoolExecutor(max_workers=2) as pool:
        for fut in [pool.submit(run_case, src, outdir, n, a) for n, a in todo]:
            fut.result()
    print(f"{len(todo)} cases written to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
