"""Snapshot the deterministic command-line output into one directory.

    python3 tools/cli_snapshot.py OUTDIR [--src SRC]

Runs `python -m orbitfold.cli` from SRC (default: this checkout's src/) for
every case below and writes, per case NAME, NAME.stdout, NAME.stderr,
NAME.exit and, for commands given --out, NAME.out. The cases are `verify
--out`, `probe --out`, `build-map`, `grid` and `fold` for i2-3, i2-4, a2,
b2, a3 and b3 at seeds 0 and 1, `demo-sym3` at both seeds with and without
--out, `verify --preset A3` (a preset spelled in capitals), and sixteen
edge configurations: a rank-1 group under `verify` and `probe`, two groups
of rank 3 given by `[group] normals` under `verify` and `build-map` (the
axis group A1^3, and an order-6 group with a fixed line whose generators
are not simple), probe offsets at the rounding floor, a3 probes of orders
1, 2 and 3, which put the directional stencils of the jump path under
test, and `demo-sym3` with and without --out under a probe offset
schedule other than the default one, which its curve probes take, under a
schedule at the rounding floor, which they refuse, under a
configuration that sets the offsets alone and names no group, and b3
under `verify`, `probe` and `grid` with tube caps of 0.08 at levels 1 and
2, small enough that the stacked cap blend of the tube radius runs (no
default case reaches it), and b2 under `verify` and `fold` (on the b2
`fold` inputs) with a slope for level 5, a level b2 lacks, which is
refused with exit 2, four configurations refused with exit 2 (a NaN
normal under `verify` and `grid`, a zero normal and two generators whose
closure is infinite under `verify`, and a NaN `[grid] box_min` under
`grid`), b3 under `verify` with c0 = 20, where the margin sampler of the
Jacobian check finds no point, and the right-angle group A1xA1 (normals
1,0 and 0,1) under `verify` and `build-map` with a slope of 0.3 over its
bound of 1/4. Last, `fold` runs on H3, B4 and F4, given by `[group]
normals`, whose folds take at most 15, 16 and 24 steps, one per mirror,
on random, log-scale (|p| from 1e-300 to 1e300) and on-mirror points of
their own. The `fold` inputs are generated here from numpy alone and
written to OUTDIR/inputs, so they do not depend on the code under test.
Beside random, log-scale and on-mirror points they hold, on a2, b2, a3 and b3, points on two mirrors at once (the strata of
level rank - 2), and on every preset points moved off one mirror along
its normal by 0.5 and 2 times classify's threshold 1e-9*(1 + |p_eff|),
so the `level` and `walls` columns record classify's decision on every
level and on both sides of its threshold.

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
    "missing-level": (("verify", "fold"), "[group]\npreset = b2\n\n[tubes]\nb = 5:0.9\n"),
    "nan-normal": (("verify", "grid"), "[group]\nnormals = nan,1; 1,0\n"),
    "zero-normal": (("verify",), "[group]\nnormals = 1,0; 0,0\n"),
    "infinite-group": (("verify",), "[group]\nnormals = 1,0; 0.6,0.8\n"),
    "nan-grid": (("grid",), "[group]\npreset = b2\n\n[grid]\nbox_min = nan,0\n"
                            "box_max = 1,1\nnodes = 3,3\n"),
    "wide-c0": (("verify",), "[group]\npreset = b3\n\n[tubes]\nc0 = 20\n"),
    "right-angle-slope": (("verify", "build-map"),
                          "[group]\nnormals = 1,0; 0,1\n\n[tubes]\nb = 1:0.3\n"),
}

_Y = -0.5 / math.sin(math.pi / 5.0)
# label -> the simple normals of a group beyond the presets, run under `fold`
NORMAL_GROUPS = {
    "H3": [(1.0, 0.0, 0.0), (-math.cos(math.pi / 5.0), math.sin(math.pi / 5.0), 0.0),
           (0.0, _Y, math.sqrt(1.0 - _Y * _Y))],
    "B4": [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1)],
    "F4": [(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (0.5, -0.5, -0.5, -0.5)],
}


def _roots(normals: list[tuple[float, ...]]) -> np.ndarray:
    """One unit normal per mirror of the group the normals generate: the
    unit normals closed under reflection in one another, up to sign."""
    simple = [np.array(n, dtype=float) / np.linalg.norm(n) for n in normals]
    roots = list(simple)
    for r in roots:          # the list grows while it is walked
        for s in simple:
            q = r - 2.0 * (r @ s) * s
            if not any(min(np.abs(q - t).max(), np.abs(q + t).max()) < 1e-9 for t in roots):
                roots.append(q)
    return np.array(roots)


def normal_group_points(normals: list[tuple[float, ...]]) -> list[np.ndarray]:
    """Random points, three projected onto each mirror, log-scale points
    (|p| from 1e-300 to 1e300) and the origin."""
    rng = np.random.default_rng(7)
    dim = len(normals[0])
    pts = list(rng.normal(scale=2.0, size=(40, dim)))
    for m in _roots(normals):
        pts += [p - (p @ m) * m for p in rng.normal(scale=2.0, size=(3, dim))]
    for mag in 10.0 ** rng.uniform(-300.0, 300.0, size=30):
        u = rng.normal(size=dim)
        pts.append(mag * u / np.linalg.norm(u))
    return pts + [np.zeros(dim)]


def _write_points(path: Path, points: list[np.ndarray]) -> None:
    path.write_text("".join(",".join("%.17g" % x for x in p) + "\n" for p in points))


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


def _mirror_normals(preset: str) -> np.ndarray:
    """The unit normals of the preset's mirrors, as rows."""
    dim = DIMENSIONS[preset]
    if preset.startswith("i2"):
        m = int(preset[3:])
        return np.array([[-math.sin(k * math.pi / m), math.cos(k * math.pi / m)]
                         for k in range(m)])
    eye = np.eye(dim)
    out = [eye[i] - eye[j] for i in range(dim) for j in range(i + 1, dim)]
    if preset.startswith("b"):
        out += [eye[i] + eye[j] for i in range(dim) for j in range(i + 1, dim)]
        out += list(eye)
    return np.array(out) / np.linalg.norm(out, axis=1)[:, None]


def _essential_norm(preset: str, p: np.ndarray) -> float:
    """|p_eff|: p less its mean on a2 and a3, whose diagonal is fixed."""
    return float(np.linalg.norm(p - p.mean() if preset.startswith("a") else p))


def _near_mirrors(preset: str, rng: np.random.Generator) -> list[np.ndarray]:
    """Points on two mirrors at once (projected onto both), except on the
    dihedral presets, where only the origin is; then points projected onto
    one mirror and moved along its normal by 0.5 and 2 times classify's
    threshold 1e-9*(1 + |p_eff|), two per mirror."""
    normals = _mirror_normals(preset)
    out = []
    if not preset.startswith("i2"):
        for i in range(len(normals)):
            for j in range(i + 1, len(normals)):
                pair = normals[[i, j]]
                p = rng.normal(scale=2.0, size=pair.shape[1])
                out.append(p - pair.T @ np.linalg.solve(pair @ pair.T, pair @ p))
    for n in normals:
        for p in rng.normal(scale=2.0, size=(2, len(n))):
            q = p - (p @ n) * n
            threshold = 1e-9 * (1.0 + _essential_norm(preset, q))
            out += [q + factor * threshold * n for factor in (0.5, 2.0)]
    return out


def fold_points(preset: str) -> list[np.ndarray]:
    """Random, on-mirror and log-scale points (|p| from 1e-300 to 1e150),
    the origin, and the points of _near_mirrors."""
    rng = np.random.default_rng(7)
    dim = DIMENSIONS[preset]
    pts = list(rng.normal(scale=2.0, size=(40, dim)))
    pts += _on_mirrors(preset, rng)
    for mag in 10.0 ** rng.uniform(-300.0, 150.0, size=30):
        u = rng.normal(size=dim)
        pts.append(mag * u / np.linalg.norm(u))
    pts.append(np.zeros(dim))
    return pts + _near_mirrors(preset, rng)


def cases(outdir: Path) -> list[tuple[str, list[str]]]:
    inputs = outdir / "inputs"
    out = []
    for preset in PRESETS:
        points = inputs / f"{preset}.csv"
        _write_points(points, fold_points(preset))
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
            if command == "fold":       # the one fold edge configuration is on b2
                args.insert(1, str(inputs / "b2.csv"))
            out.append((name, [*args, "--out", f"{name}.out"]))
            if command == "demo-sym3":
                out.append((f"{name}-stdout", args))
    for label, normals in NORMAL_GROUPS.items():
        config, points = inputs / f"{label}.ini", inputs / f"{label}.csv"
        config.write_text("[group]\nnormals = " + "; ".join(
            ",".join("%.17g" % x for x in row) for row in normals) + "\n")
        _write_points(points, normal_group_points(normals))
        out.append((f"{label}-fold", ["fold", str(points), "--config", str(config),
                                      "--out", f"{label}-fold.out"]))
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
