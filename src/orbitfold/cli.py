"""Command-line surface: fold points, emit level-set grids, dump chain
parameters, run derivative probes, and drive the verification suite.

All data emission is deterministic for a fixed config + seed: floats are
written with 17 significant digits, CSV rows end in a bare newline, and JSON
documents have sorted keys.  Exit codes: 0 success, 1 verification failure,
2 configuration or input parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
from typing import Callable

import numpy as np

from .calculus import (_OffsetOrderError, _RankDeficientFitError, _RoundingFloorError,
                       _largest_control_slope, _least_resolved_slope, curve_jump_probe)
from .chamber import classify, fold
from .config import (DEFAULT_PRESET, ConfigError, RunConfig, parse_config,
                     tube_spec_from_config)
from .groups import GroupClosureError, preset_order
from .polar import eigen_crossing_curve, model_H, random_rotation, sym_eig_model, sym_to_matrix
from .smoothing import SmoothChain, apply_H, build_chain
from .verify import _slope_margins, _tube_lines, _wall_probes, run_verification


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _emit_lines(out: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_csv(out: str | None, header: list[str], rows: list[list[str]]) -> None:
    _emit_lines(out, [",".join(header)] + [",".join(r) for r in rows])


def _jsonable(obj):
    """Recursively convert to plain JSON types; non-finite floats become
    strings so the document stays loadable by strict parsers."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _emit_json(out: str | None, doc: dict) -> None:
    _emit_lines(out, [json.dumps(_jsonable(doc), indent=2, sort_keys=True)])


def _read_points(path: str, width: int) -> list[np.ndarray]:
    """One point per row, comma-separated coordinates; empty rows skipped.
    Any malformed row is reported by its 1-based row number."""
    try:
        with open(path) as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read points file {path!r}: {exc}") from exc
    points = []
    for idx, line in enumerate(raw, start=1):
        if not line.strip():
            continue
        try:
            p = np.array([float(tok) for tok in line.split(",")], dtype=float)
        except ValueError as exc:
            raise ConfigError(f"points file row {idx} does not parse: {line!r}") from exc
        if p.size != width:
            raise ConfigError(
                f"points file row {idx}: expected {width} coordinates, got {p.size}")
        if not np.isfinite(p).all():
            raise ConfigError(f"points file row {idx} has a non-finite coordinate: {line!r}")
        points.append(p)
    return points


def _load_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    else:
        cfg = RunConfig(preset=DEFAULT_PRESET)
    overrides = {}
    if args.preset:
        overrides["preset"] = args.preset
        overrides["normals"] = None
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out:
        overrides["out"] = args.out
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _build_chain(cfg: RunConfig) -> SmoothChain:
    """The configured chain; a group or tubes the configuration cannot build
    (a non-finite or zero normal, an infinite group, tube parameters for a
    level the group lacks) is a ConfigError."""
    try:
        group, tubes = tube_spec_from_config(cfg)
        return build_chain(group, tubes=tubes)
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fold(cfg: RunConfig, points_path: str) -> int:
    chain = _build_chain(cfg)       # refuses tubes for a level the group lacks
    group, chamber = chain.group, chain.chamber
    points = _read_points(points_path, group.dimension)
    rows = []
    for p in points:
        res = fold(group, chamber, p)
        desc = classify(group, res.image)
        rows.append([_fmt(v) for v in res.image]
                    + [str(desc.level), str(len(desc.walls_containing)), str(res.steps)])
    header = [f"x{i + 1}" for i in range(group.dimension)]
    header += ["level", "walls", "word_length"]
    _emit_csv(cfg.out, header, rows)
    return 0


def cmd_grid(cfg: RunConfig) -> int:
    chain = _build_chain(cfg)
    group = chain.group
    dim = group.dimension
    if dim > 3:
        raise ConfigError(f"grid emission supports dimensions 1-3, group lives in R^{dim}")
    if cfg.nodes is not None:
        box_min, box_max, nodes = cfg.box_min, cfg.box_max, cfg.nodes
        if len(nodes) != dim:
            raise ConfigError(f"grid fields have dimension {len(nodes)}, group needs {dim}")
    else:
        box_min, box_max, nodes = (-2.0,) * dim, (2.0,) * dim, (5,) * dim
    axes = [np.linspace(lo, hi, n) for lo, hi, n in zip(box_min, box_max, nodes)]
    rows = []
    for coords in itertools.product(*axes):
        p = np.array(coords)
        h = apply_H(chain, p)
        desc = classify(group, p)
        rows.append([_fmt(v) for v in p] + [_fmt(v) for v in h] + [str(desc.level)])
    header = [f"in_{i + 1}" for i in range(dim)]
    header += [f"h_{i + 1}" for i in range(dim)]
    header += ["level"]
    _emit_csv(cfg.out, header, rows)
    return 0


def cmd_build_map(cfg: RunConfig) -> int:
    chain = _build_chain(cfg)
    group = chain.group
    lines, checked = _tube_lines(chain, 0)
    failed = [line.detail for line in lines if not line.passed]
    if failed:
        validation = {"ok": False, "error": failed[0]}
    else:
        theta, _, margins = _slope_margins(chain)
        validation = {"ok": True, "theta_min": theta, "tube_points_checked": checked,
                      "slope_margins": {str(k): v for k, v in margins.items()}}
    doc = {
        "group": {
            "preset": cfg.preset,
            "dimension": group.dimension,
            "essential_rank": group.essential_rank,
            "order": len(group.elements),
            "mirrors": len(group.mirrors),
        },
        "tubes": {
            "c0": chain.tubes.c0,
            "softmin_exponent": chain.tubes.softmin_exponent,
            "b": {str(k): v for k, v in sorted(chain.tubes.b.items())},
            "c": {str(k): v for k, v in sorted(chain.tubes.c.items())},
        },
        "validation": validation,
        "seed": cfg.seed,
    }
    _emit_json(cfg.out, doc)
    return 1 if failed else 0


def cmd_probe(cfg: RunConfig) -> int:
    chain = _build_chain(cfg)
    reports = _wall_probes(chain, cfg.count, cfg.seed,
                           offsets=cfg.offsets, orders=cfg.orders)
    probes = [{k: v for k, v in dataclasses.asdict(r).items() if k != "orders"} for r in reports]
    summary = {
        "min_slope": {o: _least_resolved_slope(reports, o) for o in cfg.orders},
        "max_control_slope": {o: _largest_control_slope(reports, o) for o in cfg.orders},
    }
    doc = {"preset": cfg.preset, "seed": cfg.seed, "count": cfg.count,
           "orders": list(cfg.orders), "probes": probes, "summary": summary}
    _emit_json(cfg.out, doc)
    return 0


def cmd_demo_sym3(cfg: RunConfig, matrices_path: str | None) -> int:
    model = sym_eig_model()
    chain = build_chain(model.weyl)
    rng = np.random.default_rng(cfg.seed)
    if matrices_path is not None:
        coords = _read_points(matrices_path, 6)
    else:
        coords = [rng.normal(size=6) for _ in range(cfg.count)]
    # raw eigenvalue kink vs the smoothed map along one curve through a
    # repeated-eigenvalue matrix, probed before any row is written (the
    # curve has its own seeded rng)
    curve = eigen_crossing_curve(seed=cfg.seed)
    raw = curve_jump_probe(lambda s: model.section_map(curve(s)), cfg.offsets)
    smooth = curve_jump_probe(lambda s: model_H(model, chain, curve(s)), cfg.offsets)
    rows = []
    for q in coords:
        h = model_H(model, chain, q)
        rows.append([_fmt(v) for v in q] + [_fmt(v) for v in h])
    header = ["a11", "a22", "a33", "a12", "a13", "a23", "h1", "h2", "h3"]
    _emit_csv(cfg.out, header, rows)

    # contrast summary: invariance residual, and the two curve probes
    inv_worst = 0.0
    for q in coords[: min(len(coords), 20)]:
        a = sym_to_matrix(q)
        base = model_H(model, chain, q)
        for _ in range(5):
            rot = random_rotation(rng)
            moved = model_H(model, chain, rot @ a @ rot.T)
            inv_worst = max(inv_worst, float(np.max(np.abs(moved - base))))
    summary = {
        "matrices": len(coords),
        "invariance_max_residual": inv_worst,
        "crossing_raw_jump": raw.jumps[1][0],
        "crossing_raw_slope": raw.slopes[1],
        "crossing_smoothed_slope": smooth.slopes[1],
        "seed": cfg.seed,
    }
    if cfg.out is not None:
        _emit_json(None, summary)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    chain = _build_chain(cfg)
    expected = preset_order(cfg.preset) if cfg.preset else None
    results = run_verification(chain, count=cfg.count, seed=cfg.seed,
                               expected_order=expected)
    for r in results:
        sys.stdout.write(r.line() + "\n")
    passed = all(r.passed for r in results)
    sys.stdout.write(f"{sum(r.passed for r in results)}/{len(results)} checks passed\n")
    if cfg.out is not None:
        doc = {
            "preset": cfg.preset, "seed": cfg.seed, "count": cfg.count,
            "passed": passed,
            "checks": [{"name": r.name, "value": r.value, "threshold": r.threshold,
                        "passed": r.passed, "detail": r.detail} for r in results],
        }
        _emit_json(cfg.out, doc)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser,
                run: Callable[[RunConfig, argparse.Namespace], int]) -> None:
    sub.set_defaults(run=run)
    sub.add_argument("--config", help="path to a run configuration file")
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--seed", type=int, help="override the sampling seed")
    sub.add_argument("--preset", help="override the group preset (e.g. b2, a3, i2-5)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitfold",
        description="Fold points over a finite reflection group and emit or "
                    "verify the smooth orbit-collapsing map built on it.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fold = sub.add_parser("fold", help="fold a CSV of points into the chamber")
    p_fold.add_argument("points", help="CSV file, one comma-separated point per row")
    _add_common(p_fold, lambda cfg, args: cmd_fold(cfg, args.points))

    p_map = sub.add_parser("build-map", help="dump chain parameters + tube validation")
    _add_common(p_map, lambda cfg, args: cmd_build_map(cfg))

    p_grid = sub.add_parser("grid", help="evaluate the smooth map over a lattice")
    _add_common(p_grid, lambda cfg, args: cmd_grid(cfg))

    p_probe = sub.add_parser("probe", help="derivative-jump probes at wall points")
    _add_common(p_probe, lambda cfg, args: cmd_probe(cfg))

    p_demo = sub.add_parser("demo-sym3",
                            help="spectral demo on symmetric 3x3 matrices")
    p_demo.add_argument("matrices", nargs="?",
                        help="optional CSV of a11,a22,a33,a12,a13,a23 rows")
    _add_common(p_demo, lambda cfg, args: cmd_demo_sym3(cfg, args.matrices))

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    _add_common(p_verify, lambda cfg, args: cmd_verify(cfg))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.run(cfg, args)
    except _RoundingFloorError:
        offsets = ",".join(f"{d:g}" for d in cfg.offsets)
        sys.stderr.write(f"error: probe offsets {offsets} reach the rounding floor "
                         "at the probe points; use larger offsets\n")
        return 2
    except _OffsetOrderError as exc:
        first, second = cfg.offsets[exc.index:exc.index + 2]
        sys.stderr.write(f"error: probe offsets {first!r} and {second!r} collide at the "
                         "probe points: rescaled to the tube radius there, they do not "
                         "strictly decrease; use offsets further apart\n")
        return 2
    except (ConfigError, _RankDeficientFitError, GroupClosureError) as exc:
        # GroupClosureError: build-map's order reads the elements past the cap
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
