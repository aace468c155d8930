"""Run configuration: flat INI text in, validated dataclass out.

The format is deliberately plain — `key = value` under section headers,
numbers in decimal, arrays comma-separated — so configs stay diffable and
parseable from any language. Per-level maps use `level:value` pairs.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math

import numpy as np

from .calculus import DEFAULT_OFFSETS
from .groups import ReflectionGroup, _preset_key, generate_group, preset_group

DEFAULT_PRESET = "b2"          # the group of a run that names none


class ConfigError(ValueError):
    """Configuration or input parsing problem (CLI exit code 2)."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, with the seed recorded for outputs."""

    preset: str | None = None
    normals: tuple[tuple[float, ...], ...] | None = None
    c0: float = 1.0
    k: int = 4
    b: tuple[tuple[int, float], ...] = ()
    c: tuple[tuple[int, float], ...] = ()
    offsets: tuple[float, ...] = DEFAULT_OFFSETS
    orders: tuple[int, ...] = (1, 2)
    count: int = 100
    seed: int = 0
    box_min: tuple[float, ...] | None = None
    box_max: tuple[float, ...] | None = None
    nodes: tuple[int, ...] | None = None
    out: str | None = None

    def __post_init__(self) -> None:
        if (self.preset is None) == (self.normals is None):
            raise ConfigError("exactly one of preset / normals must be set")
        if self.preset is not None:
            # the names preset_group reads, as it reads them
            try:
                _preset_key(self.preset, None)
            except ValueError as exc:
                raise ConfigError(f"unknown preset {self.preset!r}") from exc
        if self.normals is not None:
            widths = {len(row) for row in self.normals}
            if not self.normals or len(widths) != 1 or 0 in widths:
                raise ConfigError("normals must be non-empty rows of equal width")
        if not 0 < self.c0 < math.inf:
            raise ConfigError("c0 must be positive and finite")
        if self.k < 1:
            raise ConfigError("k must be a positive integer")
        for label, pairs in (("b", self.b), ("c", self.c)):
            for level, value in pairs:
                if level < 1 or not 0 < value < math.inf:
                    raise ConfigError(
                        f"{label} entries need level >= 1 and a finite positive value")
        if not self.offsets or not all(0 < d < math.inf for d in self.offsets):
            raise ConfigError("offsets must be positive and finite")
        if any(y >= x for x, y in zip(self.offsets, self.offsets[1:])):
            raise ConfigError("offsets must be strictly decreasing")
        if not self.orders or any(o not in (1, 2, 3) for o in self.orders):
            raise ConfigError("orders must be drawn from {1, 2, 3}")
        if self.count < 1:
            raise ConfigError("count must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        grid_bits = (self.box_min, self.box_max, self.nodes)
        if any(v is not None for v in grid_bits) and any(v is None for v in grid_bits):
            raise ConfigError("grid needs box_min, box_max and nodes together")
        if self.nodes is not None:
            if len({len(self.box_min), len(self.box_max), len(self.nodes)}) != 1:
                raise ConfigError("grid fields must share one dimension")
            if any(n < 0 for n in self.nodes):
                raise ConfigError("node counts must be non-negative")
            widths = tuple(hi - lo for lo, hi in zip(self.box_min, self.box_max))
            if not all(map(math.isfinite, self.box_min + self.box_max + widths)):
                raise ConfigError("box_min, box_max and their difference must be finite")
            for lo, hi in zip(self.box_min, self.box_max):
                if hi < lo:
                    raise ConfigError("box_max must dominate box_min")

    def build_group(self) -> ReflectionGroup:
        if self.preset is not None:
            return preset_group(self.preset)
        return generate_group([np.asarray(row, dtype=float) for row in self.normals])


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _level_map(text: str) -> tuple[tuple[int, float], ...]:
    pairs = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            level, value = item.split(":")
            pairs.append((int(level), float(value)))
        except ValueError as exc:
            raise ConfigError(f"expected level:value pairs, got {text!r}") from exc
    return tuple(pairs)


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config does not parse: {exc}") from exc

    kwargs = {}
    if parser.has_option("group", "preset"):
        kwargs["preset"] = parser.get("group", "preset").strip()
    if parser.has_option("group", "normals"):
        rows = [r for r in parser.get("group", "normals").split(";") if r.strip()]
        kwargs["normals"] = tuple(_floats(r) for r in rows)
    if not kwargs:
        kwargs["preset"] = DEFAULT_PRESET

    section_fields = {
        "tubes": (("c0", float), ("k", int), ("b", _level_map), ("c", _level_map)),
        "probe": (("offsets", _floats), ("orders", _ints)),
        "sampling": (("count", int), ("seed", int)),
        "grid": (("box_min", _floats), ("box_max", _floats), ("nodes", _ints)),
        "output": (("out", str),),
    }
    for section, fields in section_fields.items():
        for name, conv in fields:
            if parser.has_option(section, name):
                raw = parser.get(section, name).strip()
                try:
                    kwargs[name] = conv(raw)
                except ConfigError:
                    raise
                except ValueError as exc:
                    raise ConfigError(f"bad value for {section}.{name}: {raw!r}") from exc
    return RunConfig(**kwargs)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical INI text; parse_config(serialize_config(c)) == c."""
    buf = io.StringIO()
    buf.write("[group]\n")
    if cfg.preset is not None:
        buf.write(f"preset = {cfg.preset}\n")
    else:
        rows = "; ".join(",".join(f"{x:.17g}" for x in row) for row in cfg.normals)
        buf.write(f"normals = {rows}\n")
    buf.write("\n[tubes]\n")
    buf.write(f"c0 = {cfg.c0:.17g}\nk = {cfg.k}\n")
    if cfg.b:
        buf.write("b = " + ",".join(f"{lvl}:{val:.17g}" for lvl, val in cfg.b) + "\n")
    if cfg.c:
        buf.write("c = " + ",".join(f"{lvl}:{val:.17g}" for lvl, val in cfg.c) + "\n")
    buf.write("\n[probe]\n")
    buf.write("offsets = " + ",".join(f"{d:.17g}" for d in cfg.offsets) + "\n")
    buf.write("orders = " + ",".join(str(o) for o in cfg.orders) + "\n")
    buf.write("\n[sampling]\n")
    buf.write(f"count = {cfg.count}\nseed = {cfg.seed}\n")
    if cfg.nodes is not None:
        buf.write("\n[grid]\n")
        buf.write("box_min = " + ",".join(f"{x:.17g}" for x in cfg.box_min) + "\n")
        buf.write("box_max = " + ",".join(f"{x:.17g}" for x in cfg.box_max) + "\n")
        buf.write("nodes = " + ",".join(str(n) for n in cfg.nodes) + "\n")
    if cfg.out is not None:
        buf.write("\n[output]\n")
        buf.write(f"out = {cfg.out}\n")
    return buf.getvalue()


def tube_spec_from_config(cfg: RunConfig):
    """TubeSpec for the configured group, falling back to angle-derived
    slope defaults for levels the config leaves out."""
    from .smoothing import TubeSpec, default_tubes

    group = cfg.build_group()
    base = default_tubes(group)
    b = dict(base.b)
    c = dict(base.c)
    b.update(dict(cfg.b))
    c.update(dict(cfg.c))
    return group, TubeSpec(b=b, c=c, c0=cfg.c0, softmin_exponent=cfg.k)
