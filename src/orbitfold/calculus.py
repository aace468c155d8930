"""Finite-difference certification of the smoothness claims.

Nothing here differentiates symbolically: maps are probed with central
stencils, mismatches across a wall are fitted on a log-log scale, and the
raw fold is run through the same probes as a negative control. Offsets in
the nominal schedule are fractions of a reference tube radius (0.1), so a
nominal 1e-2 probes at a tenth of the local radius wherever the probe sits.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .chamber import _fold_image, classify
from .smoothing import SmoothChain, apply_partial, eval_l

DEFAULT_OFFSETS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
REFERENCE_RADIUS = 0.1
JUMP_FLOOR = 1e-16
RESOLUTION_FLOOR = 1e-12       # below this a jump is zero as far as FD can tell
DECAY_SLOPE = 0.8              # least fitted jump slope that counts as decay
STEP_FRACTION = 0.125          # FD step as a fraction of the probe offset

MapFn = Callable[[np.ndarray], np.ndarray]


_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}


def _central_difference(g: Callable[[float], object], order: int,
                        step: float) -> np.ndarray:
    """Derivative of the given order of g at 0 by the central stencil."""
    acc = None
    for shift, weight in _STENCILS[order]:
        term = weight * np.asarray(g(shift * step), dtype=float)
        acc = term if acc is None else acc + term
    return acc / step ** order


def fd_jacobian(fn: MapFn, p: np.ndarray, step: float) -> np.ndarray:
    """Central-difference Jacobian, one column per input coordinate."""
    if step <= 0:
        raise ValueError("step must be positive")
    p = np.asarray(p, dtype=float)
    return np.stack([_central_difference(lambda s: fn(p + s * e), 1, step)
                     for e in np.eye(p.size)], axis=-1)


def fd_directional(fn: MapFn, p: np.ndarray, direction: np.ndarray,
                   order: int, step: float) -> np.ndarray:
    """Directional derivative of the given order by a central stencil.

    Exact (up to rounding) on polynomials one degree past the order, since
    the stencils are symmetric.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2, or 3")
    if step <= 0:
        raise ValueError("step must be positive")
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    p = np.asarray(p, dtype=float)
    return _central_difference(lambda s: fn(p + s * direction), order, step)


def fd_hessian(fn: MapFn, p: np.ndarray, step: float) -> np.ndarray:
    """Full second-derivative tensor (m, n, n) by central differences.

    Exact on quadratic maps. This is the object to compare across a
    mirror: pure even-order slices along the normal cancel by reflection
    symmetry, so a normal-only second difference would read zero even
    for maps whose second derivative genuinely jumps.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    p = np.asarray(p, dtype=float)
    n = p.size
    f0 = np.asarray(fn(p), dtype=float)
    tensor = np.zeros((f0.size, n, n))
    offs = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        offs.append(e)
        plus = np.asarray(fn(p + e), dtype=float)
        minus = np.asarray(fn(p - e), dtype=float)
        tensor[:, j, j] = (plus - 2.0 * f0 + minus) / step ** 2
    for j in range(n):
        for k in range(j + 1, n):
            ej, ek = offs[j], offs[k]
            mixed = (
                np.asarray(fn(p + ej + ek), dtype=float)
                - np.asarray(fn(p + ej - ek), dtype=float)
                - np.asarray(fn(p - ej + ek), dtype=float)
                + np.asarray(fn(p - ej - ek), dtype=float)
            ) / (4.0 * step ** 2)
            tensor[:, j, k] = mixed
            tensor[:, k, j] = mixed
    return tensor


def _loglog_slope(offsets: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares decay exponent of ``values`` against ``offsets``.

    The fit stops at the first minimum of the sequence: the finite-difference
    error of an order-k stencil grows like eps/step**k as the step shrinks, so
    once the measured mismatch turns back upward the remaining entries track
    rounding noise rather than the quantity under study.  A sequence that
    never decreases keeps every point, which leaves flat (non-decaying)
    controls with their honest near-zero slope.
    """
    v = np.maximum(np.asarray(values, dtype=float), JUMP_FLOOR)
    stop = int(np.argmin(v))
    keep = slice(None) if stop == 0 else slice(0, stop + 1)
    x = np.log(np.asarray(offsets, dtype=float)[keep])
    y = np.log(v[keep])
    return float(np.polyfit(x, y, 1)[0])


def _fit_slopes(offsets: Sequence[float],
                jumps: dict[int, tuple[float, ...]]) -> dict[int, float]:
    """Per-order log-log slopes of jumps against offsets; each must be finite."""
    slopes = {o: _loglog_slope(offsets, js) for o, js in jumps.items()}
    for order, slope in slopes.items():
        if not math.isfinite(slope):
            raise ValueError(f"slope for order {order} is not finite")
    return slopes


class _RoundingFloorError(ValueError):
    """A probe offset at or below the rounding floor of its probe point."""


@dataclasses.dataclass(frozen=True, eq=False)
class ProbeReport:
    """Derivative mismatches across a stratum at shrinking offsets.

    slopes and control_slopes are the log-log fits of jumps and
    control_jumps against offsets, derived at construction.
    """

    point: np.ndarray
    direction: np.ndarray
    offsets: tuple[float, ...]
    orders: tuple[int, ...]
    jumps: dict[int, tuple[float, ...]]
    control_jumps: dict[int, tuple[float, ...]] | None = None
    slopes: dict[int, float] = dataclasses.field(init=False)
    control_slopes: dict[int, float] | None = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        offsets = self.offsets
        if any(b >= a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("offsets must be strictly decreasing")
        eps_scale = 10.0 * np.finfo(float).eps * (1.0 + float(np.linalg.norm(self.point)))
        if min(offsets) <= eps_scale:
            raise _RoundingFloorError("offsets reach the rounding floor")
        object.__setattr__(self, "slopes", _fit_slopes(offsets, self.jumps))
        object.__setattr__(self, "control_slopes", None if self.control_jumps is None
                           else _fit_slopes(offsets, self.control_jumps))

    def resolved(self, order: int) -> bool:
        """Whether the mismatch ever rose above what FD can distinguish
        from zero. Unresolved jumps happen for symmetry reasons (e.g. a
        group containing -I makes even-order tensors at antipodal points
        identical), not for numerical ones."""
        return max(self.jumps[order]) > RESOLUTION_FLOOR


def _least_resolved_slope(reports: Sequence[ProbeReport], order: int) -> float:
    """Least fitted slope of the given order over the probes that resolve
    it, inf when none does (no measurable mismatch is stronger than decay).
    Decay holds when this is at least DECAY_SLOPE."""
    return min((r.slopes[order] for r in reports if r.resolved(order)),
               default=math.inf)


def _two_sided_jumps(fn: MapFn, x: np.ndarray, v: np.ndarray,
                     offsets: Sequence[float], orders: Sequence[int]) -> dict[int, tuple[float, ...]]:
    # Order 1 compares Jacobians, order 2 full second-derivative tensors
    # (see fd_hessian for why), order 3 the normal third derivative,
    # which survives the symmetry because it is odd.
    jumps: dict[int, list[float]] = {o: [] for o in orders}
    for delta in offsets:
        step = STEP_FRACTION * delta
        plus, minus = x + delta * v, x - delta * v
        for order in orders:
            if order == 1:
                a = fd_jacobian(fn, plus, step)
                b = fd_jacobian(fn, minus, step)
            elif order == 2:
                a = fd_hessian(fn, plus, step)
                b = fd_hessian(fn, minus, step)
            else:
                a = fd_directional(fn, plus, v, order, step)
                b = fd_directional(fn, minus, v, order, step)
            jumps[order].append(max(float(np.linalg.norm(a - b)), JUMP_FLOOR))
    return {o: tuple(js) for o, js in jumps.items()}


def _fold_map(chain: SmoothChain) -> MapFn:
    normals = chain.chamber.simple_normals
    cap = chain.group.order
    return lambda p: _fold_image(normals, p, cap)[0]


def wall_jump_probe(
    chain: SmoothChain,
    fn: MapFn,
    x: Iterable[float],
    offsets: Sequence[float] = DEFAULT_OFFSETS,
    orders: Sequence[int] = (1, 2),
) -> ProbeReport:
    """Compare derivatives of fn on the two sides of a single wall.

    x must lie on exactly one mirror; the probe runs along that mirror's
    normal, pointed into the chamber. Offsets are rescaled so the nominal
    schedule probes fixed fractions of the local tube radius at x. The raw
    fold runs through the identical probe as the control.
    """
    x = np.asarray(x, dtype=float)
    desc = classify(chain.group, x)
    if len(desc.walls_containing) != 1:
        raise ValueError(
            f"probe point must sit on exactly one wall, found {len(desc.walls_containing)}")
    v = chain.group.mirrors[desc.walls_containing[0]].normal
    if float(v @ chain.chamber.witness) < 0:
        v = -v
    v = v / np.linalg.norm(v)

    radius = eval_l(chain, chain.rank - 1, x)
    scaled = tuple(float(d) * radius / REFERENCE_RADIUS for d in offsets)
    orders = tuple(orders)

    jumps = _two_sided_jumps(fn, x, v, scaled, orders)
    control = _two_sided_jumps(_fold_map(chain), x, v, scaled, orders)
    return ProbeReport(
        point=x, direction=v, offsets=scaled, orders=orders,
        jumps=jumps, control_jumps=control,
    )


def origin_line_probe(
    chain: SmoothChain,
    fn: MapFn,
    count: int = 20,
    seed: int = 0,
) -> list[ProbeReport]:
    """Two-sided derivative probes of orders 1 and 2, at the nominal
    offsets, along random lines through the origin of the essential
    subspace (where every stratum meets)."""
    group = chain.group
    rng = np.random.default_rng(seed)
    fixed = group.fixed_subspace
    scaled = tuple(float(d) * chain.tubes.c0 / REFERENCE_RADIUS
                   for d in DEFAULT_OFFSETS)
    orders = (1, 2)
    origin = np.zeros(group.dimension)
    reports = []
    for _ in range(count):
        v = rng.normal(size=group.dimension)
        if fixed.shape[1]:
            v = v - fixed @ (fixed.T @ v)
        v = v / np.linalg.norm(v)
        jumps = _two_sided_jumps(fn, origin, v, scaled, orders)
        reports.append(ProbeReport(
            point=origin, direction=v, offsets=scaled, orders=orders,
            jumps=jumps,
        ))
    return reports


@dataclasses.dataclass(frozen=True, eq=False)
class CurveReport:
    """One-parameter version of ProbeReport for probes along curves."""

    offsets: tuple[float, ...]
    orders: tuple[int, ...]
    jumps: dict[int, tuple[float, ...]]
    slopes: dict[int, float] = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "slopes", _fit_slopes(self.offsets, self.jumps))


def curve_jump_probe(
    fn: Callable[[float], np.ndarray],
    offsets: Sequence[float] = DEFAULT_OFFSETS,
    orders: Sequence[int] = (1,),
) -> CurveReport:
    """Derivative mismatch of a curve s -> fn(s) across s = 0."""
    offsets = tuple(float(d) for d in offsets)
    orders = tuple(orders)
    jumps: dict[int, list[float]] = {o: [] for o in orders}
    for delta in offsets:
        step = STEP_FRACTION * delta
        for order in orders:
            a = _central_difference(lambda s: fn(delta + s), order, step)
            b = _central_difference(lambda s: fn(-delta + s), order, step)
            jumps[order].append(max(float(np.linalg.norm(a - b)), JUMP_FLOOR))
    return CurveReport(offsets=offsets, orders=orders,
                       jumps={o: tuple(js) for o, js in jumps.items()})


# ---------------------------------------------------------------------------
# growth of derivative norms toward lower strata
# ---------------------------------------------------------------------------

DEFAULT_GROWTH_DISTANCES = (0.3, 0.1, 0.03, 0.01, 0.003)
GROWTH_SLACK = 0.3


@dataclasses.dataclass(frozen=True, eq=False)
class GrowthReport:
    level: int
    distances: tuple[float, ...]     # realized distance to the lower strata
    radii: tuple[float, ...]         # tube radius at each probe foot
    norms: dict[int, tuple[float, ...]]
    exponents: dict[int, float]
    limits: dict[int, float]


def _fit_exponent(regressor: Sequence[float], norms: Sequence[float]) -> float:
    x = np.log(np.asarray(regressor, dtype=float))
    if float(np.std(x)) < 1e-12:
        return 0.0          # constant radius (capped or level 0): no growth axis
    y = np.log(np.maximum(np.asarray(norms, dtype=float), JUMP_FLOOR))
    return float(np.polyfit(x, y, 1)[0])


def growth_bound_check(
    chain: SmoothChain,
    i: int,
    distances: Sequence[float] = DEFAULT_GROWTH_DISTANCES,
) -> GrowthReport:
    """Fit how ||D1|| and ||D2|| of the partial composite grow toward
    level-(i-1) strata; exponents must stay under order + 0.3.

    For i >= 1 the regressor is 1/l_i at the probe feet; for i = 0 the
    radius is the constant c0, so the regressor is 1/distance instead.
    """
    strat = chain.stratification
    fn = lambda q: apply_partial(chain, i, q)
    radii = []
    d1, d2 = [], []
    for d in distances:
        if i == 0:
            x = d * chain.chamber.witness / np.linalg.norm(chain.chamber.witness)
            radius = chain.tubes.c0
            v = chain.chamber.witness / np.linalg.norm(chain.chamber.witness)
            step = 0.02 * max(d, 1e-6)
        else:
            face = strat.faces_at_level(i)[0]
            base = strat.interior_point(face, radius=1.0)
            base_d = float(chain.lower_face_distances(i, base).min())
            x = base * (d / base_d)
            radius = eval_l(chain, i, x)
            active = list(face.active)
            v = chain.chamber.simple_normals[active].sum(axis=0)
            v = v / np.linalg.norm(v)
            step = 0.02 * radius
        p = x + (0.5 * radius) * v if i > 0 else x
        radii.append(radius)
        d1.append(float(np.linalg.norm(fd_jacobian(fn, p, step))))
        tangent = x / np.linalg.norm(x) if np.linalg.norm(x) > 0 else v
        mixed = v + tangent
        mixed = mixed / np.linalg.norm(mixed)
        second = max(
            float(np.linalg.norm(fd_directional(fn, p, u / np.linalg.norm(u), 2, step)))
            for u in (v, tangent, mixed)
        )
        d2.append(second)

    regressor = [1.0 / r for r in radii] if i > 0 else [1.0 / d for d in distances]
    exponents = {1: _fit_exponent(regressor, d1), 2: _fit_exponent(regressor, d2)}
    return GrowthReport(
        level=i,
        distances=tuple(distances),
        radii=tuple(radii),
        norms={1: tuple(d1), 2: tuple(d2)},
        exponents=exponents,
        limits={1: 1.0 + GROWTH_SLACK, 2: 2.0 + GROWTH_SLACK},
    )
