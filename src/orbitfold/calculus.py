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

from .chamber import _fold_rows, classify
from .smoothing import SmoothChain, _apply_partial_rows, eval_l

DEFAULT_OFFSETS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
REFERENCE_RADIUS = 0.1
JUMP_FLOOR = 1e-16
RESOLUTION_FLOOR = 1e-12       # below this a jump is zero as far as FD can tell
DECAY_SLOPE = 0.8              # least fitted jump slope that counts as decay
STEP_FRACTION = 0.125          # FD step as a fraction of the probe offset

MapFn = Callable[[np.ndarray], np.ndarray]


@dataclasses.dataclass(frozen=True)
class RowMap:
    """A map that takes a whole stack of points: rows maps an (N, n) array
    to the (N, m) array of its values, row for row.

    The FD helpers build every point a stencil or probe needs and make one
    call; a RowMap gets them all as one stack, and any other map is called
    once per point.
    """

    rows: Callable[[np.ndarray], np.ndarray]


_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}

# a stencil's points, and the function taking their values to its result
_Stencil = tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]


def _evaluate(fn: MapFn | RowMap, points: np.ndarray) -> np.ndarray:
    """Values of fn at every row of points, stacked: one call for a RowMap,
    one call per point otherwise."""
    if isinstance(fn, RowMap):
        return np.asarray(fn.rows(points), dtype=float)
    return np.stack([np.asarray(fn(p), dtype=float) for p in points])


def _run_stencils(fn: MapFn | RowMap, stencils: Sequence[_Stencil]) -> list[np.ndarray]:
    """Evaluate the points of all stencils together, then combine each."""
    values = _evaluate(fn, np.concatenate([points for points, _ in stencils]))
    out = []
    start = 0
    for points, combine in stencils:
        out.append(combine(values[start:start + len(points)]))
        start += len(points)
    return out


def _weighted_sum(weights: Sequence[float], values: Iterable[np.ndarray],
                  scale: float) -> np.ndarray:
    """sum_k weights[k]*values[k] / scale, accumulated in stencil order."""
    acc = None
    for weight, value in zip(weights, values):
        term = weight * value
        acc = term if acc is None else acc + term
    return acc / scale


def _central_difference(g: Callable[[float], object], order: int,
                        step: float) -> np.ndarray:
    """Derivative of the given order of g at 0 by the central stencil."""
    row = _STENCILS[order]
    return _weighted_sum([w for _, w in row],
                         [np.asarray(g(shift * step), dtype=float) for shift, _ in row],
                         step ** order)


def _moves(shifts: Sequence[int], step: float, axes: np.ndarray) -> np.ndarray:
    """(len(axes), len(shifts), n) array of the moves (shift*step)*e, e a
    row of axes."""
    return (np.array(shifts, dtype=float) * step)[None, :, None] * axes[:, None, :]


def _line_stencil(p: np.ndarray, directions: np.ndarray, order: int,
                  step: float) -> _Stencil:
    """The order's stencil points p + (shift*step)*e along each row e of
    directions, and the function giving the derivative along each
    direction, stacked on the first axis."""
    row = _STENCILS[order]
    points = (p + _moves([s for s, _ in row], step, directions)).reshape(-1, p.size)

    def combine(values: np.ndarray) -> np.ndarray:
        terms = values.reshape(len(directions), len(row), *values.shape[1:]).swapaxes(0, 1)
        return _weighted_sum([w for _, w in row], terms, step ** order)

    return points, combine


def _jacobian_stencil(p: np.ndarray, step: float) -> _Stencil:
    points, combine = _line_stencil(p, np.eye(p.size), 1, step)
    return points, lambda values: np.moveaxis(combine(values), 0, -1)


def _directional_stencil(p: np.ndarray, direction: np.ndarray, order: int,
                         step: float) -> _Stencil:
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2, or 3")
    points, combine = _line_stencil(p, direction[None, :], order, step)
    return points, lambda values: combine(values)[0]


def _hessian_stencil(p: np.ndarray, step: float) -> _Stencil:
    """Diagonal entries from the order-2 row along each axis, with p itself
    as one point they share; each mixed entry from the product of two
    order-1 rows along its axis pair, one value filling (j, k) and (k, j)."""
    n = p.size
    axes = np.eye(n)
    row1, row2 = _STENCILS[1], _STENCILS[2]
    off = [s for s, _ in row2 if s]
    shift_j, shift_k, mixed_weights = zip(*[(sj, sk, wj * wk)
                                            for sj, wj in row1 for sk, wk in row1])
    first, second = np.triu_indices(n, 1)
    # row of each diagonal stencil point in `points`: p is row 0
    diag_idx = np.zeros((n, len(row2)), dtype=int)
    diag_idx[:, [i for i, (s, _) in enumerate(row2) if s]] = (
        1 + np.arange(n * len(off)).reshape(n, len(off)))
    mixed_start = 1 + n * len(off)
    points = np.concatenate([
        p[None, :],
        (p + _moves(off, step, axes)).reshape(-1, n),
        ((p + _moves(shift_j, step, axes[first]))
         + _moves(shift_k, step, axes[second])).reshape(-1, n),
    ])

    def combine(values: np.ndarray) -> np.ndarray:
        diag = _weighted_sum([w for _, w in row2], values[diag_idx].swapaxes(0, 1),
                             step ** 2)
        mixed_terms = values[mixed_start:].reshape(len(first), len(mixed_weights),
                                                   *values.shape[1:])
        mixed = _weighted_sum(mixed_weights, mixed_terms.swapaxes(0, 1), step ** 2)
        tensor = np.zeros((values[0].size, n, n))
        tensor[:, range(n), range(n)] = diag.T
        tensor[:, first, second] = tensor[:, second, first] = mixed.T
        return tensor

    return points, combine


def fd_jacobian(fn: MapFn | RowMap, p: np.ndarray, step: float) -> np.ndarray:
    """Central-difference Jacobian, one column per input coordinate."""
    if step <= 0:
        raise ValueError("step must be positive")
    p = np.asarray(p, dtype=float)
    return _run_stencils(fn, [_jacobian_stencil(p, step)])[0]


def fd_hessian(fn: MapFn | RowMap, p: np.ndarray, step: float) -> np.ndarray:
    """Full second-derivative tensor (m, n, n) by central differences.

    Exact on quadratic maps. This is the object to compare across a
    mirror: pure even-order slices along the normal cancel by reflection
    symmetry, so a normal-only second difference would read zero even
    for maps whose second derivative genuinely jumps.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    p = np.asarray(p, dtype=float)
    return _run_stencils(fn, [_hessian_stencil(p, step)])[0]


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


def _two_sided_jumps(fn: MapFn | RowMap, x: np.ndarray, v: np.ndarray,
                     offsets: Sequence[float],
                     orders: Sequence[int]) -> dict[int, tuple[float, ...]]:
    # Order 1 compares Jacobians, order 2 full second-derivative tensors
    # (see fd_hessian for why), order 3 the normal third derivative,
    # which survives the symmetry because it is odd. Every stencil of
    # every offset, side and order is evaluated in one call.
    stencils = []
    for delta in offsets:
        step = STEP_FRACTION * delta
        for order in orders:
            for side in (x + delta * v, x - delta * v):
                if order == 1:
                    stencils.append(_jacobian_stencil(side, step))
                elif order == 2:
                    stencils.append(_hessian_stencil(side, step))
                else:
                    stencils.append(_directional_stencil(side, v, order, step))
    results = iter(_run_stencils(fn, stencils))
    jumps: dict[int, list[float]] = {o: [] for o in orders}
    for _ in offsets:
        for order in orders:
            a, b = next(results), next(results)
            jumps[order].append(max(float(np.linalg.norm(a - b)), JUMP_FLOOR))
    return {o: tuple(js) for o, js in jumps.items()}


def _fold_map(chain: SmoothChain) -> RowMap:
    normals = chain.chamber.simple_normals
    cap = chain.group.order
    return RowMap(lambda points: _fold_rows(normals, points, cap))


def wall_jump_probe(
    chain: SmoothChain,
    fn: MapFn | RowMap,
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
    fn: MapFn | RowMap,
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
    fn = RowMap(lambda points: _apply_partial_rows(chain, i, points))
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
        tangent = x / np.linalg.norm(x) if np.linalg.norm(x) > 0 else v
        mixed = v + tangent
        mixed = mixed / np.linalg.norm(mixed)
        jacobian, *second = _run_stencils(fn, [_jacobian_stencil(p, step)] + [
            _directional_stencil(p, u / np.linalg.norm(u), 2, step)
            for u in (v, tangent, mixed)])
        d1.append(float(np.linalg.norm(jacobian)))
        d2.append(max(float(np.linalg.norm(d)) for d in second))

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
