"""Finite-difference certification of the smoothness claims.

Nothing here differentiates symbolically: maps are probed with central
stencils, mismatches across a wall are fitted on a log-log scale, and the
raw fold is run through the same probes as a negative control. Offsets in
the nominal schedule are fractions of a reference tube radius (0.1), so a
nominal 1e-2 probes at a tenth of the local radius wherever the probe sits.

The stencils are the central-difference tables (Fornberg, "Generation of
finite difference formulas on arbitrarily spaced grids", Math. Comp.
1988). They are the same linear map at every base point, so each builder
takes an (M, n) stack of base points with one step per point, and each
check evaluates the stencils of all its points and probes as one stack.
The stencils of several orders on one base point and step share their
points: each distinct point is evaluated once, and each order is combined
with its own weights, order of summation and divisor, so it keeps the
bits it has alone. Orders 1-4 along one line take 5 points, not 14, and
a Jacobian asked for with a Hessian is read from the Hessian's +-step
axis rows.

Probes across a wall, along lines through the origin and along a curve
of one parameter are one measurement, and _probe_reports makes it for
all three: it refuses offsets at the rounding floor before evaluating
anything, takes the two-sided jumps of the map and returns ProbeReports.
Across a wall the map is H, the smoothing after the fold, and the fold is
the control: every stencil point is folded once, and the smoothing maps
those images, so H and its control share one fold.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .chamber import Face, _fold_rows, _orthogonal_directions, _square_sums
from .smoothing import SmoothChain, _apply_partial_rows, _radius_at

DEFAULT_OFFSETS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
REFERENCE_RADIUS = 0.1
JUMP_FLOOR = 1e-16
RESOLUTION_FLOOR = 1e-12       # below this a jump is zero as far as FD can tell
DECAY_SLOPE = 0.8              # least fitted jump slope that counts as decay
STEP_FRACTION = 0.125          # FD step as a fraction of the probe offset
ROW_CAP = 4096                 # most rows one call of a stack map is given;
                               # a verify's probe stack takes one or two calls

# The maps the stencils evaluate take an (N, n) stack of points and return
# the (N, m) stack of their values, row for row.
StackMap = Callable[[np.ndarray], np.ndarray]


_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}

# The stencils of M base points: their (M*k, n) points, k per base point
# in base order, and the function taking the (M*k, m) values to the M
# results, stacked on the first axis (or to a list of such stacks, one per
# order, for the stencils of several orders sharing their points).
_Stencil = tuple[np.ndarray, Callable[[np.ndarray], Any]]


def _evaluate(fn: StackMap, points: np.ndarray) -> np.ndarray:
    """Values of fn at every row of points, one call per ROW_CAP rows,
    which bounds the memory of the kernels' intermediates. Each call has a
    fixed cost (a fold's is per reflection step, not per row), so the cap
    is sized to take a verify's probe stack in one call (1,800 rows on i2
    and b2, 3,800 on a2 and b3) and a3's 6,600 in two. The stacked kernels
    round each row on its own, so the chunking changes no bit."""
    return np.concatenate([np.asarray(fn(points[start:start + ROW_CAP]), dtype=float)
                           for start in range(0, len(points), ROW_CAP) or [0]])


def _run_stencils(fn: StackMap, stencils: Sequence[_Stencil]) -> list[np.ndarray]:
    """Evaluate the points of all stencils together, then combine each."""
    return _combine(stencils, _evaluate(fn, np.concatenate([points for points, _ in stencils])))


def _combine(stencils: Sequence[_Stencil], values: np.ndarray) -> list[np.ndarray]:
    """Each stencil's results from its rows of the values of every
    stencil's points, stacked in stencil order."""
    out = []
    start = 0
    for points, combine in stencils:
        out.append(combine(values[start:start + len(points)]))
        start += len(points)
    return out


def _weighted_sum(weights: Sequence[float], values: Iterable[np.ndarray],
                  scale: float | np.ndarray) -> np.ndarray:
    """sum_k weights[k]*values[k] / scale, accumulated in stencil order."""
    acc = None
    for weight, value in zip(weights, values):
        term = weight * value
        acc = term if acc is None else acc + term
    return acc / scale


def _divisors(steps: np.ndarray, order: int, ndim: int) -> np.ndarray:
    """step**order for each base point, shaped to divide its results.
    The power is taken on Python floats: numpy's array power squares by
    multiplying, which rounds differently from pow in about 1e-3 of cases."""
    powers = np.array([step ** order for step in steps.tolist()])
    return powers.reshape(-1, *([1] * (ndim - 1)))


def _moves(shifts: Sequence[int], steps: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """(M, len(axes), len(shifts), n) array of the moves (shift*step)*e, one
    step per base point and e a row of axes (or of each point's own axes
    when axes is (M, d, n))."""
    scaled = np.array(shifts, dtype=float)[None, :] * steps[:, None]
    return scaled[:, None, :, None] * axes[..., None, :]


def _shared_line_stencils(base: np.ndarray, directions: np.ndarray,
                          orders: Sequence[int], steps: np.ndarray) -> _Stencil:
    """The stencil points p + (shift*step)*e of several orders at once, for
    each base point p and each row e of directions ((d, n), or (M, d, n)
    for directions of each point's own): the union of the orders' shifts,
    in increasing order, each point once. The combine gives the (M, d, ...)
    derivatives along them, one per order."""
    shifts = sorted({s for order in orders for s, _ in _STENCILS[order]})
    moves = _moves(shifts, steps, directions)
    points = (base[:, None, None, :] + moves).reshape(-1, base.shape[1])
    count, d = moves.shape[:2]

    def combine(values: np.ndarray) -> list[np.ndarray]:
        terms = values.reshape(count, d, len(shifts), *values.shape[1:])
        return [_weighted_sum([w for _, w in _STENCILS[order]],
                              [terms[:, :, shifts.index(s)] for s, _ in _STENCILS[order]],
                              _divisors(steps, order, terms.ndim - 1))
                for order in orders]

    return points, combine


def _jacobian_stencils(base: np.ndarray, steps: Sequence[float]) -> _Stencil:
    """Central Jacobians (M, m, n), one column per input coordinate."""
    steps = np.asarray(steps, dtype=float)
    points, combine = _shared_line_stencils(base, np.eye(base.shape[1]), (1,), steps)
    return points, lambda values: np.moveaxis(combine(values)[0], 1, -1)


def _hessian_stencils(base: np.ndarray, steps: Sequence[float]) -> _Stencil:
    """Full second-derivative tensors (M, m, n, n). Diagonal entries come
    from the order-2 row along each axis, with p itself as one point they
    share; each mixed entry from the product of two order-1 rows along its
    axis pair, one value filling (j, k) and (k, j)."""
    steps = np.asarray(steps, dtype=float)
    count, n = base.shape
    axes = np.eye(n)
    row1, row2 = _STENCILS[1], _STENCILS[2]
    off = [s for s, _ in row2 if s]
    shift_j, shift_k, mixed_weights = zip(*[(sj, sk, wj * wk)
                                            for sj, wj in row1 for sk, wk in row1])
    first, second = np.triu_indices(n, 1)
    # row of each diagonal stencil point among a base point's own: p is row 0
    diag_idx = np.zeros((n, len(row2)), dtype=int)
    diag_idx[:, [i for i, (s, _) in enumerate(row2) if s]] = (
        1 + np.arange(n * len(off)).reshape(n, len(off)))
    mixed_start = 1 + n * len(off)
    p = base[:, None, None, :]
    own = np.concatenate([
        base[:, None, :],
        (p + _moves(off, steps, axes)).reshape(count, -1, n),
        ((p + _moves(shift_j, steps, axes[first]))
         + _moves(shift_k, steps, axes[second])).reshape(count, -1, n),
    ], axis=1)
    per_point = own.shape[1]

    def combine(values: np.ndarray) -> np.ndarray:
        values = values.reshape(count, per_point, -1)
        scale = _divisors(steps, 2, 3)
        diag = _weighted_sum([w for _, w in row2],
                             np.moveaxis(values[:, diag_idx], 2, 0), scale)
        mixed_terms = values[:, mixed_start:].reshape(count, len(first),
                                                      len(mixed_weights), values.shape[2])
        mixed = _weighted_sum(mixed_weights, np.moveaxis(mixed_terms, 2, 0), scale)
        tensor = np.zeros((count, values.shape[2], n, n))
        tensor[:, :, range(n), range(n)] = diag.swapaxes(1, 2)
        tensor[:, :, first, second] = tensor[:, :, second, first] = mixed.swapaxes(1, 2)
        return tensor

    return own.reshape(-1, n), combine


def _axis_stencils(base: np.ndarray, steps: Sequence[float],
                   orders: Sequence[int]) -> _Stencil:
    """Jacobians (order 1) and full second-derivative tensors (order 2) on
    the points of the highest order asked; the combine lists them in
    orders' order. With order 2, the Jacobian reads the Hessian's rows
    1..2n of each base point: its +-step axis points, in the (axis, shift)
    order _jacobian_stencils evaluates them."""
    jacobian_points, jacobians = _jacobian_stencils(base, steps)
    if 2 not in orders:
        return jacobian_points, lambda values: [jacobians(values)]
    points, hessians = _hessian_stencils(base, steps)
    count, n = base.shape

    def combine(values: np.ndarray) -> list[np.ndarray]:
        shape = values.shape[1:]
        rows = values.reshape(count, -1, *shape)[:, 1:1 + 2 * n].reshape(-1, *shape)
        return [jacobians(rows) if order == 1 else hessians(values) for order in orders]

    return points, combine


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


def _check_offsets(point: np.ndarray, offsets: Sequence[float]) -> None:
    """Offsets must be finite, strictly decrease and stay above the
    rounding floor 10*eps*(1 + |point|) of the point they probe around."""
    if not all(math.isfinite(d) for d in offsets):
        raise ValueError("offsets must be finite")
    if any(b >= a for a, b in zip(offsets, offsets[1:])):
        raise ValueError("offsets must be strictly decreasing")
    eps_scale = 10.0 * np.finfo(float).eps * (1.0 + float(np.linalg.norm(point)))
    if min(offsets) <= eps_scale:
        raise _RoundingFloorError("offsets reach the rounding floor")


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
        _check_offsets(self.point, self.offsets)
        object.__setattr__(self, "slopes", _fit_slopes(self.offsets, self.jumps))
        object.__setattr__(self, "control_slopes", None if self.control_jumps is None
                           else _fit_slopes(self.offsets, self.control_jumps))

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


def _jump_stencils(xs: np.ndarray, vs: np.ndarray, offsets: Sequence[Sequence[float]],
                   orders: Sequence[int]) -> tuple[np.ndarray, Callable[[np.ndarray], list]]:
    """(points, jumps): every stencil point of the two-sided probes at xs
    along vs, each with its own offsets, and the function taking a map's
    values at those points to each probe's jumps, {order: one jump per
    offset}. A map's values can be combined this way more than once.

    Order 1 compares Jacobians, order 2 full second-derivative tensors,
    order 3 the normal third derivative. Order 2 takes the full tensor
    because pure even-order slices along a mirror normal cancel by the
    reflection symmetry: a normal-only second difference reads zero even
    for maps whose second derivative genuinely jumps. The third derivative
    along the normal survives the symmetry because it is odd. Every stencil
    of every probe, offset, side and order is one stack, each distinct
    point once: orders 1 and 2 take the Hessian's points alone.
    """
    deltas = np.asarray(offsets, dtype=float)
    count, k = deltas.shape
    x = np.repeat(xs, k, axis=0)
    v = np.repeat(vs, k, axis=0)
    dv = deltas.reshape(-1, 1) * v
    # rows by probe, then offset, then side (+ first)
    sides = np.stack([x + dv, x - dv], axis=1).reshape(-1, xs.shape[1])
    steps = np.repeat(STEP_FRACTION * deltas.reshape(-1), 2)
    groups, stencils = [], []     # orders that share points, and their stencil
    axis = [order for order in orders if order < 3]
    if axis:
        groups.append(axis)
        stencils.append(_axis_stencils(sides, steps, axis))
    line = [order for order in orders if order >= 3]
    if line:
        groups.append(line)
        stencils.append(_shared_line_stencils(sides, np.repeat(v, 2, axis=0)[:, None],
                                              line, steps))

    def jumps(values: np.ndarray) -> list[dict[int, tuple[float, ...]]]:
        derivatives = {}
        for group, results in zip(groups, _combine(stencils, values)):
            derivatives.update(zip(group, results))
        norms = {order: _jump_norms(derivatives[order].reshape(
                     count, k, 2, *derivatives[order].shape[1:])) for order in orders}
        return [{order: tuple(max(d, JUMP_FLOOR) for d in r[i])
                 for order, r in norms.items()} for i in range(count)]

    return np.concatenate([points for points, _ in stencils]), jumps


def _jump_norms(r: np.ndarray) -> list[list[float]]:
    """|r[i, j, 0] - r[i, j, 1]| for every probe i and offset j, as nested
    lists, with the bits of np.linalg.norm of each difference.

    norm ravels a difference in memory order ('K') and takes its dot with
    itself; the Jacobian is a moveaxis view, so its differences are laid
    out column by column. The stack is put in that order first, and each
    difference is one row of stacked 1 x m square sums (_square_sums),
    which round as the dot does.
    """
    tail = sorted(range(3, r.ndim), key=lambda axis: -r.strides[axis])
    r = r.transpose(0, 1, 2, *tail)
    diffs = (r[:, :, 0] - r[:, :, 1]).reshape(r.shape[0], r.shape[1], -1)
    return np.sqrt(_square_sums(diffs)).tolist()


def _probe_reports(fn: StackMap, xs: np.ndarray, vs: np.ndarray,
                   offsets: Sequence[tuple[float, ...]], orders: tuple[int, ...],
                   fold: StackMap | None = None) -> list[ProbeReport]:
    """The ProbeReports of the two-sided probes at the points xs along vs,
    each with its own offsets. Every probe's orders and offsets are checked
    first, so a schedule at the rounding floor evaluates nothing.

    fold, when given, runs first and fn maps its images: the probed map is
    fn after fold, and fold itself, through the same probes, is the
    control. The fold is evaluated once over every stencil point, fn once
    over its images."""
    if any(order not in (1, 2, 3) for order in orders):
        raise ValueError("order must be 1, 2, or 3")
    for x, offs in zip(xs, offsets):
        _check_offsets(x, offs)
    if not len(xs):
        return []
    points, jumps_of = _jump_stencils(xs, vs, offsets, orders)
    images = points if fold is None else _evaluate(fold, points)
    jumps = jumps_of(_evaluate(fn, images))
    controls = [None] * len(xs) if fold is None else jumps_of(images)
    return [ProbeReport(point=x, direction=v, offsets=offs, orders=orders,
                        jumps=j, control_jumps=c)
            for x, v, offs, j, c in zip(xs, vs, offsets, jumps, controls)]


def _wall_reports(chain: SmoothChain, fn: StackMap,
                  samples: Sequence[tuple[np.ndarray, Face, int]],
                  offsets: Sequence[float], orders: Sequence[int]) -> list[ProbeReport]:
    """Derivatives of fn after the fold compared on the two sides of a
    wall, at every sample (x, face, wall): x lies in the open
    codimension-one face and on group mirror `wall` alone. fn maps fold
    images (for H, the partial composite from level 0).

    Each probe runs along the mirror's normal, pointed into the chamber.
    Offsets are rescaled so the nominal schedule probes fixed fractions of
    the local tube radius at x, and the raw fold runs through the same
    probes as the control. The fold is evaluated once, over every probe's
    stencil points, and fn once, over their images.
    """
    xs, vs, scaled = [], [], []
    for x, face, wall in samples:
        v = chain.group.mirrors[wall].normal
        if float(v @ chain.chamber.witness) < 0:
            v = -v
        radius = _radius_at(chain, face, x)
        xs.append(x)
        vs.append(v / np.linalg.norm(v))
        scaled.append(tuple(float(d) * radius / REFERENCE_RADIUS for d in offsets))
    xs = np.reshape(xs, (len(xs), chain.group.dimension))
    normals, cap = chain.chamber.simple_normals, chain.group.order
    return _probe_reports(fn, xs, np.reshape(vs, xs.shape), scaled, tuple(orders),
                          fold=lambda points: _fold_rows(normals, points, cap))


def origin_line_probe(
    chain: SmoothChain,
    fn: StackMap,
    count: int = 20,
    seed: int = 0,
) -> list[ProbeReport]:
    """Two-sided derivative probes of orders 1 and 2, at the nominal
    offsets, along random lines through the origin of the essential
    subspace (where every stratum meets)."""
    scaled = tuple(float(d) * chain.tubes.c0 / REFERENCE_RADIUS
                   for d in DEFAULT_OFFSETS)
    vs = _orthogonal_directions(chain.group.fixed_subspace,
                                np.random.default_rng(seed), count)
    return _probe_reports(fn, np.zeros_like(vs), vs, [scaled] * len(vs), (1, 2))


def curve_jump_probe(
    fn: Callable[[float], np.ndarray],
    offsets: Sequence[float] = DEFAULT_OFFSETS,
    orders: Sequence[int] = (1,),
) -> ProbeReport:
    """Derivative mismatch of a curve s -> fn(s) across s = 0: the probe at
    point (0,) along direction (1,), with fn called once per stencil point."""
    offsets = tuple(float(d) for d in offsets)
    rows = lambda points: np.array([fn(s) for s in points[:, 0].tolist()], dtype=float)
    return _probe_reports(rows, np.zeros((1, 1)), np.ones((1, 1)), [offsets],
                          tuple(orders))[0]


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
    fn = lambda points: _apply_partial_rows(chain, i, points)
    radii, bases, steps, lines = [], [], [], []
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
            radius = _radius_at(chain, face, x)
            v = face.normal
            step = 0.02 * radius
        bases.append(x + (0.5 * radius) * v if i > 0 else x)
        steps.append(step)
        radii.append(radius)
        tangent = x / np.linalg.norm(x) if np.linalg.norm(x) > 0 else v
        mixed = v + tangent
        mixed = mixed / np.linalg.norm(mixed)
        lines.append([u / np.linalg.norm(u) for u in (v, tangent, mixed)])
    points = np.array(bases)
    jacobians, (second,) = _run_stencils(fn, [
        _jacobian_stencils(points, steps),
        _shared_line_stencils(points, np.array(lines), (2,), np.asarray(steps))])
    d1 = [float(np.linalg.norm(jacobian)) for jacobian in jacobians]
    d2 = [max(float(np.linalg.norm(d)) for d in along) for along in second]

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
