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
points, p itself first: each distinct point is evaluated once, and each
order is combined with its own weights, order of summation and divisor,
so it keeps the bits it has alone. Orders 1-4 along one line take 5
points, and order 2 along 3 lines 7. The Hessian is its axis lines plus
the pair-product points of each axis pair.

Probes across a wall, along lines through the origin and along a curve
of one parameter are one measurement, and _probe_reports makes it for
all three: it checks each probe's offsets once and refuses those at the
rounding floor before evaluating anything, takes the two-sided jumps of
the map, fits the slopes of every report and returns ProbeReports.
Every log-log slope, of the probes and of the growth check, comes from
_loglog_slopes: all of a check's fits as one stack, with the bits
np.polyfit gives each, and a named error where the fit has rank 1.
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
from .smoothing import SmoothChain, _apply_partial_rows, _check_tube_level, _radius_at

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
    for directions of each point's own), each point once: p first when an
    order needs shift 0, then the other shifts in (direction, shift) order.
    The combine gives the (M, d, ...) derivatives along them, one per order."""
    used = {s for order in orders for s, _ in _STENCILS[order]}
    shifts = sorted(used - {0})
    moves = _moves(shifts, steps, directions)
    count, d = moves.shape[:2]
    lines = (base[:, None, None, :] + moves).reshape(count, d * len(shifts), base.shape[1])
    centre = int(0 in used)
    points = np.concatenate([base[:, None, :], lines], axis=1) if centre else lines

    def combine(values: np.ndarray) -> list[np.ndarray]:
        own = values.reshape(count, centre + d * len(shifts), *values.shape[1:])
        terms = own[:, centre:].reshape(count, d, len(shifts), *values.shape[1:])
        row = lambda s: own[:, :1] if s == 0 else terms[:, :, shifts.index(s)]
        return [_weighted_sum([w for _, w in _STENCILS[order]],
                              [row(s) for s, _ in _STENCILS[order]],
                              _divisors(steps, order, terms.ndim - 1))
                for order in orders]

    return points.reshape(-1, base.shape[1]), combine


def _axis_stencils(base: np.ndarray, steps: Sequence[float],
                   orders: Sequence[int]) -> _Stencil:
    """Jacobians (M, m, n) for order 1 and full second-derivative tensors
    (M, m, n, n) for order 2, listed in orders' order. The line stencils of
    orders along the axes give the Jacobian's columns and the Hessian's
    diagonal; each mixed entry comes from the product of two order-1 rows
    along its axis pair, at the points (p + sj*step*e_j) + sk*step*e_k,
    one value filling (j, k) and (k, j). A base point's rows are its line
    points, then its pair points."""
    steps = np.asarray(steps, dtype=float)
    count, n = base.shape
    axes = np.eye(n)
    line_points, lines = _shared_line_stencils(base, axes, orders, steps)
    if 2 not in orders:
        return line_points, lambda values: [np.moveaxis(lines(values)[0], 1, -1)]
    row1 = _STENCILS[1]
    shift_j, shift_k, mixed_weights = zip(*[(sj, sk, wj * wk)
                                            for sj, wj in row1 for sk, wk in row1])
    first, second = np.triu_indices(n, 1)
    # numpy cannot infer a -1 axis of an empty stack; its axis is 0
    pairs = ((base[:, None, None, :] + _moves(shift_j, steps, axes[first]))
             + _moves(shift_k, steps, axes[second])).reshape(count, -1 if count else 0, n)
    own = np.concatenate([line_points.reshape(count, -1 if count else 0, n), pairs], axis=1)
    width = own.shape[1] - pairs.shape[1]

    def combine(values: np.ndarray) -> list[np.ndarray]:
        values = values.reshape(count, own.shape[1], *values.shape[1:])
        m = values.shape[2]
        derivatives = dict(zip(orders, lines(values[:, :width].reshape(-1, m))))
        mixed_terms = values[:, width:].reshape(count, len(first), len(mixed_weights), m)
        mixed = _weighted_sum(mixed_weights, np.moveaxis(mixed_terms, 2, 0),
                              _divisors(steps, 2, 3))
        tensor = np.zeros((count, m, n, n))
        tensor[:, :, range(n), range(n)] = derivatives[2].swapaxes(1, 2)
        tensor[:, :, first, second] = tensor[:, :, second, first] = mixed.swapaxes(1, 2)
        return [np.moveaxis(derivatives[1], 1, -1) if order == 1 else tensor
                for order in orders]

    return own.reshape(-1, n), combine


class _RankDeficientFitError(ValueError):
    """A log-log fit whose abscissae round to one logarithm."""


def _loglog_slopes(abscissae: np.ndarray, values: np.ndarray,
                   first_minimum: bool = True) -> np.ndarray:
    """Least-squares slopes of log values against log abscissae, one per
    row of (F, k) stacks, each with the bits of np.polyfit(x, y, 1)[0] on
    its row's kept entries.

    Values are clamped at JUMP_FLOOR. With first_minimum each fit stops at
    the first minimum of its row: the finite-difference error of an
    order-k stencil grows like eps/step**k as the step shrinks, so once
    the measured mismatch turns back upward the remaining entries track
    rounding noise rather than the quantity under study. A row that never
    decreases keeps every entry, which leaves flat (non-decaying) controls
    with their honest near-zero slope.

    The clamp, the stops, the logs and polyfit's column-scaled Vandermonde
    (columns log x and 1, each divided by its norm) are array operations
    over the stack; a dropped entry is a zero in the norm's sum, which
    leaves its bits. Fits with one abscissae row and one kept length share
    that design, and each design is one np.linalg.lstsq, with polyfit's
    rcond, k*eps, and one right-hand side per fit: LAPACK solves each
    finite column as it would solve it alone. A fit's slope is its first
    coefficient over its column's norm. A design of rank below 2 raises,
    naming the first such fit in row order, where polyfit would warn and
    return a minimum-norm slope: its abscissae are one entry, or adjacent
    floats whose logarithms round together.
    """
    v = np.maximum(np.asarray(values, dtype=float), JUMP_FLOOR)
    fits, k = v.shape
    stop = np.argmin(v, axis=1) if first_minimum else np.zeros(fits, dtype=int)
    kept = np.where(stop == 0, k, stop + 1)
    x = np.where(np.arange(k) < kept[:, None], np.log(np.asarray(abscissae, dtype=float)), 0.0)
    y = np.log(v)
    scale = np.sqrt((x * x).sum(axis=1))
    lhs = np.stack([x / scale[:, None],
                    np.repeat(1.0 / np.sqrt(kept.astype(float))[:, None], k, axis=1)], axis=2)
    eps = np.finfo(float).eps
    # fits by design, in order of first fit; a fit with a value that is not
    # finite solves alone, since LAPACK scales every right-hand side by the
    # largest, and an inf there turns every slope of the solve into NaN
    designs: dict[tuple[int, bytes | int], list[int]] = {}
    finite = np.isfinite(y).all(axis=1).tolist()
    for f, key in enumerate(zip(kept.tolist(), map(bytes, x))):
        designs.setdefault(key if finite[f] else (key[0], f), []).append(f)
    slopes = np.empty(fits)
    for (n, _), members in designs.items():
        f = members[0]
        coef, _, rank, _ = np.linalg.lstsq(lhs[f, :n], y[members, :n].T, rcond=n * eps)
        if rank < 2:
            raise _RankDeficientFitError(
                f"cannot fit a log-log slope to {n} abscissae "
                f"{np.asarray(abscissae)[f, :n].tolist()}: their logarithms do not "
                f"separate at float precision (rank {rank})")
        slopes[members] = coef[0] / scale[members]
    return slopes


class _RoundingFloorError(ValueError):
    """A probe offset at or below the rounding floor of its probe point."""


class _OffsetOrderError(ValueError):
    """Probe offsets that do not strictly decrease at a probe point: the
    one at `index` is not above the next. Offsets rescaled to a tube
    radius can round together even where the schedule decreases."""

    def __init__(self, index: int) -> None:
        super().__init__("offsets must be strictly decreasing")
        self.index = index


def _check_offsets(point: np.ndarray, offsets: Sequence[float]) -> None:
    """Offsets must be finite, strictly decrease and stay above the
    rounding floor 10*eps*(1 + |point|) of the point they probe around."""
    if not all(math.isfinite(d) for d in offsets):
        raise ValueError("offsets must be finite")
    for j, (a, b) in enumerate(zip(offsets, offsets[1:])):
        if b >= a:
            raise _OffsetOrderError(j)
    eps_scale = 10.0 * np.finfo(float).eps * (1.0 + float(np.linalg.norm(point)))
    if min(offsets) <= eps_scale:
        raise _RoundingFloorError("offsets reach the rounding floor")


@dataclasses.dataclass(frozen=True, eq=False)
class ProbeReport:
    """Derivative mismatches across a stratum at shrinking offsets.

    slopes and control_slopes are the log-log fits of jumps and
    control_jumps against offsets. _probe_reports, which makes every
    report, checks the offsets once, before evaluating anything, and fits
    the slopes of all its reports in one stack (_loglog_slopes); each
    slope is finite.
    """

    point: np.ndarray
    direction: np.ndarray
    offsets: tuple[float, ...]
    orders: tuple[int, ...]
    jumps: dict[int, tuple[float, ...]]
    slopes: dict[int, float]
    control_jumps: dict[int, tuple[float, ...]] | None = None
    control_slopes: dict[int, float] | None = None

    def resolved(self, order: int) -> bool:
        """Whether the mismatch ever rose above what FD can distinguish
        from zero. Unresolved jumps happen for symmetry reasons (e.g. a
        group containing -I makes even-order tensors at antipodal points
        identical), not for numerical ones."""
        return max(self.jumps[order]) > RESOLUTION_FLOOR

    def control_resolved(self, order: int) -> bool:
        """resolved, for the control's jumps."""
        return max(self.control_jumps[order]) > RESOLUTION_FLOOR


def _least_resolved_slope(reports: Sequence[ProbeReport], order: int) -> float:
    """Least fitted slope of the given order over the probes that resolve
    it, inf when none does (no measurable mismatch is stronger than decay).
    Decay holds when this is at least DECAY_SLOPE."""
    return min((r.slopes[order] for r in reports if r.resolved(order)),
               default=math.inf)


def _largest_control_slope(reports: Sequence[ProbeReport], order: int) -> float:
    """Largest |control slope| of the given order over the probes whose
    control resolves it; inf when there are probes and none does, since a
    slope fitted to jumps at the rounding floor is noise, not flatness, and
    -inf when there are none. The control stays flat when this is small."""
    return max((abs(r.control_slopes[order]) for r in reports if r.control_resolved(order)),
               default=math.inf if reports else -math.inf)


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
        floored = {order: np.maximum(_jump_norms(derivatives[order].reshape(
                       count, k, 2, *derivatives[order].shape[1:])), JUMP_FLOOR).tolist()
                   for order in orders}
        return [{order: tuple(r[i]) for order, r in floored.items()} for i in range(count)]

    return np.concatenate([points for points, _ in stencils]), jumps


def _jump_norms(r: np.ndarray) -> np.ndarray:
    """|r[i, j, 0] - r[i, j, 1]| for every probe i and offset j, with the
    bits of np.linalg.norm of each difference.

    norm ravels a difference in memory order ('K') and takes its dot with
    itself; the Jacobian is a moveaxis view, so its differences are laid
    out column by column. The stack is put in that order first, and each
    difference is one row of stacked 1 x m square sums (_square_sums),
    which round as the dot does.
    """
    tail = sorted(range(3, r.ndim), key=lambda axis: -r.strides[axis])
    r = r.transpose(0, 1, 2, *tail)
    diffs = (r[:, :, 0] - r[:, :, 1]).reshape(r.shape[0], r.shape[1], -1)
    return np.sqrt(_square_sums(diffs))


def _probe_reports(fn: StackMap, xs: np.ndarray, vs: np.ndarray,
                   offsets: Sequence[tuple[float, ...]], orders: tuple[int, ...],
                   fold: StackMap | None = None) -> list[ProbeReport]:
    """The ProbeReports of the two-sided probes at the points xs along vs,
    each with its own offsets. Every probe's orders and offsets are checked
    first, and only here, so a schedule at the rounding floor evaluates
    nothing. The jump and control slopes of every report are fitted in
    one _loglog_slopes stack; a slope that is not finite raises, naming
    its order.

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
    measured = [jumps_of(_evaluate(fn, images))]        # the map's jumps, then the control's
    if fold is not None:
        measured.append(jumps_of(images))
    # every fit of every report as one stack of rows: (map, control) x report x order
    values = np.array([[[jumps[order] for order in orders] for jumps in each]
                       for each in measured])
    k = values.shape[-1]
    abscissae = np.broadcast_to(np.asarray(offsets, dtype=float)[:, None], values.shape)
    slopes = _loglog_slopes(abscissae.reshape(-1, k),
                            values.reshape(-1, k)).reshape(values.shape[:-1])
    bad = np.argwhere(~np.isfinite(slopes.transpose(1, 0, 2)))    # by report first
    if len(bad):
        raise ValueError(f"slope for order {orders[bad[0][2]]} is not finite")
    fitted = [[dict(zip(orders, row)) for row in each] for each in slopes.tolist()]
    if fold is None:
        measured.append([None] * len(xs))
        fitted.append([None] * len(xs))
    return [ProbeReport(point=x, direction=v, offsets=offs, orders=orders, jumps=j,
                        slopes=s, control_jumps=cj, control_slopes=cs)
            for x, v, offs, j, cj, s, cs in zip(xs, vs, offsets, *measured, *fitted)]


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
    return _probe_reports(fn, xs, np.reshape(vs, xs.shape), scaled, tuple(orders),
                          fold=lambda points: _fold_rows(chain.chamber, points))


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


def growth_bound_check(chain: SmoothChain, i: int) -> GrowthReport:
    """Fit how ||D1|| and ||D2|| of the partial composite grow toward
    level-(i-1) strata, at the DEFAULT_GROWTH_DISTANCES; exponents must
    stay under order + 0.3.

    For i >= 1 the regressor is 1/l_i at the probe feet; for i = 0 the
    radius is the constant c0, so the regressor is 1/distance instead.
    """
    _check_tube_level(chain, i)
    strat = chain.stratification
    fn = lambda points: _apply_partial_rows(chain, i, points)
    radii, bases, steps, lines = [], [], [], []
    if i == 0:       # the direction and the face do not depend on d
        witness = chain.chamber.witness
        witness_norm = np.linalg.norm(witness)
        v = witness / witness_norm
    else:
        face = strat.faces_at_level(i)[0]
        base = strat.interior_point(face, radius=1.0)
        base_d = min(chain.lower_face_distances(i, base))
        v = face.normal
    for d in DEFAULT_GROWTH_DISTANCES:
        if i == 0:
            x = d * witness / witness_norm
            radius = chain.tubes.c0
            step = 0.02 * max(d, 1e-6)
        else:
            x = base * (d / base_d)
            radius = _radius_at(chain, face, x)
            step = 0.02 * radius
        bases.append(x + (0.5 * radius) * v if i > 0 else x)
        steps.append(step)
        radii.append(radius)
        tangent = x / np.linalg.norm(x) if np.linalg.norm(x) > 0 else v
        mixed = v + tangent
        mixed = mixed / np.linalg.norm(mixed)
        lines.append([u / np.linalg.norm(u) for u in (v, tangent, mixed)])
    points = np.array(bases)
    (jacobians,), (second,) = _run_stencils(fn, [
        _axis_stencils(points, steps, (1,)),
        _shared_line_stencils(points, np.array(lines), (2,), np.asarray(steps))])
    d1 = [float(np.linalg.norm(jacobian)) for jacobian in jacobians]
    d2 = [max(float(np.linalg.norm(d)) for d in along) for along in second]

    regressor = [1.0 / r for r in (radii if i > 0 else DEFAULT_GROWTH_DISTANCES)]
    if float(np.std(np.log(regressor))) < 1e-12:
        fitted = [0.0, 0.0]     # constant radius (capped or level 0): no growth axis
    else:
        fitted = _loglog_slopes(np.array([regressor, regressor]), np.array([d1, d2]),
                                first_minimum=False).tolist()
    exponents = dict(zip((1, 2), fitted))
    return GrowthReport(
        level=i,
        distances=DEFAULT_GROWTH_DISTANCES,
        radii=tuple(radii),
        norms={1: tuple(d1), 2: tuple(d2)},
        exponents=exponents,
        limits={1: 1.0 + GROWTH_SLACK, 2: 2.0 + GROWTH_SLACK},
    )
