"""Per-point stencils, per-probe wall jumps and the scalar central
difference, frozen for tests.

This is the finite-difference harness as it was before the stencils were
built on stacks: each stencil belongs to one base point, every stencil of
one probe is evaluated in one call, and each result is combined on its
own. The stacked builders in orbitfold.calculus must reproduce it bit for
bit: the same sides x +- delta*v, moves (shift*step)*e, mixed points
(p + mj) + mk, sums in stencil order and the divisor step**order taken
on Python floats. The curve probe and the profile's flatness check took
their derivatives from central_difference, one call of g per stencil
point; curve_jumps is the curve probe's loop over offsets and orders.

Every map here takes an (N, n) stack of points and returns the (N, m)
stack of values, as in orbitfold.calculus; per_point turns a map of one
point into one. wall_sample gives a wall probe's sample at a point.
"""

import numpy as np

import stratum_oracle
from orbitfold.calculus import _STENCILS, JUMP_FLOOR, STEP_FRACTION
from orbitfold.chamber import classify


def per_point(fn):
    """The stack map that calls fn once per row."""
    return lambda points: np.array([fn(p) for p in points], dtype=float)


def wall_sample(chain, x):
    """(x, face, wall), as the wall probes take a sample: x on group mirror
    `wall` alone, in the codimension-one face `face`."""
    x = np.asarray(x, dtype=float)
    wall, = classify(chain.group, x).walls_containing
    strat = chain.stratification
    face = next(f for f in strat.faces_at_level(chain.rank - 1)
                if stratum_oracle.face_contains(strat, f, x))
    return x, face, wall


def evaluate(fn, points):
    return np.asarray(fn(points), dtype=float)


def run_stencils(fn, stencils):
    values = evaluate(fn, np.concatenate([points for points, _ in stencils]))
    out = []
    start = 0
    for points, combine in stencils:
        out.append(combine(values[start:start + len(points)]))
        start += len(points)
    return out


def weighted_sum(weights, values, scale):
    acc = None
    for weight, value in zip(weights, values):
        term = weight * value
        acc = term if acc is None else acc + term
    return acc / scale


def moves(shifts, step, axes):
    return (np.array(shifts, dtype=float) * step)[None, :, None] * axes[:, None, :]


def line_stencil(p, directions, order, step):
    row = _STENCILS[order]
    points = (p + moves([s for s, _ in row], step, directions)).reshape(-1, p.size)

    def combine(values):
        terms = values.reshape(len(directions), len(row), *values.shape[1:]).swapaxes(0, 1)
        return weighted_sum([w for _, w in row], terms, step ** order)

    return points, combine


def jacobian_stencil(p, step):
    points, combine = line_stencil(p, np.eye(p.size), 1, step)
    return points, lambda values: np.moveaxis(combine(values), 0, -1)


def directional_stencil(p, direction, order, step):
    points, combine = line_stencil(p, direction[None, :], order, step)
    return points, lambda values: combine(values)[0]


def hessian_stencil(p, step):
    n = p.size
    axes = np.eye(n)
    row1, row2 = _STENCILS[1], _STENCILS[2]
    off = [s for s, _ in row2 if s]
    shift_j, shift_k, mixed_weights = zip(*[(sj, sk, wj * wk)
                                            for sj, wj in row1 for sk, wk in row1])
    first, second = np.triu_indices(n, 1)
    diag_idx = np.zeros((n, len(row2)), dtype=int)
    diag_idx[:, [i for i, (s, _) in enumerate(row2) if s]] = (
        1 + np.arange(n * len(off)).reshape(n, len(off)))
    mixed_start = 1 + n * len(off)
    points = np.concatenate([
        p[None, :],
        (p + moves(off, step, axes)).reshape(-1, n),
        ((p + moves(shift_j, step, axes[first]))
         + moves(shift_k, step, axes[second])).reshape(-1, n),
    ])

    def combine(values):
        diag = weighted_sum([w for _, w in row2], values[diag_idx].swapaxes(0, 1),
                            step ** 2)
        mixed_terms = values[mixed_start:].reshape(len(first), len(mixed_weights),
                                                   *values.shape[1:])
        mixed = weighted_sum(mixed_weights, mixed_terms.swapaxes(0, 1), step ** 2)
        tensor = np.zeros((values[0].size, n, n))
        tensor[:, range(n), range(n)] = diag.T
        tensor[:, first, second] = tensor[:, second, first] = mixed.T
        return tensor

    return points, combine


def two_sided_jumps(fn, x, v, offsets, orders):
    """Jumps of one probe at x along v, all its stencils in one call."""
    stencils = []
    for delta in offsets:
        step = STEP_FRACTION * delta
        for order in orders:
            for side in (x + delta * v, x - delta * v):
                if order == 1:
                    stencils.append(jacobian_stencil(side, step))
                elif order == 2:
                    stencils.append(hessian_stencil(side, step))
                else:
                    stencils.append(directional_stencil(side, v, order, step))
    results = iter(run_stencils(fn, stencils))
    jumps = {o: [] for o in orders}
    for _ in offsets:
        for order in orders:
            a, b = next(results), next(results)
            jumps[order].append(max(float(np.linalg.norm(a - b)), JUMP_FLOOR))
    return {o: tuple(js) for o, js in jumps.items()}


def central_difference(g, order, step):
    """Derivative of the given order of g at 0 by the central stencil."""
    row = _STENCILS[order]
    return weighted_sum([w for _, w in row],
                        [np.asarray(g(shift * step), dtype=float) for shift, _ in row],
                        step ** order)


def curve_jumps(fn, offsets, orders):
    """Jumps of a curve s -> fn(s) across s = 0, offset by offset."""
    jumps = {o: [] for o in orders}
    for delta in offsets:
        step = STEP_FRACTION * delta
        for order in orders:
            a = central_difference(lambda s: fn(delta + s), order, step)
            b = central_difference(lambda s: fn(-delta + s), order, step)
            jumps[order].append(max(float(np.linalg.norm(a - b)), JUMP_FLOOR))
    return {o: tuple(js) for o, js in jumps.items()}
