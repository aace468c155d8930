"""Seeded inputs for the workloads, built without calling the package.

The B3 geometry is written out here (signed permutations of R^3, mirrors
x_i = 0 and x_i = +-x_j) so that a change to the package cannot change the
inputs it is measured on.
"""

from __future__ import annotations

import itertools

import numpy as np

# directions of the level-1 strata of B3 (lines where two mirrors meet)
_LINES = np.array(
    [d for d in itertools.product((0.0, 1.0, -1.0), repeat=3)
     if any(d) and next(x for x in d if x) > 0])
_LINES = _LINES / np.linalg.norm(_LINES, axis=1)[:, None]

# level-1 tube radius is b_1 * |x| with slope b_1 = 0.1 for B3
SLOPE = 0.1

# share of each point kind in map-b3
MIX = (("generic", 0.40), ("tube", 0.40), ("stratum", 0.15), ("logscale", 0.05))


def signed_permutations() -> np.ndarray:
    """The 48 elements of B3 as matrices."""
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            for row, (col, s) in enumerate(zip(perm, signs)):
                m[row, col] = s
            mats.append(m)
    return np.array(mats)


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _dist_to_lower(x: np.ndarray) -> float:
    """Distance from x to the origin and to every level-1 line."""
    along = _LINES @ x
    perp = np.linalg.norm(x[None, :] - along[:, None] * _LINES, axis=1)
    return float(min(np.min(perp), np.linalg.norm(x)))


def _tube_point(rng: np.random.Generator) -> np.ndarray:
    """A point inside the tube of a level-0, level-1 or level-2 stratum."""
    level = int(rng.integers(3))
    if level == 0:
        return rng.uniform(0.05, 0.95) * _unit(rng)
    if level == 1:
        d = _LINES[rng.integers(len(_LINES))]
        s = rng.uniform(0.5, 2.0)
        off = rng.normal(size=3)
        off -= (off @ d) * d
        off /= np.linalg.norm(off)
        return s * d + rng.uniform(0.05, 0.95) * SLOPE * s * off
    # level 2: a point of the mirror x_1 = x_2 (or x_3 = 0) pushed off it
    while True:
        a, b = rng.uniform(0.3, 2.0, size=2)
        x, n = ((np.array([a, a, b]), np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0))
                if rng.random() < 0.5 else
                (np.array([a, b, 0.0]), np.array([0.0, 0.0, 1.0])))
        d = _dist_to_lower(x)
        if d > 0.05:
            return x + rng.uniform(0.05, 0.95) * 0.5 * SLOPE * d * n


def _stratum_point(rng: np.random.Generator) -> np.ndarray:
    """A point exactly on a stratum: every coordinate is exact."""
    kind = int(rng.integers(6))
    a, b = rng.uniform(0.2, 2.0, size=2)
    return [np.zeros(3), np.array([a, 0.0, 0.0]), np.array([a, a, 0.0]),
            np.array([a, a, a]), np.array([a, a, b]), np.array([a, b, 0.0])][kind]


def b3_points(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """`count` points of the map-b3 mix and the kind index of each.

    Points are grouped by kind, in MIX order. The log-scale exponents are
    stratified over [-300, 300] in increasing order, so that every k-th
    point of that group covers the whole range evenly.
    """
    rng = np.random.default_rng([seed, 3])
    group = signed_permutations()
    pts, kinds = [], []
    sizes = [int(round(share * count)) for _, share in MIX]
    sizes[0] += count - sum(sizes)
    for k, ((kind, _), size) in enumerate(zip(MIX, sizes)):
        if kind == "logscale":
            exps = -300.0 + 600.0 * (np.arange(size) + rng.random(size)) / size
        for j in range(size):
            if kind == "generic":
                p = rng.normal(scale=1.5, size=3)
            elif kind == "tube":
                p = _tube_point(rng)
            elif kind == "stratum":
                p = _stratum_point(rng)
            else:
                p = _unit(rng) * 10.0 ** exps[j]
            pts.append(group[rng.integers(len(group))] @ p)
            kinds.append(k)
    return np.array(pts), np.array(kinds)


def check_subsample(kinds: np.ndarray, step: int) -> np.ndarray:
    """Every `step`-th point of each kind, so the mix is fixed."""
    return np.concatenate([np.flatnonzero(kinds == k)[::step]
                           for k in range(len(MIX))])


def rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def sym3_matrices(seed: int, bases: int, conjugates: int) -> list[np.ndarray]:
    """Each base as its six coordinates, then `conjugates` rotated copies of
    it as 3x3 matrices, as in the polar demo's invariance loop."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for _ in range(bases):
        q = rng.normal(size=6)
        a = np.zeros((3, 3))
        for val, (i, j) in zip(q, ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))):
            a[i, j] = a[j, i] = val
        out.append(q)
        for _ in range(conjugates):
            rot = rotation(rng)
            out.append(rot @ a @ rot.T)
    return out


def a3_config(seed: int, count: int) -> str:
    """Config text for `orbitfold verify` on preset a3."""
    return f"[group]\npreset = a3\n\n[sampling]\ncount = {count}\nseed = {seed}\n"
