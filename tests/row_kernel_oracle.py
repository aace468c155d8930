"""The stacked tube kernels as they were before their reductions ran
column by column, frozen for tests.

Here every reduction over a short last axis is numpy's own (max, min,
any, argmax along the axis), and _tube_claims takes its wall values as
one matrix product per row (feet @ normals.T). The kernels in
orbitfold.chamber and orbitfold.smoothing must return the same bytes.
The helpers these four call, which did not change, are imported, except
the smooth step g of the cap blend: its copy here takes each exp through
math.exp, so that a change to the package's g shows. The kernels read no
table of the chain: level_tables builds each level's projectors, penalty,
active-wall masks and lower-face rows from chain.stratification, with the
operations the chain first built them with, so a test can hold the
chain's tables to them.
"""

import math

import numpy as np

from orbitfold.chamber import (
    _NORM_SAFE,
    _SQ_MIN,
    ON_WALL_TOL,
    _fits,
    _null_space_basis,
    _square_sums,
    _stack_product,
)
from orbitfold.smoothing import _reach


def g(t):
    """g(t) = e(t)/(e(t)+e(1-t)), e(t) = exp(-5.5/sqrt(t)), entry by entry:
    0 up to 1e-8 and 1 from 1 - 1e-8 on."""
    def one(x):
        if x <= 1e-8 or x >= 1.0 - 1e-8:
            return float(x > 0.5)
        u = math.exp(-5.5 / math.sqrt(x))
        return u / (u + math.exp(-5.5 / math.sqrt(1.0 - x)))
    return np.array([one(x) for x in t.tolist()])


def level_tables(chain, i):
    """(projectors, penalty, masks, lower rows, their offsets) of level i:
    each face's projector, stacked; inf at each face's active walls and 0
    at the rest; each face's active walls as a bitmask; and the complement
    rows of every lower face, stacked, with the offset of each face's
    first row."""
    strat, dim = chain.stratification, chain.chamber.dimension
    faces = strat.faces_at_level(i)
    penalty = np.zeros((len(faces), len(chain.chamber.simple_normals)))
    for row, face in zip(penalty, faces):
        row[list(face.active)] = np.inf
    projectors = np.concatenate([face.basis @ face.basis.T for face in faces])
    masks = tuple(sum(1 << j for j in face.active) for face in faces)
    blocks = [_null_space_basis(f.basis.T, dim).T for f in strat.faces if f.level < i]
    sizes = [b.shape[0] for b in blocks]
    lower = np.concatenate(blocks) if blocks else np.zeros((0, dim))
    return projectors, penalty, masks, lower, tuple(np.cumsum([0] + sizes[:-1]).tolist())


def unit_scaled_rows(v):
    big = np.abs(v).max(axis=-1)
    fits = _fits(big, v.shape[-1])
    if fits.all():
        sq = _square_sums(v)
        if sq.min(initial=math.inf) >= _SQ_MIN:
            return v, np.zeros(big.shape, dtype=int), sq
    else:
        sq = _square_sums(np.where(fits[..., None], v, 0.0))
    e = np.where(fits & ((sq >= _SQ_MIN) | (big == 0.0)), 0, np.frexp(big)[1])
    w = np.ldexp(v, -e[..., None])
    return w, e, _square_sums(w)


def norms(v, below=math.inf):
    fits = True if below < _NORM_SAFE else _fits(np.abs(v).max(axis=-1), v.shape[-1])
    safe = v if np.all(fits) else np.where(fits[..., None], v, 0.0)
    sq = np.einsum("...j,...j->...", safe, safe)
    out = np.sqrt(sq)
    redo = (sq < _SQ_MIN) | np.logical_not(fits)
    if redo.any():
        out[redo] = np.hypot.reduce(v[redo], axis=-1)
    return out


def radius_rows(chain, i, feet):
    if i == 0:
        return np.full(len(feet), chain.tubes.c0)
    *_, rows, starts = level_tables(chain, i)
    unit, e, _ = unit_scaled_rows(feet)
    y = _stack_product(unit, rows)
    dists = np.sqrt(np.add.reduceat(y * y, starts, axis=1))
    scaled = e != 0
    if scaled.any():
        dists[scaled] = np.ldexp(dists[scaled], e[scaled, None])
    k = chain.tubes.softmin_exponent
    d_min = dists.min(axis=1)
    acc = ((d_min[:, None] / dists) ** k).sum(axis=1)
    raw = chain.tubes.b[i] * (d_min * acc ** (-1.0 / k))
    cap = chain.tubes.c[i]
    ratio = raw / cap
    blend = (ratio > 1.0) & (ratio < 2.0)
    w = g(ratio[blend] - 1.0)
    radius = np.where(ratio <= 1.0, raw, cap)
    radius[blend] = (1.0 - w) * raw[blend] + w * cap
    return radius


def tube_claims(chain, i, points):
    projectors, penalty, masks, _, _ = level_tables(chain, i)
    normals = chain.chamber.simple_normals
    n_faces = len(penalty)
    size = norms(points)
    far = np.abs(points @ normals.T) > _reach(chain, i, size)[:, None]
    far_bits = far @ (1 << np.arange(len(normals)))
    candidate = (far_bits[:, None] & np.array(masks)) == 0
    live = np.flatnonzero(candidate.any(axis=1))
    n_rows, dim = len(live), points.shape[1]
    if not n_rows:
        empty = np.zeros((0, n_faces))
        return live, empty.astype(bool), empty, empty, np.zeros((0, n_faces, dim))
    points, candidate = points[live], candidate[live]
    below = size[live].max()
    feet = _stack_product(points, projectors).reshape(n_rows, n_faces, dim)
    foot_norm = norms(feet, below)
    wall_vals = feet @ normals.T + penalty
    open_face = candidate & (wall_vals.min(axis=2) > ON_WALL_TOL * (1.0 + foot_norm))
    t = norms(points[:, None, :] - feet, below)
    radius = np.zeros((n_rows, n_faces))
    radius[open_face] = radius_rows(chain, i, feet[open_face])
    return live, open_face & (t < radius), t, radius, feet
