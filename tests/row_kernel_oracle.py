"""The stacked tube kernels as they were before their reductions ran
column by column, frozen for tests.

Here every reduction over a short last axis is numpy's own (max, min,
any, argmax along the axis), and _tube_claims takes its wall values as
one matrix product per row (feet @ normals.T). The kernels in
orbitfold.chamber and orbitfold.smoothing must return the same bytes.
The helpers these four call, which did not change, are imported, except
the smooth step g of the cap blend: its copy here takes each exp through
math.exp, so that a change to the package's g shows.
"""

import math

import numpy as np

from orbitfold.chamber import (
    _NORM_SAFE,
    _SQ_MIN,
    ON_WALL_TOL,
    _fits,
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
    rows, starts = chain._lower_rows[i]
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
    projectors, penalty = chain._face_rows[i]
    normals = chain.chamber.simple_normals
    n_faces = len(penalty)
    size = norms(points)
    far = np.abs(points @ normals.T) > _reach(chain, i, size)[:, None]
    far_bits = far @ (1 << np.arange(len(normals)))
    candidate = (far_bits[:, None] & np.array(chain._face_masks[i])) == 0
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
