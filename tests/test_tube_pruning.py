"""The wall-distance rule that skips tube faces, and the tube maps at the
extremes of the float range.

The oracle, sampler_oracle.tube_hits, walks every face of a level with no
bound, as the tube kernels did before the rule; with the rule the claimed face and every bit
of tube_coords, _apply_F and _apply_F_rows must stay the same. The stacked
oracle is the kernel itself with the bound switched off.
"""

import math
import warnings

import numpy as np
import pytest

from orbitfold import smoothing
from orbitfold.chamber import fold
from orbitfold.groups import essential_split, preset_group
from orbitfold.smoothing import (
    _apply_F,
    _apply_F_rows,
    _apply_H_rows,
    apply_H,
    build_chain,
    eval_h,
    eval_l,
    tube_coords,
    validate_tubes,
)
from sampler_oracle import sample_face_point, tube_hits

PRESETS = ["i2-3", "i2-4", "a2", "b2", "a3", "b3"]


@pytest.fixture(scope="module", params=PRESETS)
def chain(request):
    return build_chain(preset_group(request.param))


def _oracle_apply_F(chain, i, p):
    hits = tube_hits(chain, i, p)
    if not hits or hits[0][2] == 0.0:
        return p.copy()
    _, foot, t, radius = hits[0]
    return foot + (radius * eval_h(t / radius, 0)) * ((p - foot) / t)


def _same_hit(a, b):
    """The same (face, foot, t, radius), bit for bit; the unit normal
    (p - foot)/t follows from p, foot and t."""
    if a is None or b is None:
        return a is None and b is None
    return (a[0] is b[0] and a[1].tobytes() == b[1].tobytes()
            and a[2] == b[2] and a[3] == b[3])


def _points(chain, rng):
    """Generic, tube and on-wall points, and points whose value at an active
    wall of some face lies within 1e-12 relative of b_i*|p| or of 2c_i,
    each also moved by a random group element."""
    group, strat, tubes = chain.group, chain.stratification, chain.tubes
    dim = group.dimension
    normals = chain.chamber.simple_normals
    pts = [rng.normal(size=dim) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(40)]
    for level in range(chain.rank):
        for face in strat.faces_at_level(level):
            # tube points, out to the scales where the cap blend lifts l_i above c_i
            for lo in (0.05, 0.5, 5.0, 30.0):
                x = sample_face_point(chain, face, rng, radius_range=(lo, 2.0 * lo))
                v = rng.normal(size=dim)
                v -= face.basis @ (face.basis.T @ v)
                if np.linalg.norm(v) < 1e-6:
                    continue
                radius = eval_l(chain, level, x)
                for frac in (0.1, 0.6, 0.99, 1.01):
                    pts.append(x + (frac * radius / np.linalg.norm(v)) * v)
                pts.append(x)
            for j in face.active:
                n = normals[j]
                for delta in (-1e-12, 0.0, 1e-12):
                    if level == 0:
                        x = sample_face_point(chain, face, rng)
                        pts.append(x + tubes.c0 * (1.0 + delta) * n)
                        continue
                    # <p, n_j> = b_i*|p|*(1 + delta), with p = x + s*n_j and x _|_ n_j
                    b = tubes.b[level] * (1.0 + delta)
                    x = sample_face_point(chain, face, rng, radius_range=(0.5, 2.0))
                    pts.append(x + (b * np.linalg.norm(x) / math.sqrt(1.0 - b * b)) * n)
                    # <p, n_j> = 2c_i*(1 + delta), far enough out that 2c_i < b_i*|p|
                    x = sample_face_point(chain, face, rng, radius_range=(40.0, 80.0))
                    pts.append(x + 2.0 * tubes.c[level] * (1.0 + delta) * n)
    for mirror in group.mirrors:
        for _ in range(3):
            q = rng.normal(size=dim) * 10.0 ** rng.uniform(-3.0, 3.0)
            pts.append(q - (q @ mirror.normal) * mirror.normal)
    mats = [group.elements[k].matrix for k in rng.integers(group.order, size=len(pts))]
    return np.array(pts + [m @ p for m, p in zip(mats, pts)])


def _unbounded(chain, i, size):
    return np.full(np.shape(size), np.inf)


def test_scalar_tube_maps_equal_the_oracle_bitwise(chain):
    points = _points(chain, np.random.default_rng(23))
    claimed = 0
    for i in range(chain.rank):
        for p in points:
            hits = tube_hits(chain, i, p)
            tc = tube_coords(chain, i, p)
            assert _same_hit(tc, hits[0] if hits else None), (i, p)
            assert _apply_F(chain, i, p).tobytes() == _oracle_apply_F(chain, i, p).tobytes()
            claimed += bool(hits)
    assert claimed > len(points) // 4


def test_stacked_tube_maps_equal_the_oracle_bitwise(chain, monkeypatch):
    points = _points(chain, np.random.default_rng(29))
    pruned = [_apply_F_rows(chain, i, points) for i in range(chain.rank)]
    monkeypatch.setattr(smoothing, "_reach", _unbounded)
    for i in range(chain.rank):
        assert pruned[i].tobytes() == _apply_F_rows(chain, i, points).tobytes()
        # each row's bits do not depend on the rest of the stack
        for k in range(0, len(points), 37):
            assert pruned[i][k].tobytes() == _apply_F_rows(chain, i, points[k:k + 1]).tobytes()


def test_validate_tubes_sees_the_oracle_hits(chain, monkeypatch):
    """validate_tubes meets each level's samples through one _tube_claims
    pass; every sample's claimed faces are the oracle's, with its feet, t
    and radii to 1e-15 relative."""
    seen = []
    claims_of = smoothing._tube_claims

    def recording(chain_, level, points):
        out = claims_of(chain_, level, points)
        seen.append((level, points, out))
        return out

    monkeypatch.setattr(smoothing, "_tube_claims", recording)
    validate_tubes(chain)
    assert [level for level, _, _ in seen] == list(range(1, chain.rank))
    for level, points, (live, claims, t, radius, feet) in seen:
        faces = chain.stratification.faces_at_level(level)
        row_of = dict(zip(live.tolist(), range(len(live))))
        for k, p in enumerate(points):
            expected = tube_hits(chain, level, p)
            r = row_of.get(k)
            held = [] if r is None else np.flatnonzero(claims[r]).tolist()
            assert [faces[f] for f in held] == [face for face, *_ in expected]
            for f, (_, foot, hit_t, hit_radius) in zip(held, expected):
                scale = max(1.0, float(np.max(np.abs(p))))
                assert np.max(np.abs(feet[r, f] - foot)) <= 1e-15 * scale
                assert abs(t[r, f] - hit_t) <= 1e-15 * scale
                assert abs(radius[r, f] - hit_radius) <= 1e-15 * max(1.0, hit_radius)


# ---------------------------------------------------------------------------
# the float range
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [1e-160, 1e-200, 1e-300, 1e-320])
def test_tiny_points_map_to_the_flat_value(chain, s):
    """Near 0 the level-0 tube holds every point and h is flat there, so H
    is the fixed-subspace part of p (0 where the group fixes only 0)."""
    group = chain.group
    rng = np.random.default_rng(31)
    points = rng.normal(size=(8, group.dimension)) * s
    rows = _apply_H_rows(chain, points)
    for p, row in zip(points, rows):
        flat, _ = essential_split(group, p)
        tol = 1e-12 * s + 8 * 5e-324
        for h in (apply_H(chain, p), row):
            assert np.max(np.abs(h - flat)) <= tol
        if group.fixed_subspace.shape[1] == 0:
            assert not np.any(apply_H(chain, p)) and not np.any(row)


def test_huge_points_map_without_warnings(chain):
    group = chain.group
    rng = np.random.default_rng(37)
    units = rng.normal(size=(6, group.dimension))
    units /= np.linalg.norm(units, axis=1)[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e154, 1e160, 1e200, 1e300, 1e308):
            points = units * scale
            rows = _apply_H_rows(chain, points)
            for p, row in zip(points, rows):
                h = apply_H(chain, p)
                image = fold(group, chain.chamber, p).image
                g = group.elements[int(rng.integers(group.order))].matrix
                assert np.all(np.isfinite(h)) and np.all(np.isfinite(row))
                # past c_i/eps every tube is narrower than the float spacing
                assert np.max(np.abs(h - image)) <= 1e-12 * scale
                assert np.max(np.abs(row - h)) <= 1e-12 * scale
                assert np.max(np.abs(apply_H(chain, g @ p) - h)) <= 1e-12 * scale


def test_huge_point_over_a_wall_is_smoothed_by_the_capped_tube():
    """At 1e200 a point 0.5 above the wall x_3 = 0 of b3 lies in that wall's
    tube, whose radius there is the cap c_2 = 1: x_3 goes to h(0.5) = 0.25."""
    chain = build_chain(preset_group("b3"))
    p = np.array([3e200, 2e200, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tc = tube_coords(chain, 2, p)
        h = apply_H(chain, p)
        row = _apply_H_rows(chain, p[None, :])[0]
    assert tc is not None and tc[0].active == (2,) and tc[3] == 1.0
    assert h.tolist() == [3e200, 2e200, 0.25]
    assert row.tolist() == [3e200, 2e200, 0.25]
