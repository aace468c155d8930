"""The wall-distance rules that skip tube faces, and the tube maps at the
extremes of the float range.

The oracle, sampler_oracle.tube_hits, walks every face of a level with no
bound, as the tube kernels did before the rules; with the rules the claimed
face and every bit of tube_coords, _apply_F and _apply_F_rows must stay the
same. Both rules, the far-wall mask and the per-point bound of each face's
rows, take their bound from smoothing._reach, so patching it switches both
off. The stacked oracle is the kernel itself with the bound switched off.
"""

import math
import warnings

import numpy as np
import pytest

from orbitfold import smoothing, verify
from orbitfold.chamber import _NORM_SAFE, fold
from orbitfold.groups import essential_split, generate_group, preset_group
from orbitfold.smoothing import (
    TubeSpec,
    _apply_F,
    _apply_F_rows,
    _apply_H_rows,
    apply_H,
    build_chain,
    eval_h,
    eval_l,
    tube_coords,
)
from normals_groups import NORMALS as GIVEN
from sampler_oracle import sample_face_point, tube_hits

PRESETS = ["i2-3", "i2-4", "a2", "b2", "a3", "b3"]

# groups given by [group] normals: H3 and B4, and the order-6 group with a
# fixed line of the CLI snapshot
NORMALS = {"H3": GIVEN["H3"], "B4": GIVEN["B4"], "skew": [(1, 1, 0), (0, 1, -1), (1, 0, 1)]}


def _build(name):
    if name in NORMALS:
        return build_chain(generate_group([np.array(n, dtype=float) for n in NORMALS[name]]))
    return build_chain(preset_group(name))


@pytest.fixture(scope="module", params=PRESETS)
def chain(request):
    return build_chain(preset_group(request.param))


@pytest.fixture(scope="module", params=PRESETS + list(NORMALS))
def any_chain(request):
    return _build(request.param)


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
    each also moved by a random group element. The generic points run
    from |p| ~ 1e-150 to 1e150, where the oracle's plain square sums
    neither overflow nor underflow."""
    group, strat, tubes = chain.group, chain.stratification, chain.tubes
    dim = group.dimension
    normals = chain.chamber.simple_normals
    pts = [rng.normal(size=dim) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(40)]
    pts += [rng.normal(size=dim) * 10.0 ** rng.uniform(-150.0, 150.0) for _ in range(20)]
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
                # on the tube's edge too: at rank 2 its radius is the rows' bound
                for frac in (0.1, 0.6, 0.99, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.01):
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


def _unbounded(chain, i, size, nearest=None):
    return np.full(np.shape(size), np.inf)


def test_scalar_tube_maps_equal_the_oracle_bitwise(any_chain):
    chain = any_chain
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


def _ruled_out(chain, i, p):
    """The level-i faces that the bound of their rows skips at p: those the
    far-wall mask keeps, with an active wall value beyond _reach's bound
    for the least of their rows."""
    size, values = smoothing._point_walls(chain, p)
    reach = smoothing._reach(chain, i, size)
    out = []
    level = chain._levels[i]
    for face, rows in zip(level.faces, level.rows):
        height = max(abs(values[j]) for j in face.active)
        if height > reach or not rows or size >= _NORM_SAFE:
            continue
        nearest = min(sum(c * w for c, w in zip(row, values)) for row in rows)
        if height > smoothing._reach(chain, i, size, nearest):
            out.append(face)
    return out


def test_ruled_out_faces_fail_the_full_claim_test(any_chain):
    """Each face the rows' bound rules out fails the oracle's claim test
    (projection, open-face test and t < radius), and the bound rules out
    faces on every group, so the test is not passed vacuously."""
    chain = any_chain
    points = _points(chain, np.random.default_rng(43))
    ruled = 0
    for i in range(1, chain.rank):
        for p in points:
            out = _ruled_out(chain, i, p)
            if out:
                held = [face for face, *_ in tube_hits(chain, i, p)]
                assert not any(face in held for face in out), (i, p)
                ruled += len(out)
    assert ruled > 0


def test_face_rows_give_the_distance_to_each_lower_face(any_chain):
    """Row k of a face, against the wall values of a point of the face's
    open face, is b_i times its distance to the span of the face with k
    made active, which lower_face_distances measures."""
    chain = any_chain
    strat, normals = chain.stratification, chain.chamber.simple_normals
    rng = np.random.default_rng(47)
    for i in range(1, chain.rank):
        lower = [f.active for f in strat.faces if f.level < i]     # lower_face_distances order
        for face, rows in zip(strat.faces_at_level(i), chain._levels[i].rows):
            assert len(rows) == len(face.inactive)
            x = sample_face_point(chain, face, rng)
            dists = chain.lower_face_distances(i, x)
            values = (normals @ x).tolist()
            for k, row in zip(face.inactive, rows):
                want = dists[lower.index(tuple(sorted(face.active + (k,))))]
                got = sum(c * w for c, w in zip(row, values))
                assert got == pytest.approx(chain.tubes.b[i] * want, rel=1e-12, abs=1e-15)


def test_steep_slopes_keep_no_rows():
    """A slope far past the tubes' bound, which a config may set, makes rows
    whose rounding could pass the margin: they are not kept, and the claims
    stay the oracle's."""
    chain = build_chain(preset_group("a3"), TubeSpec(b={1: 1e5, 2: 0.1}, c={1: 1.0, 2: 1.0}))
    assert chain._levels[1].rows == ((),) * 3
    assert all(chain._levels[2].rows)
    rng = np.random.default_rng(59)
    for p in rng.normal(size=(300, 4)) * 10.0 ** rng.uniform(-2.0, 2.0, size=(300, 1)):
        for i in range(chain.rank):
            hits = tube_hits(chain, i, p)
            assert _same_hit(tube_coords(chain, i, p), hits[0] if hits else None), (i, p)


@pytest.mark.parametrize("widen", [1.0, 8.0])
@pytest.mark.parametrize("preset", ["b2", "a3"])
def test_claims_with_widened_radii_and_no_bounds_match_the_oracle(monkeypatch, preset, widen):
    """The scalar counterpart of the stacked first-offending-point test:
    with every radius widened and _reach switched off (the far-wall mask and
    the rows' bound both take their bound from it), tube_coords claims the
    oracle's face at every point. With the bounds on, widened radii break
    what they assume, and some claims differ."""
    chain = build_chain(preset_group(preset))
    points = _points(chain, np.random.default_rng(53))
    radius = smoothing._radius_at
    monkeypatch.setattr(smoothing, "_radius_at", lambda *args: widen * radius(*args))
    bounded = [tube_coords(chain, i, p) for i in range(chain.rank) for p in points]
    monkeypatch.setattr(smoothing, "_reach", _unbounded)
    differ = 0
    for k, (i, p) in enumerate((i, p) for i in range(chain.rank) for p in points):
        hits = tube_hits(chain, i, p)
        tc = tube_coords(chain, i, p)
        assert _same_hit(tc, hits[0] if hits else None), (i, p)
        differ += not _same_hit(bounded[k], tc)
    assert (differ > 0) == (widen > 1.0)


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

    monkeypatch.setattr(verify, "_tube_claims", recording)
    verify.validate_tubes(chain)
    assert [level for level, _, _ in seen] == list(range(1, chain.rank))
    for level, points, (rows, pair_faces, claims, t, radius, feet) in seen:
        faces = chain.stratification.faces_at_level(level)
        for k, p in enumerate(points):
            expected = tube_hits(chain, level, p)
            held = np.flatnonzero(claims & (rows == k))     # pairs, in face order
            assert [faces[f] for f in pair_faces[held]] == [face for face, *_ in expected]
            for pair, (_, foot, hit_t, hit_radius) in zip(held, expected):
                scale = max(1.0, float(np.max(np.abs(p))))
                assert np.max(np.abs(feet[pair] - foot)) <= 1e-15 * scale
                assert abs(t[pair] - hit_t) <= 1e-15 * scale
                assert abs(radius[pair] - hit_radius) <= 1e-15 * max(1.0, hit_radius)


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
