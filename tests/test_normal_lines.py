"""Each tube map F_i along the normal lines of its faces.

At a foot x in an open level-i face, with n a unit normal to the face and
l = l_i(x), the paper's radial reparametrization sends x + u*l*n to
x + l*h(u)*n for u < 1 and is the identity from u = 1 on. Here h comes
from the profile jets (_h_derivatives at order 0), which check_profile
certifies, so this holds the map itself to h rather than to a second
implementation of the map: a mistake made in both the stacked
_apply_F_rows and the per-point _apply_F shows here.

Feet are drawn with verify's face sampler (|x| in [1, 2]), two normals
per foot, at heights u from 0.05 to 1.1. A row is kept when the tube of
x's own face claims it (the first claim of _first_claims) or when no
tube does; a row that an earlier face's tube takes is not on x's normal
line as F_i sees it. Both maps must agree with the formula to
16*eps*(|x|_inf + l).

Two controls must fail by value, about 0.04*l: h - 0.05*u for u > 0.75
in the stacked smooth step (smoothing._h_rows), which the per-point map
does not read, and g - 0.05 on 0.75 < u < 1 in the scalar one
(smoothing._g0), which the stacked map does not read. verify runs only
the stacked map, so no verify check sees the second.
"""

import numpy as np
import pytest

from orbitfold import smoothing
from orbitfold.chamber import _orthogonal_directions
from orbitfold.groups import preset_group
from orbitfold.smoothing import (
    _apply_F,
    _apply_F_rows,
    _first_claims,
    _h_derivatives,
    _radius_at,
    build_chain,
)
from orbitfold.verify import _face_samples

HEIGHTS = np.array([0.05, 0.2, 0.5, 0.7, 0.8, 0.9, 0.97, 1.0, 1.1])
FEET_PER_LEVEL = 40
EPS = np.finfo(float).eps


def _normal_lines(chain, i, rng):
    """(points, expected, radius) of the kept rows of level i."""
    faces = chain.stratification.faces_at_level(i)
    drawn, xs = _face_samples(chain, faces, FEET_PER_LEVEL, rng, (1.0, 2.0))
    rows = []           # (x, n, l, face index) per row
    for face, x in zip(drawn, xs):
        radius = _radius_at(chain, face, x)
        for n in _orthogonal_directions(face.basis, rng, 2):
            rows += [(x, n, radius, faces.index(face))] * len(HEIGHTS)
    x, n, radius, own = (np.array(col) for col in zip(*rows))
    u = np.tile(HEIGHTS, len(rows) // len(HEIGHTS))
    points = x + (u * radius)[:, None] * n
    claimed, claim_faces, *_ = _first_claims(chain, i, points)
    keep = np.ones(len(points), dtype=bool)
    keep[claimed] = claim_faces == own[claimed]
    # h is u itself from u = 1 on, so there the expected image is the point
    expected = x + (radius * _h_derivatives(u, 0)[0])[:, None] * n
    return points[keep], expected[keep], x[keep], radius[keep]


def _errors(chain, seed=0):
    """{"stacked": e, "scalar": e}: each map's worst error over every
    level's kept rows as (error/tolerance, error/l), and the rows kept."""
    rng = np.random.default_rng(seed)
    worst = {"stacked": (0.0, 0.0), "scalar": (0.0, 0.0)}
    kept = 0
    for i in range(chain.rank):
        points, expected, x, radius = _normal_lines(chain, i, rng)
        tol = 16 * EPS * (np.abs(x).max(axis=1) + radius)
        images = {"stacked": _apply_F_rows(chain, i, points),
                  "scalar": np.array([_apply_F(chain, i, p) for p in points])}
        for name, image in images.items():
            err = np.abs(image - expected).max(axis=1)
            worst[name] = tuple(max(a, float(b.max()))
                                for a, b in zip(worst[name], (err / tol, err / radius)))
        kept += len(points)
    return worst, kept


@pytest.mark.parametrize("preset", ["i2-5", "a2", "b2", "a3", "b3"])
def test_tube_maps_follow_h_along_normal_lines(preset):
    chain = build_chain(preset_group(preset))
    worst, kept = _errors(chain)
    # most rows stay: 18 per foot, 40 feet per level
    assert kept >= 0.75 * 18 * FEET_PER_LEVEL * chain.rank
    assert worst["stacked"][0] <= 1.0 and worst["scalar"][0] <= 1.0, worst


def _h_rows_dipped(u):
    """h - 0.05*u for u > 0.75."""
    return u * smoothing._g_rows(u) - np.where(u > 0.75, 0.05 * u, 0.0)


def _g0_dipped(g0):
    """g - 0.05 on 0.75 < t < 1."""
    return lambda t: g0(t) - (0.05 if 0.75 < t < 1.0 else 0.0)


@pytest.mark.parametrize("preset", ["i2-5", "a3", "b3"])
@pytest.mark.parametrize("name,broken,mutation", [
    ("_h_rows", "stacked", lambda: _h_rows_dipped),
    ("_g0", "scalar", lambda: _g0_dipped(smoothing._g0)),
])
def test_a_dipped_smooth_step_fails_its_map(monkeypatch, preset, name, broken, mutation):
    chain = build_chain(preset_group(preset))
    worst, _ = _errors(chain)
    assert worst["stacked"][0] <= 1.0 and worst["scalar"][0] <= 1.0
    monkeypatch.setattr(smoothing, name, mutation())
    worst, _ = _errors(chain)
    other = "scalar" if broken == "stacked" else "stacked"
    # the dip moves the image by 0.05*u*l at u in (0.75, 1)
    assert worst[broken][0] > 1.0 and worst[broken][1] > 0.03, worst
    assert worst[other][0] <= 1.0, worst
