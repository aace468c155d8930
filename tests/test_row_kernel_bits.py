"""The stacked fold and tube kernels give the per-point bits at every
scale, in stacks of every size.

The fold must equal the per-point _reflect_into_chamber byte for byte,
and the tube kernels the copies frozen in row_kernel_oracle, from |p|
near 1e-300 to 1e300 and within 1e-12 of a mirror. The claim kernel
works on the (row, face) pairs its reach test keeps, where the frozen one
fills every face of every row it keeps: each pair must carry the frozen
kernel's bytes, and the frozen kernel may claim no other pair. The stacked
smooth step g must equal the scalar _g0 byte for byte, so that the
stacked map, the scalar map and the profile jets evaluate one function.
Stacks of one row are where BLAS rounds a product differently, so every
kernel also runs on stacks of 1, 2 and 3 rows. At level 0 the claim
kernel skips its open-face test, and it gathers rows only when some are
pruned, so level-0 stacks where every row is live, and where none is,
are held to the frozen kernel too.
"""

import numpy as np
import pytest

import row_kernel_oracle as oracle
from orbitfold.chamber import (
    _first_true_columns,
    _fold_rows,
    _norms,
    _reduce_columns,
    _reflect_into_chamber,
    _stack_product,
    _unit_scaled,
    _unit_scaled_rows,
)
from orbitfold.groups import generate_group, preset_group
from orbitfold.smoothing import (
    ARG_DEAD_EPS,
    _g0,
    _g_rows,
    _first_claims,
    _lower_face_distance_rows,
    _radius_rows,
    _tube_claims,
    build_chain,
    eval_l,
)
from sampler_oracle import sample_face_point

PRESETS = ["i2-3", "i2-4", "a2", "b2", "a3", "b3"]
AXIS_GROUPS = {"A1^9": 9, "A1^10": 10}     # normals: the coordinate axes


@pytest.fixture(scope="module", params=PRESETS)
def chain(request):
    return build_chain(preset_group(request.param))


def _wide_points(chain, rng, count):
    """count points at |p| log-uniform from 1e-300 to 1e300, every other
    one moved onto a random mirror and then off it by at most 1e-12*|p|."""
    mirrors = chain.group.mirror_normals
    dim = chain.group.dimension
    points = rng.normal(size=(count, dim))
    points /= np.linalg.norm(points, axis=1)[:, None]
    near = np.arange(count) % 2 == 1
    normal = mirrors[rng.integers(len(mirrors), size=count)]
    onto = points - np.sum(points * normal, axis=1)[:, None] * normal
    onto += rng.uniform(-1e-12, 1e-12, size=(count, 1)) * normal
    points[near] = onto[near]
    return points * 10.0 ** rng.uniform(-300.0, 300.0, size=(count, 1))


def _tube_points(chain, rng):
    """Points inside the tubes of every face at |p| from 1e-3 to 1e3."""
    strat, dim = chain.stratification, chain.group.dimension
    points = []
    for level in range(chain.rank):
        for face in strat.faces_at_level(level):
            for _ in range(8):
                scale = 10.0 ** rng.uniform(-3.0, 3.0)
                x = sample_face_point(chain, face, rng, radius_range=(scale, 2.0 * scale))
                v = rng.normal(size=dim)
                v -= face.basis @ (face.basis.T @ v)
                if np.linalg.norm(v) < 1e-6:
                    continue
                radius = eval_l(chain, level, x)
                points.append(x + (rng.uniform(0.05, 0.95) * radius / np.linalg.norm(v)) * v)
    return np.array(points)


def _chamber_points(chain, rng, count=1500):
    """count closed-chamber points: tube points, then fold images of
    _wide_points."""
    tube = _tube_points(chain, rng)
    wide = _wide_points(chain, rng, count - len(tube))
    images = [_reflect_into_chamber(chain.chamber, p)[0] for p in wide]
    return np.concatenate([tube, np.array(images)])


def _stacks(points, rng):
    """Stacks of 0, 1, 2 and 3 rows drawn from points, and points whole."""
    picks = rng.choice(len(points), size=60)
    out = [points[:0], points]
    out += [points[[k]] for k in picks[:30]]
    out += [points[picks[k:k + 2]] for k in range(30, 50, 2)]
    out += [points[picks[k:k + 3]] for k in range(50, 59, 3)]
    return out


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("chunk", [1, 2, 3, 1024])
def test_fold_rows_equals_point_fold_at_every_scale(chain, chunk):
    rng = np.random.default_rng(41)
    points = _wide_points(chain, rng, 1200)
    want = np.array([_reflect_into_chamber(chain.chamber, p)[0] for p in points])
    got = np.concatenate([_fold_rows(chain.chamber, points[start:start + chunk])
                          for start in range(0, len(points), chunk)])
    assert got.tobytes() == want.tobytes()


def test_level_tables_are_the_frozen_tables(chain):
    """Each level's record holds the tables the frozen kernels build for
    themselves, byte for byte, and its 0/1 active matrix marks the
    penalty's inf entries, transposed."""
    for i, level in enumerate(chain._levels):
        projectors, penalty, masks, lower, starts = oracle.level_tables(chain, i)
        assert level.faces == chain.stratification.faces_at_level(i) and level.masks == masks
        _assert_same_bytes([level.projectors, level.penalty, level.active],
                           [projectors, penalty, (penalty == np.inf).T.astype(float)])
        if i:
            _assert_same_bytes([level.lower], [lower])
            assert level.starts == starts


def _assert_pairs_equal_frozen_kernel(chain, level, stack):
    """Each (row, face) pair _tube_claims returns has the frozen kernel's
    foot, t, radius and claim, byte for byte; the pairs come in row-major
    order, each once; and the frozen kernel claims no pair outside them."""
    rows, faces, claims, t, radius, feet = _tube_claims(chain, level, stack)
    live, want_claims, want_t, want_radius, want_feet = oracle.tube_claims(chain, level, stack)
    at = np.searchsorted(live, rows)
    assert np.array_equal(live[at], rows)
    assert np.all(np.diff(rows * want_claims.shape[1] + faces) > 0)
    _assert_same_bytes((claims, t, radius, feet),
                       tuple(a[at, faces] for a in (want_claims, want_t, want_radius, want_feet)))
    outside = want_claims.copy()
    outside[at, faces] = False
    assert not outside.any()


def test_tube_claims_and_radii_equal_frozen_kernels(chain):
    rng = np.random.default_rng(43)
    points = _chamber_points(chain, rng)
    assert len(points) == 1500
    for level in range(chain.rank):
        for stack in _stacks(points, rng):
            _assert_pairs_equal_frozen_kernel(chain, level, stack)
        _, _, _, radius, feet = oracle.tube_claims(chain, level, points)
        feet = feet[radius > 0.0]
        assert len(feet) > 1
        for stack in _stacks(feet, rng):
            assert (_radius_rows(chain, level, stack).tobytes()
                    == oracle.radius_rows(chain, level, stack).tobytes())


def _first_claims_of_oracle(chain, level, stack):
    """_first_claims from the frozen claims: each claimed row's first face."""
    live, claims, t, radius, feet = oracle.tube_claims(chain, level, stack)
    rows = np.flatnonzero(claims.any(axis=1))
    face = claims.argmax(axis=1)[rows]
    return live[rows], face, t[rows, face], radius[rows, face], feet[rows, face]


def test_first_claims_equal_frozen_kernels(chain):
    rng = np.random.default_rng(53)
    points = _chamber_points(chain, rng)
    for level in range(chain.rank):
        for stack in _stacks(points, rng):
            _assert_same_bytes(_first_claims(chain, level, stack),
                               _first_claims_of_oracle(chain, level, stack))


def _level_zero_stacks(chain, rng, live):
    """Stacks of 1, 2, 3 and 40 rows that the level-0 tube prunes not at
    all (live) or wholly: a fixed part of any size plus an essential part
    at most c0/2 long, so every wall value lies inside _reach, and for
    none live a push of 2 to 10 c0 along a simple normal, which puts that
    wall's value beyond it."""
    dim, c0 = chain.group.dimension, chain.tubes.c0
    normals, fixed = chain.chamber.simple_normals, chain.group.fixed_subspace
    out = []
    for count in (1, 2, 3, 40):
        points = rng.normal(scale=10.0, size=(count, fixed.shape[1])) @ fixed.T
        essential = rng.normal(size=(count, dim))
        essential -= (essential @ fixed) @ fixed.T
        essential *= (rng.uniform(0.0, 0.5 * c0, size=(count, 1))
                      / np.linalg.norm(essential, axis=1)[:, None])
        if not live:
            wall = normals[rng.integers(len(normals), size=count)]
            essential += rng.uniform(2.0, 10.0, size=(count, 1)) * c0 * wall
        out.append(points + essential)
    return out


@pytest.mark.parametrize("live", [True, False])
def test_level_zero_claims_where_every_row_or_none_is_live(chain, live):
    """At level 0 the kernel skips the open-face test, and it gathers rows
    only when some row is not live: both branches against the frozen one."""
    rng = np.random.default_rng(59)
    for stack in _level_zero_stacks(chain, rng, live):
        want = oracle.tube_claims(chain, 0, stack)
        assert len(want[0]) == (len(stack) if live else 0)
        _assert_pairs_equal_frozen_kernel(chain, 0, stack)
        _assert_same_bytes(_first_claims(chain, 0, stack),
                           _first_claims_of_oracle(chain, 0, stack))
        if live:
            assert want[1].all()        # every row is in the level-0 tube


def test_norms_and_unit_scaling_equal_frozen_kernels(chain):
    rng = np.random.default_rng(47)
    points = _chamber_points(chain, rng)
    extreme = np.array([[1e300] * points.shape[1], [-1e-300] * points.shape[1],
                        [5e-324] + [0.0] * (points.shape[1] - 1), [0.0] * points.shape[1]])
    stacks = _stacks(np.concatenate([points, extreme]), rng) + [extreme]
    for stack in stacks + [np.stack([stack, 2.0 * stack], axis=1) for stack in stacks]:
        _assert_same_bytes(_unit_scaled_rows(stack), oracle.unit_scaled_rows(stack))
        _assert_same_bytes([_norms(stack)], [oracle.norms(stack)])
        below = 0.5 * 2.0 ** 510
        small = stack[np.max(np.abs(stack), axis=-1) < 1e150]
        _assert_same_bytes([_norms(small, below)], [oracle.norms(small, below)])


@pytest.mark.parametrize("shape", [(0, 3), (5, 1), (7, 3), (3, 5, 6)])
def test_reduce_columns_equals_numpy_reduce(shape):
    rng = np.random.default_rng(53)
    values = rng.normal(size=shape)
    values.reshape(-1)[::7] = np.nan
    for op in (np.minimum, np.maximum):
        assert _reduce_columns(op, values).tobytes() == op.reduce(values, axis=-1).tobytes()
    mask = rng.random(size=shape) < 0.3
    assert _reduce_columns(np.logical_or, mask).tobytes() == mask.any(axis=-1).tobytes()


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (6, 3), (4, 5, 7)])
def test_first_true_columns_equals_argmax(shape):
    rng = np.random.default_rng(59)
    for share in (0.0, 0.2, 0.6, 1.0):
        mask = rng.random(size=shape) < share
        hit, first = _first_true_columns(mask)
        assert hit.tobytes() == mask.any(axis=-1).tobytes()
        assert np.array_equal(first, mask.argmax(axis=-1))
        # a row with no True gives column 0, as argmax does
        assert not first[~hit].any()


def test_stacked_g_equals_scalar_g():
    # g through np.exp rounds differently from _g0 at 4,246 of these t
    below, above = np.nextafter(ARG_DEAD_EPS, 0.0), np.nextafter(ARG_DEAD_EPS, 1.0)
    top = 1.0 - ARG_DEAD_EPS
    edges = [0.0, -0.0, 5e-324, below, ARG_DEAD_EPS, above,
             np.nextafter(top, 0.0), top, np.nextafter(top, 2.0), 0.5, 1.0, 2.0]
    t = np.concatenate([np.random.default_rng(0).random(100_000), edges])
    want = np.array([_g0(x) for x in t.tolist()])
    assert _g_rows(t).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", PRESETS + list(AXIS_GROUPS))
def test_lower_face_sums_are_one_body(name):
    """The per-point lower_face_distances and the stacked
    _lower_face_distance_rows sum each face's squares in one order: wherever
    a row's products round alike on both paths (one gemv per point, one
    product over the stack), its distances agree byte for byte, from |p|
    near 1e-300 to 1e300. On the axis groups the products are exact, so
    every row agrees; their origin face has 9 and 10 squares, past the 8
    that np.add.reduceat sums in this order."""
    if name in AXIS_GROUPS:
        group = generate_group(np.eye(AXIS_GROUPS[name]))
    else:
        group = preset_group(name)
    chain = build_chain(group)
    points = _wide_points(chain, np.random.default_rng(53), 300)
    unit, _, _ = _unit_scaled_rows(points)
    for level in range(1, chain.rank):
        rows = chain._levels[level].lower
        stacked = _lower_face_distance_rows(chain, level, points)
        products = _stack_product(unit, rows)
        agree = 0
        for x, product, want in zip(points, products, stacked):
            if (rows @ _unit_scaled(x)[0]).tobytes() != product.tobytes():
                continue
            agree += 1
            got = np.array(chain.lower_face_distances(level, x))
            assert got.tobytes() == want.tobytes()
        # on a3 and b3 the products of 44 to 87 rows of each level round alike
        assert agree == len(points) if name in AXIS_GROUPS else agree >= len(points) // 10
