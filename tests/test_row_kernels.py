"""Stacked (N, n) kernels against the per-point entries they stand in for,
the FD harness on whole stacks and on one row at a time, and the fold at
extreme scales.

The per-point maps (fold, _apply_F, apply_G, apply_H) are the reference:
the fold kernel must match them bit for bit, the tube kernels to
1e-15 * max(1, |p|_inf), and an FD helper must give the same bits whether
the stacked kernel gets the whole stack or one row per call. The stacked
stencil builders, the curve probe and the profile's flatness derivatives
must give the bits of the per-point harness frozen in stencil_oracle.
"""

import dataclasses
import math

import numpy as np
import pytest

import stencil_oracle as oracle
from orbitfold.calculus import (
    DEFAULT_OFFSETS,
    ROW_CAP,
    STEP_FRACTION,
    _RoundingFloorError,
    _axis_stencils,
    _evaluate,
    _probe_reports,
    _run_stencils,
    _shared_line_stencils,
    _wall_reports,
    curve_jump_probe,
    origin_line_probe,
)
from orbitfold.chamber import _fold_rows, _reflect_into_chamber, fold
from orbitfold.groups import preset_group
from orbitfold.polar import eigen_crossing_curve, model_H, sym_eig_model
from orbitfold.smoothing import (
    _apply_F,
    _apply_F_rows,
    _apply_G_rows,
    _apply_H_rows,
    _apply_partial_rows,
    apply_G,
    apply_H,
    build_chain,
    eval_h,
    eval_l,
)
from orbitfold.verify import _flat_derivatives
from sampler_oracle import sample_face_point

PRESETS = ["i2-3", "i2-4", "a2", "b2", "a3", "b3"]
AGREEMENT = 1e-15


@pytest.fixture(scope="module", params=PRESETS)
def chain(request):
    return build_chain(preset_group(request.param))


def _test_points(chain, rng):
    """Generic points, points inside every tube and points on a mirror,
    at |p| from 1e-3 to 1e3, each also moved by a random group element."""
    group, strat = chain.group, chain.stratification
    dim = group.dimension
    pts = [rng.normal(size=dim) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(60)]
    for level in range(chain.rank):
        for face in strat.faces_at_level(level):
            for _ in range(6):
                scale = 10.0 ** rng.uniform(-3.0, 3.0)
                x = sample_face_point(chain, face, rng, radius_range=(scale, 2.0 * scale))
                v = rng.normal(size=dim)
                v -= face.basis @ (face.basis.T @ v)
                if np.linalg.norm(v) < 1e-6:
                    continue
                radius = eval_l(chain, level, x)
                pts.append(x + (rng.uniform(0.05, 0.95) * radius / np.linalg.norm(v)) * v)
    for mirror in group.mirrors:
        for _ in range(3):
            q = rng.normal(size=dim) * 10.0 ** rng.uniform(-3.0, 3.0)
            pts.append(q - (q @ mirror.normal) * mirror.normal)
    mats = [group.elements[k].matrix for k in rng.integers(group.order, size=len(pts))]
    return np.array(pts + [m @ p for m, p in zip(mats, pts)])


def _assert_agrees(rows, ref, points):
    err = np.max(np.abs(rows - ref), axis=1) / np.maximum(1.0, np.max(np.abs(points), axis=1))
    assert err.max() <= AGREEMENT, f"worst {err.max():.3g} at {points[err.argmax()]}"


def test_row_kernels_agree_with_point_entries(chain):
    rng = np.random.default_rng(19)
    points = _test_points(chain, rng)
    images = _fold_rows(chain.chamber, points)
    ref = np.array([_reflect_into_chamber(chain.chamber, p)[0] for p in points])
    assert images.tobytes() == ref.tobytes()

    _assert_agrees(_apply_H_rows(chain, points),
                   np.array([apply_H(chain, p) for p in points]), points)
    _assert_agrees(_apply_G_rows(chain, images),
                   np.array([apply_G(chain, q) for q in images]), images)
    claimed = 0
    for level in range(chain.rank):
        mapped = _apply_F_rows(chain, level, images)
        _assert_agrees(mapped, np.array([_apply_F(chain, level, q) for q in images]), images)
        claimed += int(np.any(mapped != images, axis=1).sum())
    assert claimed > 0


def test_apply_G_rows_rejects_outside_points():
    chain = build_chain(preset_group("b2"))
    with pytest.raises(ValueError, match="chamber"):
        _apply_G_rows(chain, np.array([[2.0, 1.0], [-1.0, 0.5]]))


def test_fold_rows_step_cap_matches_point_fold():
    group = preset_group("b2")
    chain = build_chain(group)
    p = np.array([-1.0, 2.0])
    chamber = dataclasses.replace(chain.chamber, fold_steps=1)
    for call in (lambda: _reflect_into_chamber(chamber, p),
                 lambda: _fold_rows(chamber, p[None, :])):
        with pytest.raises(RuntimeError, match="did not terminate"):
            call()


# ---------------------------------------------------------------------------
# the FD harness: the whole stack or one row per call, same bits
# ---------------------------------------------------------------------------

def _counted(fn, calls):
    """fn, recording the number of rows of each call."""
    def rows(points):
        calls.append(len(points))
        return fn(points)
    return rows


def _row_by_row(chain, kernel=_apply_H_rows):
    """A stacked kernel (apply_H's unless given), given one row per call."""
    return oracle.per_point(lambda p: kernel(chain, p[None, :])[0])


@pytest.mark.parametrize("preset", ["b2", "a3"])
def test_fd_helpers_agree_bitwise_across_paths(preset):
    # A row's value must not depend on the stack it is evaluated in, so
    # the stencils give the same bits whichever rows share the call.
    chain = build_chain(preset_group(preset))
    one_row = _row_by_row(chain)
    rng = np.random.default_rng(5)
    dim = chain.group.dimension
    for _ in range(4):
        p = rng.normal(size=(1, dim))
        v = rng.normal(size=(1, dim))
        v /= np.linalg.norm(v)
        step = [10.0 ** rng.uniform(-4.0, -2.0)]
        stencils = [_axis_stencils(p, step, (1,)), _axis_stencils(p, step, (2,))] + [
            _shared_line_stencils(p, v[:, None], (order,), np.array(step))
            for order in (1, 2, 3)]
        calls = []
        whole = _run_stencils(_counted(lambda rows: _apply_H_rows(chain, rows), calls),
                              stencils)
        # all five stencils share one call; the Hessian's centre point is
        # shared by its diagonal entries
        assert calls == [2 * dim + (1 + 2 * dim + 2 * dim * (dim - 1)) + 2 + 3 + 4]
        for got, want in zip(whole, _run_stencils(one_row, stencils)):
            assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("preset", ["b2", "a3"])
def test_probes_agree_bitwise_across_paths(preset):
    chain = build_chain(preset_group(preset))
    calls = []
    whole = _counted(lambda rows: _apply_H_rows(chain, rows), calls)
    one_row = _row_by_row(chain)
    face = chain.stratification.faces_at_level(chain.rank - 1)[0]
    x = sample_face_point(chain, face, np.random.default_rng(3), radius_range=(1.0, 2.0))
    sample = oracle.wall_sample(chain, x)
    # a wall probe's map takes the fold images
    smooth = lambda rows: _apply_partial_rows(chain, 0, rows)
    a, = _wall_reports(chain, _counted(smooth, calls), [sample], DEFAULT_OFFSETS, (1, 2, 3))
    b, = _wall_reports(chain, _row_by_row(chain, lambda chain, rows: smooth(rows)), [sample],
                       DEFAULT_OFFSETS, (1, 2, 3))
    assert a.jumps == b.jumps and a.control_jumps == b.control_jumps
    assert len(calls) == 1
    for ra, rb in zip(origin_line_probe(chain, whole, count=2, seed=1),
                      origin_line_probe(chain, one_row, count=2, seed=1)):
        assert ra.jumps == rb.jumps
    # both lines share one call
    assert len(calls) == 2


def _square_rounds_apart():
    """A probe offset in (1e-3, 1e-2) whose FD step squares differently in
    numpy (a multiply) and in Python (pow)."""
    deltas = np.random.default_rng(0).uniform(1e-3, 1e-2, size=20000)
    steps = STEP_FRACTION * deltas
    apart = steps ** 2 != np.array([s ** 2 for s in steps.tolist()])
    return float(deltas[np.argmax(apart)]) if apart.any() else None


@pytest.mark.parametrize("preset", PRESETS)
def test_stacked_stencils_match_frozen_per_point_path(preset):
    chain = build_chain(preset_group(preset))
    rng = np.random.default_rng(29)
    dim = chain.group.dimension
    count = 4
    faces = chain.stratification.faces_at_level(chain.rank - 1)
    xs = np.array([sample_face_point(chain, faces[j % len(faces)], rng, (1.0, 2.0))
                   for j in range(count)])
    vs = rng.normal(size=(count, dim))
    vs /= np.linalg.norm(vs, axis=1)[:, None]
    special = _square_rounds_apart()
    assert special is not None
    offsets = [(1e-1, special, 1e-3, 3e-4, 1e-4)] + [
        tuple(sorted(10.0 ** rng.uniform(-4.0, -1.0, size=5), reverse=True))
        for _ in range(count - 1)]
    orders = (1, 2, 3)
    for fn in (lambda rows: _apply_H_rows(chain, rows),
               lambda rows: _fold_rows(chain.chamber, rows)):
        stacked = [r.jumps for r in _probe_reports(fn, xs, vs, offsets, orders)]
        for x, v, offs, jumps in zip(xs, vs, offsets, stacked):
            assert jumps == oracle.two_sided_jumps(fn, x, v, offs, orders)

        steps = [STEP_FRACTION * special] + list(10.0 ** rng.uniform(-5.0, -2.0, count - 1))
        (jac,), (hess,), *lines = _run_stencils(fn, [
            _axis_stencils(xs, steps, (1,)), _axis_stencils(xs, steps, (2,))]
            + [_shared_line_stencils(xs, vs[:, None], (order,), np.array(steps))
               for order in orders])
        for i, (x, v, step) in enumerate(zip(xs, vs, steps)):
            ref = oracle.run_stencils(fn, [
                oracle.jacobian_stencil(x, step), oracle.hessian_stencil(x, step)]
                + [oracle.directional_stencil(x, v, order, step) for order in orders])
            for got, want in zip([jac[i], hess[i]] + [d[i, 0] for d, in lines], ref):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_row_maps_get_at_most_row_cap_rows_per_call():
    chain = build_chain(preset_group("b2"))
    rng = np.random.default_rng(31)
    points = rng.normal(size=(2 * ROW_CAP + 1, 2))
    calls = []

    def rows(stack):
        calls.append(len(stack))
        return _apply_H_rows(chain, stack)

    values = _evaluate(rows, points)
    assert calls == [ROW_CAP, ROW_CAP, 1]
    assert len(calls) == math.ceil(len(points) / ROW_CAP)
    one_by_one = np.concatenate([_apply_H_rows(chain, p[None, :]) for p in points])
    assert values.tobytes() == one_by_one.tobytes()


def test_rounding_floor_is_refused_before_any_evaluation():
    chain = build_chain(preset_group("b2"))
    calls = []
    fn = _counted(lambda rows: _apply_partial_rows(chain, 0, rows), calls)
    sample = oracle.wall_sample(chain, [1.5, 0.0])
    with pytest.raises(_RoundingFloorError):
        _wall_reports(chain, fn, [sample], (1e-20, 1e-21), (1, 2))
    with pytest.raises(_RoundingFloorError):
        curve_jump_probe(lambda s: calls.append(s) or np.array([s]), (1e-15, 1e-16))
    assert calls == []


@pytest.fixture(scope="module")
def sym3():
    model = sym_eig_model()
    return model, build_chain(model.weyl)


@pytest.mark.parametrize("offsets", [DEFAULT_OFFSETS, (0.3, 0.1, 0.03, 0.01, 0.001)])
@pytest.mark.parametrize("orders", [(1,), (1, 2), (1, 2, 3)])
def test_curve_probe_matches_frozen_central_differences(sym3, offsets, orders):
    model, chain = sym3
    for seed in range(4):
        curve = eigen_crossing_curve(seed=seed)
        for fn in (lambda s: model.section_map(curve(s)),
                   lambda s: model_H(model, chain, curve(s))):
            rep = curve_jump_probe(fn, offsets, orders)
            assert rep.jumps == oracle.curve_jumps(fn, offsets, orders)


def test_profile_flatness_derivatives_match_frozen_central_differences():
    want = [float(oracle.central_difference(lambda s: eval_h(1e-3 + s), order, 5e-5))
            for order in (1, 2, 3, 4)]
    got = _flat_derivatives()
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert any(d != 0.0 for d in got)


# ---------------------------------------------------------------------------
# fold at extreme scales
# ---------------------------------------------------------------------------

def _assert_folded(chamber, p, res):
    # relative to |p|, plus a few subnormal spacings for the tiniest points
    tol = 1e-13 * np.max(np.abs(p)) + 1e-322
    assert np.min(chamber.simple_normals @ res.image) >= -tol
    assert np.max(np.abs(res.element.matrix @ p - res.image)) <= tol


def test_fold_far_out_lands_in_chamber_with_right_element():
    group = preset_group("b3")
    chain = build_chain(group)
    rng = np.random.default_rng(13)
    for _ in range(20):
        u = rng.normal(size=3)
        unit = fold(group, chain.chamber, u)
        for scale in (1e160, 1e200, 1e300):
            p = u * scale
            res = fold(group, chain.chamber, p)
            _assert_folded(chain.chamber, p, res)
            assert res.element is unit.element and res.steps == unit.steps
            rows = _fold_rows(chain.chamber, p[None, :])
            assert rows[0].tobytes() == res.image.tobytes()


@pytest.mark.parametrize("s", [1.0, 1e-13, 1e-14, 1e-16, 1e-300, 1e-320])
def test_fold_tiny_points_take_every_step(s):
    group = preset_group("b2")
    chain = build_chain(group)
    p = np.array([-1.0, 2.0]) * s
    res = fold(group, chain.chamber, p)
    assert res.steps == 2
    assert res.element is fold(group, chain.chamber, np.array([-1.0, 2.0])).element
    _assert_folded(chain.chamber, p, res)
    rows = _fold_rows(chain.chamber, p[None, :])
    assert rows[0].tobytes() == res.image.tobytes()
