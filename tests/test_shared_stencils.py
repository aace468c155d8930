"""Stencils of several orders that share their points, the one-jet
profile helper and the stacked fold check, against the separate forms.

A shared stencil evaluates each distinct point once and must give every
order the bits of that order's own stencil: probe orders (1, 2) and
(1, 2, 3), flatness orders 1-3 and the profile's orders 1-4. The row
counts each check feeds its map are pinned. _h_derivatives must give
eval_h's bits at every order, and eval_h the bits of a jet of its own
order, as it computed them before one jet served every order.
"""

import math

import numpy as np
import pytest

from orbitfold import calculus, smoothing, verify
from orbitfold.calculus import (
    DEFAULT_OFFSETS,
    _axis_stencils,
    _probe_reports,
    _run_stencils,
    _shared_line_stencils,
    growth_bound_check,
    origin_line_probe,
)
from orbitfold.chamber import _fold_rows, fold
from orbitfold.groups import preset_group
from orbitfold.smoothing import (
    ARG_DEAD_EPS,
    DERIVATIVE_ORDER_MAX,
    _apply_H_rows,
    _apply_partial_rows,
    _h_derivatives,
    build_chain,
    eval_h,
)
from orbitfold.verify import check_flatness, check_fold, check_profile
from jet_oracle import _jet_div, _jet_e, _jet_e_reflected, _jet_mul
from sampler_oracle import sample_face_point

PRESETS = ["i2-3", "i2-4", "a2", "b2", "a3", "b3"]


@pytest.fixture(scope="module", params=PRESETS)
def chain(request):
    return build_chain(preset_group(request.param))


def _maps(chain):
    return (lambda rows: _apply_H_rows(chain, rows),
            lambda rows: _fold_rows(chain.chamber, rows))


def _counted(fn, calls):
    """fn, recording the number of rows of each call."""
    def rows(points):
        calls.append(len(points))
        return fn(points)
    return rows


def _probe_points(chain, rng, count):
    """count points of the codimension-one faces, unit directions and one
    FD step per point, one of them a step whose square numpy and Python
    round apart."""
    dim = chain.group.dimension
    faces = chain.stratification.faces_at_level(chain.rank - 1)
    xs = np.array([sample_face_point(chain, faces[j % len(faces)], rng, (1.0, 2.0))
                   for j in range(count)])
    vs = rng.normal(size=(count, dim))
    vs /= np.linalg.norm(vs, axis=1)[:, None]
    steps = 10.0 ** rng.uniform(-5.0, -2.0, count)
    steps[0] = _square_rounds_apart()
    return xs, vs, steps


def _square_rounds_apart():
    """An FD step whose square numpy (a multiply) and Python (pow) round
    differently, as about 1e-3 of steps do."""
    steps = 10.0 ** np.random.default_rng(0).uniform(-5.0, -2.0, size=20000)
    apart = np.flatnonzero(steps ** 2 != np.array([s ** 2 for s in steps.tolist()]))
    return float(steps[apart[0]])


def _same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# shared stencils give each order its own stencil's bits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("orders", [(1, 2), (2, 1), (1,), (2,)])
def test_axis_stencils_match_separate_jacobian_and_hessian(chain, orders):
    xs, _, steps = _probe_points(chain, np.random.default_rng(41), 12)
    for fn in _maps(chain):
        shared, = _run_stencils(fn, [_axis_stencils(xs, steps, orders)])
        alone = _run_stencils(fn, [_axis_stencils(xs, steps, (order,)) for order in orders])
        _same_bits(shared, [derivatives for derivatives, in alone])


@pytest.mark.parametrize("orders", [(1, 2), (2, 1), (1,), (2,)])
def test_axis_stencils_of_an_empty_stack_are_empty(chain, orders):
    """An empty (0, n) stack gives empty results shaped like a full stack's."""
    xs, _, steps = _probe_points(chain, np.random.default_rng(41), 2)
    for fn in _maps(chain):
        empty, = _run_stencils(fn, [_axis_stencils(xs[:0], steps[:0], orders)])
        full, = _run_stencils(fn, [_axis_stencils(xs, steps, orders)])
        assert [d.shape for d in empty] == [(0,) + d.shape[1:] for d in full]


def _one_order_each(fn, base, directions, orders, steps):
    """Each order's derivatives from a line stencil of that order alone."""
    alone = _run_stencils(fn, [_shared_line_stencils(base, directions, (order,), steps)
                               for order in orders])
    return [derivatives for derivatives, in alone]


@pytest.mark.parametrize("orders", [(1, 2, 3), (1, 2, 3, 4), (3,), (2, 4)])
def test_shared_line_stencils_match_separate_orders(chain, orders):
    xs, vs, steps = _probe_points(chain, np.random.default_rng(43), 12)
    for directions in (vs[:, None], np.eye(chain.group.dimension)):
        for fn in _maps(chain):
            shared, = _run_stencils(fn, [_shared_line_stencils(xs, directions, orders, steps)])
            _same_bits(shared, _one_order_each(fn, xs, directions, orders, steps))


@pytest.mark.parametrize("orders", [(1, 2), (1, 2, 3), (2, 3)])
def test_two_sided_jumps_match_one_order_at_a_time(chain, orders):
    xs, vs, _ = _probe_points(chain, np.random.default_rng(47), 4)
    offsets = [DEFAULT_OFFSETS, (1e-1, 7e-3, 1e-3, 3e-4, 1e-4)] * 2
    for fn in _maps(chain):
        shared = [r.jumps for r in _probe_reports(fn, xs, vs, offsets, orders)]
        alone = [[r.jumps for r in _probe_reports(fn, xs, vs, offsets, (order,))]
                 for order in orders]
        for i, jumps in enumerate(shared):
            assert list(jumps) == list(orders)
            assert jumps == {order: a[i][order] for order, a in zip(orders, alone)}


def test_profile_orders_share_one_line_stencil():
    rows = lambda points: np.array([[eval_h(t)] for t in points[:, 0].tolist()])
    base, steps = np.array([[1e-3], [0.3], [0.9]]), np.array([5e-5, 1e-3, 7e-3])
    orders = (1, 2, 3, 4)
    shared, = _run_stencils(rows, [_shared_line_stencils(base, np.eye(1), orders, steps)])
    _same_bits(shared, _one_order_each(rows, base, np.eye(1), orders, steps))


# ---------------------------------------------------------------------------
# rows fed to the map
# ---------------------------------------------------------------------------

def _probe_rows(n, orders):
    """Rows one side of a two-sided probe evaluates: the Hessian's points
    (the Jacobian's 2n among them), and 4 more for order 3."""
    rows = 1 + 2 * n + 2 * n * (n - 1) if 2 in orders else 2 * n if 1 in orders else 0
    return rows + (4 if 3 in orders else 0)


@pytest.mark.parametrize("orders", [(1,), (1, 2), (1, 2, 3)])
def test_two_sided_probe_rows(chain, orders):
    xs, vs, _ = _probe_points(chain, np.random.default_rng(53), 3)
    calls = []
    _probe_reports(_counted(_maps(chain)[0], calls), xs, vs, [DEFAULT_OFFSETS] * 3, orders)
    sides = 3 * len(DEFAULT_OFFSETS) * 2
    assert sum(calls) == sides * _probe_rows(chain.group.dimension, orders)


def test_wall_and_origin_probe_rows_on_a3(monkeypatch):
    chain = build_chain(preset_group("a3"))
    calls = []
    origin_line_probe(chain, _counted(lambda rows: _apply_H_rows(chain, rows), calls),
                      count=20, seed=1)
    assert sum(calls) == 20 * 5 * 2 * 33
    smooth_rows, fold_rows = [], []
    monkeypatch.setattr(verify, "_apply_partial_rows", lambda chain, i, rows:
                        smooth_rows.append(len(rows)) or _apply_partial_rows(chain, i, rows))
    monkeypatch.setattr(calculus, "_fold_rows", lambda chamber, rows:
                        fold_rows.append(len(rows)) or _fold_rows(chamber, rows))
    assert len(verify._wall_probes(chain, 20, 1)) == 20
    # one fold, shared by H and the control, and the smoothing of its
    # images: 20 probes * 5 offsets * 2 sides * 33 rows each
    assert sum(smooth_rows) == sum(fold_rows) == 6600


@pytest.mark.parametrize("level", [0, 1])
def test_growth_lines_evaluate_each_base_point_once(chain, level, monkeypatch):
    calls = []
    monkeypatch.setattr(calculus, "_apply_partial_rows", lambda chain, i, rows:
                        calls.append(len(rows)) or _apply_partial_rows(chain, i, rows))
    growth_bound_check(chain, level)
    # per distance: the Jacobian's 2n axis points, then p once and its
    # +-step points along each of the 3 order-2 lines
    assert calls == [len(calculus.DEFAULT_GROWTH_DISTANCES) * (2 * chain.group.dimension + 7)]


@pytest.mark.parametrize("check", ["check_injectivity", "check_wall_preservation",
                                   "check_identity_tail"])
def test_checks_map_every_row_through_evaluate(chain, check, monkeypatch):
    """The checks that map one stack through the composite take it through
    calculus._evaluate, as the stencil checks do: every row the kernels
    see comes through it, and it sees no other row."""
    through, mapped, inside = [], [], []    # mapped: (inside _evaluate?, rows) per call
    evaluate = verify._evaluate

    def counting(fn, points):
        through.append(len(points))
        inside.append(True)
        try:
            return evaluate(fn, points)
        finally:
            inside.pop()

    monkeypatch.setattr(verify, "_evaluate", counting)
    for name in ("_apply_G_rows", "_apply_partial_rows"):
        kernel = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda chain_, *args, kernel=kernel:
                            mapped.append((bool(inside), len(args[-1])))
                            or kernel(chain_, *args))
    getattr(verify, check)(chain, 40, 1)
    assert mapped and all(within for within, _ in mapped)
    assert sum(rows for _, rows in mapped) == sum(through) > 0


def test_flatness_evaluates_five_rows_per_base_point(chain, monkeypatch):
    calls = []
    apply_F_rows = verify._apply_F_rows
    monkeypatch.setattr(verify, "_apply_F_rows",
                        lambda chain, level, rows: calls.append(len(rows))
                        or apply_F_rows(chain, level, rows))
    result = check_flatness(chain, points_per_level=10, seed=1)
    checked = int(result.detail.split()[2])
    assert sum(calls) == 5 * checked
    assert checked > 0 or chain.rank == 1


def test_profile_evaluates_one_jet_per_monotonicity_point(monkeypatch):
    jets, values = [], []
    monkeypatch.setattr(verify, "_h_derivatives", lambda t, order:
                        jets.append((t.copy(), order)) or _h_derivatives(t, order))
    monkeypatch.setattr(smoothing, "eval_h", lambda t, order=0:
                        values.append((t, order)) or eval_h(t, order))
    results = check_profile()
    assert all(r.passed for r in results)
    # one stacked jet per grid: the tail, the flatness stencil's 5 points,
    # h' on (0, 2] and h^(0..4) at each of the 200 monotonicity points
    assert [(len(t), order) for t, order in jets] == [(200, 0), (5, 0), (1000, 1), (200, 4)]
    assert len(set(jets[3][0].tolist())) == 200
    assert (jets[1][0] < 0.01).all()
    # h(1/2) is read from the scalar map's g, not through eval_h
    assert values == [] and not hasattr(verify, "eval_h")


# ---------------------------------------------------------------------------
# one jet for every order of h
# ---------------------------------------------------------------------------

def _jet_of_own_order(t, order):
    """h^(order)(t) from a scalar jet of that order, as eval_h computed it
    before one jet served every order (frozen)."""
    if t <= ARG_DEAD_EPS:
        return 0.0
    if t >= 1.0 - ARG_DEAD_EPS:
        if order == 0:
            return t
        return 1.0 if order == 1 else 0.0
    if order == 0:
        u = math.exp(-5.5 / math.sqrt(t))
        v = math.exp(-5.5 / math.sqrt(1.0 - t))
        return t * (u / (u + v))
    et = _jet_e(t, order)
    er = _jet_e_reflected(t, order)
    den = [x + y for x, y in zip(et, er)]
    g = _jet_div(et, den)
    h = _jet_mul(g, [t, 1.0] + [0.0] * (order - 1))
    return h[order] * math.factorial(order)


def _profile_ts():
    rng = np.random.default_rng(59)
    edge = 1.0 - ARG_DEAD_EPS
    near_edge = [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0),
                 edge - 1e-12, edge + 1e-12, edge - 1e-9]
    return ([0.0, -0.0, 5e-324, 1e-12, ARG_DEAD_EPS, np.nextafter(ARG_DEAD_EPS, 1.0),
             1e-6, 5.4e-5, 5.6e-5]
            + rng.uniform(0.0, 1.0, 400).tolist()
            + np.linspace(0.2 / 200, 0.2, 200).tolist()
            + near_edge
            + [1.0, np.nextafter(1.0, 2.0), 1.5, 3.0, 1e300]
            + rng.uniform(1.0, 2.0, 20).tolist())


def test_jet_helper_gives_eval_h_bits_at_every_order():
    for t in _profile_ts():
        t = float(t)
        for top in range(DERIVATIVE_ORDER_MAX + 1):
            jet = _h_derivatives(np.array([t]), top)[:, 0]
            want = [eval_h(t, order) for order in range(top + 1)]
            assert np.array(jet).tobytes() == np.array(want).tobytes(), (t, top)


def test_eval_h_keeps_the_bits_of_a_jet_of_its_own_order():
    for t in _profile_ts():
        t = float(t)
        got = [eval_h(t, order) for order in range(DERIVATIVE_ORDER_MAX + 1)]
        want = [_jet_of_own_order(t, order) for order in range(DERIVATIVE_ORDER_MAX + 1)]
        assert np.array(got).tobytes() == np.array(want).tobytes(), t


# ---------------------------------------------------------------------------
# the stacked fold check
# ---------------------------------------------------------------------------

def _fold_check_per_point(group, chamber, count, seed):
    """(worst chamber shortfall, worst distance to the nearest translate),
    one point at a time, as check_fold took them (frozen)."""
    rng = np.random.default_rng(seed)
    mats = np.stack([e.matrix for e in group.elements])
    worst_violation = worst_orbit = 0.0
    for _ in range(count):
        p = rng.normal(scale=2.0, size=group.dimension)
        image = fold(group, chamber, p).image
        worst_violation = max(worst_violation,
                              -float(np.min(chamber.simple_normals @ image)))
        translates = mats @ p
        worst_orbit = max(worst_orbit,
                          float(np.min(np.linalg.norm(translates - image, axis=1))))
    return worst_violation, worst_orbit


@pytest.mark.parametrize("seed", [0, 1])
def test_check_fold_values_match_the_per_point_loop(chain, seed):
    for count in (0, 1, 100):
        inside, on_orbit, _ = check_fold(chain.group, chain.chamber, count=count, seed=seed)
        want = _fold_check_per_point(chain.group, chain.chamber, count, seed)
        assert (inside.value, on_orbit.value) == want
        assert all(math.copysign(1.0, v) == 1.0 for v in (inside.value, on_orbit.value))
