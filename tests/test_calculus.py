"""Finite-difference layer: stencils, wall probes, growth fits."""

import numpy as np
import pytest

from orbitfold import calculus, verify

from orbitfold.calculus import (
    DEFAULT_GROWTH_DISTANCES,
    DEFAULT_OFFSETS,
    GrowthReport,
    ProbeReport,
    _axis_stencils,
    _run_stencils,
    _shared_line_stencils,
    _wall_reports,
    curve_jump_probe,
    growth_bound_check,
    origin_line_probe,
)
from orbitfold.chamber import fold
from orbitfold.groups import preset_group
from orbitfold.smoothing import (
    _radius_at, apply_G, apply_H, build_chain, eval_h, eval_l)
from orbitfold.verify import check_growth
from stencil_oracle import per_point, wall_sample

# The stencil paths that verify and growth_bound_check take, at a stack of
# one point, for a map of one point.


def jacobian(fn, p, step):
    return _run_stencils(per_point(fn), [_axis_stencils(p[None, :], [step], (1,))])[0][0][0]


def hessian(fn, p, step):
    return _run_stencils(per_point(fn), [_axis_stencils(p[None, :], [step], (2,))])[0][0][0]


def directional(fn, p, direction, order, step):
    stencil = _shared_line_stencils(p[None, :], direction[None, None, :], (order,),
                                    np.array([step]))
    return _run_stencils(per_point(fn), [stencil])[0][0][0, 0]


def wall_probe(chain, fn, x):
    """The wall probe of orders 1 and 2 at x, a point on exactly one mirror,
    of fn after the fold (fn maps fold images)."""
    return _wall_reports(chain, per_point(fn), [wall_sample(chain, x)],
                         DEFAULT_OFFSETS, (1, 2))[0]


@pytest.fixture(scope="module")
def b2_chain():
    return build_chain(preset_group("b2"))


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------

class TestStencils:
    def test_jacobian_linear_map_exact(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        fn = lambda p: A @ p + b
        J = jacobian(fn, rng.normal(size=4), step=1e-3)
        assert np.max(np.abs(J - A)) < 1e-10

    def test_jacobian_identity(self):
        p = np.array([5.0, -2.0, 0.25])
        J = jacobian(lambda q: q.copy(), p, step=1e-4)
        assert np.max(np.abs(J - np.eye(3))) < 1e-10

    def test_directional_design_orders_exact(self):
        # Each central stencil is exact one polynomial degree past its
        # order, because symmetry cancels the next error term.
        x0 = 0.37
        cases = [
            (1, np.poly1d([2.0, -1.0, 0.5])),        # quadratic
            (2, np.poly1d([1.5, 2.0, -1.0, 0.5])),   # cubic
            (3, np.poly1d([0.7, 1.5, 2.0, -1.0, 0.5])),  # quartic
        ]
        e = np.array([1.0])
        for order, poly in cases:
            fn = lambda p, poly=poly: np.array([poly(p[0])])
            want = np.polyder(poly, order)(x0)
            got = directional(fn, np.array([x0]), e, order, step=0.05)
            assert abs(got[0] - want) < 1e-9

    def test_third_derivative_of_cube(self):
        fn = lambda p: np.array([p[0] ** 3])
        got = directional(fn, np.array([0.2]), np.array([1.0]), 3, step=1e-2)
        assert abs(got[0] - 6.0) < 1e-6

    def test_hessian_quadratic_exact(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(3, 3))
        fn = lambda p: np.array([p @ A @ p])
        T = hessian(fn, rng.normal(size=3), step=1e-2)
        assert np.max(np.abs(T[0] - (A + A.T))) < 1e-9
        assert np.max(np.abs(T[0] - T[0].T)) == 0.0

    def test_directional_rejects_bad_inputs(self):
        # the probes take directional orders 1-3 and refuse others before
        # evaluating anything
        calls = []
        with pytest.raises(ValueError, match="order"):
            curve_jump_probe(lambda s: calls.append(s) or np.array([s]), orders=(4,))
        for offsets in ((0.1, float("nan"), 0.01), (float("inf"), 0.1)):
            with pytest.raises(ValueError, match="offsets must be finite"):
                curve_jump_probe(lambda s: calls.append(s) or np.array([s]), offsets)
        assert calls == []

    def test_jacobian_of_full_map_in_identity_tail(self, b2_chain):
        # Far from every stratum all tube maps copy their input through.
        p = np.array([5.0, 2.0])
        J = jacobian(lambda q: apply_H(b2_chain, q), p, step=1e-3)
        assert np.max(np.abs(J - np.eye(2))) < 1e-10


# ---------------------------------------------------------------------------
# report invariants
# ---------------------------------------------------------------------------

def _mk_report(offsets, jumps=None):
    offs = tuple(offsets)
    return ProbeReport(
        point=np.zeros(2), direction=np.array([0.0, 1.0]),
        offsets=offs, orders=(1,),
        jumps={1: jumps if jumps is not None else tuple(1.0 for _ in offs)},
    )


class TestProbeReport:
    def test_offsets_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            _mk_report([1e-3, 1e-2])
        with pytest.raises(ValueError, match="decreasing"):
            _mk_report([1e-3, 1e-3])

    def test_offsets_above_rounding_floor(self):
        with pytest.raises(ValueError, match="floor"):
            _mk_report([1e-3, 1e-17])

    def test_slopes_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            _mk_report([1e-2, 1e-3], jumps=(1.0, float("inf")))

    def test_valid_report_constructs(self):
        rep = _mk_report([1e-2, 1e-3])
        assert rep.offsets == (1e-2, 1e-3)


class TestSlopeFit:
    OFFSETS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)

    def test_clean_power_law_recovered(self):
        jumps = tuple(d**2 for d in self.OFFSETS)
        assert calculus._loglog_slope(self.OFFSETS, jumps) == pytest.approx(2.0)

    def test_noise_turnup_is_excluded(self):
        # A real mismatch that collapses below measurement precision at the
        # second offset, followed by stencil rounding error growing as the
        # step shrinks.  The fit must stop at the minimum instead of letting
        # the noise tail drag the slope negative.
        jumps = (3e-2, 1e-10, 1e-8, 1e-7, 1e-6)
        assert calculus._loglog_slope(self.OFFSETS, jumps) >= 0.8

    def test_flat_sequence_keeps_zero_slope(self):
        jumps = (2.0, 2.0, 2.0, 2.0, 2.0)
        assert abs(calculus._loglog_slope(self.OFFSETS, jumps)) < 1e-9

    def test_flat_with_dip_stays_below_decay(self):
        # A non-decaying sequence with one noisy dip must not read as decay.
        jumps = (2.0, 1.9, 2.0, 2.1, 2.0)
        assert calculus._loglog_slope(self.OFFSETS, jumps) < 0.8


def _fd_jacobian_by_columns(fn, p, step):
    """Frozen copy of the hand-written column loop the FD Jacobian had
    before it evaluated the stencil table: (fn(p + h e_j) - fn(p - h e_j)) / (2h)."""
    p = np.asarray(p, dtype=float)
    cols = []
    for j in range(p.size):
        e = np.zeros_like(p)
        e[j] = step
        cols.append((np.asarray(fn(p + e)) - np.asarray(fn(p - e))) / (2.0 * step))
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("preset", ["i2-3", "i2-4", "a2", "b2", "a3", "b3"])
def test_fd_jacobian_agrees_bitwise_with_column_loop(preset):
    # The stencil's +-0.5 weights and /step round to the same quotient as
    # the column loop's /(2 step), so the two must agree bit for bit.
    chain = build_chain(preset_group(preset))
    H = lambda q: apply_H(chain, q)
    G = lambda q: apply_G(chain, q)
    rng = np.random.default_rng(41)
    g_checked = 0
    for _ in range(20):
        p = rng.normal(scale=1.5, size=chain.group.dimension)
        step = 10.0 ** rng.uniform(-8.0, -2.0) * (1.0 + np.linalg.norm(p))
        assert np.array_equal(jacobian(H, p, step),
                              _fd_jacobian_by_columns(H, p, step))
        q = fold(chain.group, chain.chamber, p).image
        if np.min(chain.chamber.simple_normals @ q) > step:
            assert np.array_equal(jacobian(G, q, step),
                                  _fd_jacobian_by_columns(G, q, step))
            g_checked += 1
    assert g_checked >= 10


# ---------------------------------------------------------------------------
# wall probes
# ---------------------------------------------------------------------------

class TestWallProbe:
    def test_smoothed_map_jump_decays(self, b2_chain):
        x = np.array([1.5, 0.0])
        rep = wall_probe(b2_chain, lambda q: apply_G(b2_chain, q), x)
        assert rep.slopes[1] >= 0.8
        assert rep.slopes[2] >= 0.8
        # offsets were rescaled by the local radius (0.15 here)
        assert rep.offsets[0] == pytest.approx(1.5e-2)

    def test_fold_control_jump_is_two(self, b2_chain):
        # |I - r|_F = |2 n n^T|_F = 2 exactly, for every reflection r.
        x = np.array([1.5, 0.0])
        rep = wall_probe(b2_chain, lambda q: apply_G(b2_chain, q), x)
        for j in rep.control_jumps[1]:
            assert j == pytest.approx(2.0, abs=1e-9)
        assert abs(rep.control_slopes[1]) <= 0.1
        assert rep.control_jumps[1][0] >= 0.5

    def test_fold_as_main_map_matches_control(self, b2_chain):
        # the identity after the fold makes the main map the fold itself
        rep = wall_probe(b2_chain, lambda q: q, np.array([1.5, 0.0]))
        assert rep.jumps[1] == rep.control_jumps[1]

    def test_default_direction_points_into_chamber(self, b2_chain):
        rep = wall_probe(
            b2_chain, lambda q: apply_G(b2_chain, q), np.array([1.5, 0.0]))
        assert float(rep.direction @ b2_chain.chamber.witness) > 0

    def test_even_normal_slice_cancels(self, b2_chain):
        # H(x + tv) is an even function of t across the mirror, so the
        # pure normal second difference matches on both sides to rounding;
        # it carries no information, which is why order 2 compares full
        # tensors instead.
        x = np.array([1.5, 0.0])
        v = np.array([0.0, 1.0])
        fn = lambda q: apply_H(b2_chain, q)
        delta = 0.015
        a = directional(fn, x + delta * v, v, 2, step=delta / 8)
        b = directional(fn, x - delta * v, v, 2, step=delta / 8)
        assert float(np.linalg.norm(a - b)) < 1e-10



class TestOriginLines:
    def test_jump_decay_along_random_lines(self, b2_chain):
        reports = origin_line_probe(
            b2_chain, per_point(lambda q: apply_H(b2_chain, q)), count=5, seed=11)
        assert len(reports) == 5
        for rep in reports:
            assert rep.slopes[1] >= 0.8
            assert calculus._least_resolved_slope([rep], 2) >= calculus.DECAY_SLOPE
            assert abs(np.linalg.norm(rep.direction) - 1.0) < 1e-12

    def test_minus_identity_makes_even_orders_exact(self, b2_chain):
        # -I is in this group, so the map is globally even and second
        # derivative tensors at +p and -p agree identically: the order-2
        # mismatch never rises above rounding and is reported unresolved.
        reports = origin_line_probe(
            b2_chain, per_point(lambda q: apply_H(b2_chain, q)), count=3, seed=4)
        for rep in reports:
            assert not rep.resolved(2)
            assert max(rep.jumps[2]) < 1e-12
            assert rep.resolved(1)  # odd orders still carry signal

    def test_without_minus_identity_order_two_resolves(self):
        group = preset_group("a2")
        chain = build_chain(group)
        reports = origin_line_probe(
            chain, per_point(lambda q: apply_H(chain, q)), count=3, seed=4)
        for rep in reports:
            assert rep.resolved(2)
            assert rep.slopes[2] >= 0.8

    def test_deterministic_for_fixed_seed(self, b2_chain):
        fn = per_point(lambda q: apply_H(b2_chain, q))
        a = origin_line_probe(b2_chain, fn, count=2, seed=7)
        b = origin_line_probe(b2_chain, fn, count=2, seed=7)
        for ra, rb in zip(a, b):
            assert ra.jumps == rb.jumps

    def test_directions_are_essential(self):
        group = preset_group("a2")  # one fixed diagonal direction in R^3
        chain = build_chain(group)
        diag = np.ones(3) / np.sqrt(3.0)
        for rep in origin_line_probe(chain, per_point(lambda q: apply_H(chain, q)),
                                     count=4, seed=2):
            assert abs(float(rep.direction @ diag)) < 1e-12


# ---------------------------------------------------------------------------
# flatness at a stratum
# ---------------------------------------------------------------------------

class TestFlatness:
    def test_transverse_derivatives_vanish_near_wall(self, b2_chain):
        # Just above the wall the profile is below the exp underflow knee
        # (h == 0 exactly for t below ~5.5e-5), so the composite is locally
        # constant in the normal direction and the differences vanish
        # identically.
        x = np.array([1.5, 0.0])
        radius = eval_l(b2_chain, 1, x)
        v = np.array([0.0, 1.0])
        p = x + (2e-5 * radius) * v
        fn = lambda q: apply_H(b2_chain, q)
        for order in (1, 2, 3):
            d = directional(fn, p, v, order, step=2e-6 * radius)
            assert float(np.linalg.norm(d)) == 0.0

    def test_profile_is_alive_at_working_heights(self):
        assert eval_h(0.1) > 0.0
        assert eval_h(5e-5) == 0.0


# ---------------------------------------------------------------------------
# derivative growth toward lower strata
# ---------------------------------------------------------------------------

class TestGrowth:
    def test_wall_level_exponents(self, b2_chain):
        rep = growth_bound_check(b2_chain, 1)
        assert all(rep.exponents[o] <= rep.limits[o] for o in (1, 2))
        # second derivative should track 1/l almost exactly mid-tube
        assert 0.7 <= rep.exponents[2] <= 1.3
        assert rep.exponents[1] <= 1.3

    def test_bottom_level_exponents(self, b2_chain):
        rep = growth_bound_check(b2_chain, 0)
        assert all(rep.exponents[o] <= rep.limits[o] for o in (1, 2))
        assert rep.radii == tuple([b2_chain.tubes.c0] * len(rep.distances))

    def test_capped_region_is_flat(self, b2_chain):
        # Far out the radius saturates at its cap, so there is no growth
        # axis left to regress on and the exponent is zero by convention.
        rep = growth_bound_check(b2_chain, 1, distances=(20.0, 25.0, 30.0))
        assert rep.exponents == {1: 0.0, 2: 0.0}
        assert max(rep.norms[1]) / min(rep.norms[1]) < 1.2

    def test_three_dimensional_group(self):
        chain = build_chain(preset_group("b3"))
        results = check_growth(chain)          # levels 0, 1 and 2
        assert all(r.passed for r in results), [r.line() for r in results]


@pytest.mark.parametrize("preset", ["i2-3", "i2-4", "a2", "b2", "a3", "b3"])
def test_radius_of_the_sampled_face_is_eval_l(preset, monkeypatch):
    # The flatness and growth checks take the radius on the face they
    # sampled; at every such point it must be the bits eval_l finds.
    chain = build_chain(preset_group(preset))
    seen = []

    def radius_at(chain, face, x):
        radius = _radius_at(chain, face, x)
        assert radius == eval_l(chain, face.level, x), (face.active, x.tolist())
        seen.append(radius)
        return radius

    monkeypatch.setattr(verify, "_radius_at", radius_at)
    monkeypatch.setattr(calculus, "_radius_at", radius_at)
    for seed in (0, 1):
        verify.check_flatness(chain, points_per_level=50, seed=seed)
    flatness = len(seen)
    assert min(seen, default=1.0) < 0.15        # some samples slide outward
    verify.check_growth(chain)
    assert len(seen) - flatness == len(DEFAULT_GROWTH_DISTANCES) * (chain.rank - 1)


# ---------------------------------------------------------------------------
# curve probes
# ---------------------------------------------------------------------------

class TestCurveProbe:
    def test_abs_has_unit_kink(self):
        # d/ds |s| flips from -1 to +1: the jump is exactly 2 at every
        # offset, so the fitted slope is zero.
        rep = curve_jump_probe(lambda s: np.array([abs(s)]))
        for j in rep.jumps[1]:
            assert j == pytest.approx(2.0, abs=1e-12)
        assert abs(rep.slopes[1]) < 1e-6

    def test_smooth_curve_has_no_jump(self):
        rep = curve_jump_probe(lambda s: np.array([np.sin(s)]))
        assert max(rep.jumps[1]) < 1e-9

    def test_report_fields(self):
        rep = curve_jump_probe(lambda s: np.array([abs(s)]), orders=(1, 2))
        assert isinstance(rep, ProbeReport)
        assert rep.point.tolist() == [0.0] and rep.direction.tolist() == [1.0]
        assert rep.control_jumps is None and rep.control_slopes is None
        assert rep.offsets == DEFAULT_OFFSETS
        assert set(rep.jumps) == {1, 2}
