"""Profile h, radius fields, tube maps, and the composite maps.

Expected derivative values were frozen from a 60-digit arbitrary-precision
evaluation of the closed form (independent of the jet arithmetic under
test); finite-difference stencils in this file are written from scratch so
they share nothing with the package's calculus helpers.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distance_oracle import _dist_by_subset_enumeration
from orbitfold import (
    chamber_from_group,
    classify,
    fold,
    generate_group,
    preset_group,
    strata_levels,
    validate_tubes,
)
from orbitfold.calculus import growth_bound_check
from orbitfold.chamber import ON_WALL_TOL
from orbitfold.smoothing import (
    DERIVATIVE_ORDER_MAX,
    SmoothChain,
    TubeConfigError,
    TubeSpec,
    _apply_F,
    _apply_partial,
    _radius_at,
    apply_G,
    apply_H,
    build_chain,
    default_tubes,
    eval_h,
    eval_l,
    minimal_wall_angle,
    softmin,
    tube_coords,
)
from orbitfold.verify import _slope_margins


# values of h and derivatives, frozen from 60-digit evaluation of
# h(t) = t*e(t)/(e(t)+e(1-t)), e(t) = exp(-5.5/sqrt(t)) ----------------------
H_FROZEN = {
    (0.25, 0): 0.0023697622128306370598,
    (0.30, 0): 0.0090725296105426739800,
    (0.75, 0): 0.74289071336150808882,
    (0.90, 0): 0.89999170939668116207,
    (0.30, 1): 0.21879960819775415089,
    (0.30, 2): 4.4060098540119202599,
    (0.30, 3): 70.182878733501854758,
    (0.30, 4): 759.16412428485797955,
    (0.50, 1): 2.4445436482630056921,
    (0.50, 2): 7.7781745930520227684,
    (0.50, 3): -206.12162671587860336,
    (0.50, 4): -1648.9730137270288269,
}


def fd_scalar(f, t, order, step):
    """Central stencils written independently of the package's calculus."""
    s = step
    if order == 1:
        return (f(t - 2 * s) - 8 * f(t - s) + 8 * f(t + s) - f(t + 2 * s)) / (12 * s)
    if order == 2:
        return (-f(t - 2 * s) + 16 * f(t - s) - 30 * f(t)
                + 16 * f(t + s) - f(t + 2 * s)) / (12 * s * s)
    if order == 3:
        return (-f(t - 2 * s) + 2 * f(t - s) - 2 * f(t + s) + f(t + 2 * s)) / (2 * s ** 3)
    if order == 4:
        return (f(t - 2 * s) - 4 * f(t - s) + 6 * f(t)
                - 4 * f(t + s) + f(t + 2 * s)) / s ** 4
    raise ValueError(order)


# ---------------------------------------------------------------------------
# the profile
# ---------------------------------------------------------------------------

class TestProfile:
    def test_frozen_values(self):
        for (t, order), want in H_FROZEN.items():
            got = eval_h(t, order)
            assert got == pytest.approx(want, rel=1e-12), (t, order)

    def test_midpoint_symmetry_exact(self):
        assert eval_h(0.5, 0) == 0.25

    def test_linear_tail_exact(self):
        for t in (1.0, 1.5, 2.0, 7.25, 1e6):
            assert eval_h(t, 0) == t
            assert eval_h(t, 1) == 1.0
            assert eval_h(t, 2) == 0.0
            assert eval_h(t, 4) == 0.0

    def test_zero_and_dead_zone(self):
        for t in (0.0, 1e-9, 1e-5, 5e-5):
            for order in range(5):
                assert eval_h(t, order) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            eval_h(-0.1, 0)
        with pytest.raises(ValueError):
            eval_h(float("nan"), 0)
        with pytest.raises(ValueError, match="order"):
            eval_h(0.5, 5)
        with pytest.raises(ValueError, match="order"):
            eval_h(0.5, -1)

    @pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("order", [1.5, 2.0, "2", None])
    def test_rejects_a_non_integer_order(self, t, order):
        with pytest.raises(ValueError, match=r"order must be an integer, got"):
            eval_h(t, order)

    def test_accepts_numpy_integer_orders(self):
        for order in range(DERIVATIVE_ORDER_MAX + 1):
            assert eval_h(0.5, np.int64(order)) == eval_h(0.5, order)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_t(self, t):
        # a non-finite t is named as such; a negative finite one keeps
        # its own message
        with pytest.raises(ValueError, match="not finite"):
            eval_h(t)
        with pytest.raises(ValueError, match=r"t >= 0"):
            eval_h(-0.1)

    @pytest.mark.parametrize("t", [0.3, 0.6, 0.85])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_jets_match_finite_differences(self, t, order):
        f = lambda s: eval_h(s, 0)
        step = 1e-3 if order <= 2 else 4e-3
        approx = fd_scalar(f, t, order, step)
        exact = eval_h(t, order)
        tol = 1e-6 if order <= 2 else 5e-3
        assert approx == pytest.approx(exact, rel=tol, abs=tol)

    def test_flat_at_origin_by_finite_differences(self):
        f = lambda s: eval_h(s, 0)
        for order in (1, 2, 3, 4):
            assert abs(fd_scalar(f, 1e-3, order, 2e-4)) < 1e-8

    def test_strictly_increasing_on_grid(self):
        grid = np.linspace(0.002, 2.0, 1000)
        derivs = np.array([eval_h(t, 1) for t in grid])
        assert np.all(derivs > 0.0)

    def test_bounded_by_identity(self):
        for t in np.linspace(0.0, 3.0, 301):
            assert eval_h(t, 0) <= t + 1e-15

    def test_derivative_ladder_on_inner_interval(self):
        # On (0, 0.11] every derivative up to order 4 is nonnegative and
        # nondecreasing; the property holds to t ~ 0.303, where the fourth
        # order loses monotonicity (it loses its sign past ~ 0.363), so this
        # grid stays well inside it.
        grid = np.linspace(0.005, 0.11, 64)
        for order in range(5):
            vals = np.array([eval_h(t, order) for t in grid])
            assert np.all(vals >= 0.0), order
            assert np.all(np.diff(vals) >= 0.0), order

    def test_fourth_derivative_sign_change_located(self):
        # the sign flip of h'''' sits between 0.36 and 0.37 (at t = 0.36334)
        assert eval_h(0.36, 4) > 0.0
        assert eval_h(0.37, 4) < 0.0


# ---------------------------------------------------------------------------
# softmin and radii
# ---------------------------------------------------------------------------

class TestRadii:
    def test_softmin_single_argument_exact(self):
        assert softmin([0.37], 4) == pytest.approx(0.37, rel=1e-15)

    def test_softmin_equal_arguments(self):
        assert softmin([2.0, 2.0], 4) == pytest.approx(2.0 * 2 ** -0.25, rel=1e-14)

    def test_softmin_below_min(self):
        assert softmin([1.0, 3.0, 0.5], 4) < 0.5

    def test_softmin_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            softmin([1.0, 0.0], 4)

    def test_softmin_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            softmin([], 4)

    @pytest.mark.parametrize("scale", [1e-150, 1e81, 1e150, 1e300])
    def test_softmin_scales_exactly(self, scale):
        # d^-k would under- or overflow at these scales; the scaled form
        # is the unit-scale value times the scale
        unit = softmin([1.0, 3.0, 0.5], 4)
        got = softmin([scale, 3.0 * scale, 0.5 * scale], 4)
        assert got == pytest.approx(unit * scale, rel=1e-15)

    def test_wall_radius_is_slope_times_distance(self):
        chain = build_chain(preset_group("b2"))
        for d in (0.05, 0.7, 3.0):
            got = eval_l(chain, 1, np.array([d, 0.0]))
            assert got == pytest.approx(0.1 * d, rel=1e-14)

    def test_radius_caps_far_out(self):
        chain = build_chain(preset_group("b2"))
        assert eval_l(chain, 1, np.array([100.0, 0.0])) == 1.0

    def test_radius_blend_region_bounds(self):
        chain = build_chain(preset_group("b2"))
        for d in (11.0, 14.0, 17.0, 19.9):
            l = eval_l(chain, 1, np.array([d, 0.0]))
            raw, cap = 0.1 * d, 1.0
            assert cap <= l <= raw

    def test_level0_radius_constant(self):
        chain = build_chain(preset_group("a2"))
        for t in (0.0, 1.0, -2.5):
            assert eval_l(chain, 0, np.array([t, t, t])) == chain.tubes.c0

    def test_eval_l_at_huge_points(self):
        # |x| ~ 3.6e200: every square sum is scaled, and the radius is the cap
        chain = build_chain(preset_group("b3"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eval_l(chain, 2, np.array([3.0, 2.0, 0.0]) * 1e200) == chain.tubes.c[2]

    def test_eval_l_rejects_wrong_level(self):
        chain = build_chain(preset_group("b2"))
        with pytest.raises(ValueError, match="level"):
            eval_l(chain, 1, np.array([2.0, 1.0]))   # regular point
        with pytest.raises(ValueError, match="level"):
            eval_l(chain, 0, np.array([1.0, 0.0]))   # wall point

    @pytest.mark.parametrize("preset", ["b3", "a3"])
    def test_eval_l_names_levels_without_a_tube(self, preset):
        chain = build_chain(preset_group(preset))
        x = chain.chamber.witness        # open chamber: level rank
        assert classify(chain.group, x).level == chain.rank == 3
        for level in (3, 4, -1):
            with pytest.raises(ValueError, match=rf"no tube at level {level}; "
                                                 r"tube levels run 0\.\.2"):
                eval_l(chain, level, x)

    @pytest.mark.parametrize("preset", ["b3", "a3"])
    def test_eval_l_accepts_what_classify_puts_on_lower_faces(self, preset):
        # near |x| = 1e-9 the tolerance is about |x| itself; classify tests
        # wall by wall, and eval_l's face test must agree with it
        chain = build_chain(preset_group(preset))
        strat = chain.stratification
        lower = [f for f in strat.faces if 0 < f.level < chain.rank]
        rng = np.random.default_rng(2024)
        points = [np.array([3.7918252786341984e-09, 1.3239546586276328e-09,
                            -4.190706236555578e-27])] if preset == "b3" else []
        for k in range(1500):
            face = lower[k % len(lower)]
            x = rng.uniform(0.1, 1.0, len(face.inactive)) @ strat.edge_rays[list(face.inactive)]
            points.append(x * (10.0 ** rng.uniform(-10.0, -8.0) / np.linalg.norm(x)))
        for x in points:
            level = classify(chain.group, x).level
            if level < chain.rank:
                assert 0.0 < eval_l(chain, level, x) < math.inf, (x.tolist(), level)

    def test_b3_equidistant_two_face_point(self):
        group = preset_group("b3")
        chain = build_chain(group)
        strat = chain.stratification
        face = next(f for f in strat.faces_at_level(2) if f.active == (0,))
        edge_a = next(f for f in strat.faces if f.active == (0, 1))
        edge_b = next(f for f in strat.faces if f.active == (0, 2))

        # walk along the face to the locus equidistant from its two edges
        u = strat.edge_rays[1] + strat.edge_rays[2]
        w = strat.edge_rays[1] - strat.edge_rays[2]
        dist = lambda f, x: _dist_by_subset_enumeration(strat, f, x)
        gap = lambda s: dist(edge_a, u + s * w) - dist(edge_b, u + s * w)
        lo, hi = -0.49, 0.49
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if gap(lo) * gap(mid) <= 0:
                hi = mid
            else:
                lo = mid
        x = u + 0.5 * (lo + hi) * w
        d = dist(edge_a, x)
        assert dist(edge_b, x) == pytest.approx(d, abs=1e-10)

        got = eval_l(chain, 2, x)
        # two dominant equal distances: b*d*2^(-1/4), corrected ~2% by the
        # third edge and the origin
        assert got == pytest.approx(0.1 * d * 2 ** -0.25, rel=0.025)
        # and exactly the k=4 formula over all four lower faces
        dists = [dist(f, x) for f in strat.faces if f.level < 2]
        assert got == pytest.approx(0.1 * softmin(dists, 4), rel=1e-12)

    @pytest.mark.parametrize("preset", ["i2-3", "i2-4", "a2", "b2", "a3", "b3"])
    def test_radius_field_matches_face_walk(self, preset):
        # the stacked span distances against the subface enumeration, at every
        # open-face foot of folded points from |p| = 1e-3 to 1e3; caps out
        # of reach, so the radius is b_i * softmin itself
        group = preset_group(preset)
        slopes = default_tubes(group).b
        chain = build_chain(group, TubeSpec(b=slopes, c={i: 1e300 for i in slopes}))
        rng = np.random.default_rng(5)
        checked = 0
        for scale in np.logspace(-3, 3, 13):
            for _ in range(4):
                p = rng.normal(size=group.dimension)
                q = fold(group, chain.chamber, p * (scale / np.linalg.norm(p))).image
                for i in range(1, chain.rank):
                    for face in chain.stratification.faces_at_level(i):
                        x = face.project_to_span(q)
                        size = 1.0 + np.linalg.norm(x)
                        if face.inactive and (face.inactive_normals @ x).min() <= ON_WALL_TOL * size:
                            continue
                        dists = [_dist_by_subset_enumeration(chain.stratification, f, x)
                                 for f in chain.stratification.faces if f.level < i]
                        want = slopes[i] * softmin(dists, 4)
                        assert abs(_radius_at(chain, face, x) - want) <= 1e-15 * size
                        checked += 1
        assert checked >= 52 * (chain.rank - 1)

    def test_tube_spec_validation(self):
        with pytest.raises(ValueError):
            TubeSpec(b={1: -0.1}, c={1: 1.0})
        with pytest.raises(ValueError):
            TubeSpec(b={1: 0.1}, c={1: 1.0}, c0=0.0)
        with pytest.raises(ValueError, match="missing"):
            build_chain(preset_group("b3"), tubes=TubeSpec(b={1: 0.1}, c={1: 1.0}))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_tube_spec_refuses_non_finite_parameters(self, bad):
        with pytest.raises(ValueError, match="c0 must be positive and finite"):
            TubeSpec(b={1: 0.1}, c={1: 1.0}, c0=bad)
        with pytest.raises(ValueError, match="b_1 must be positive and finite"):
            TubeSpec(b={1: bad}, c={1: 1.0})
        with pytest.raises(ValueError, match="c_1 must be positive and finite"):
            TubeSpec(b={1: 0.1}, c={1: bad})

    def test_tube_spec_refuses_a_nan_softmin_exponent(self):
        with pytest.raises(ValueError, match="softmin exponent must be >= 1, got nan"):
            TubeSpec(b={1: 0.1}, c={1: 1.0}, softmin_exponent=math.nan)

    @pytest.mark.parametrize("b,c,error", [
        ({0: 0.2, 1: 0.05}, {0: 3.0, 1: 1.0}, "b_0 given for a level the group lacks"),
        ({1: 0.05, 5: 0.9}, {1: 1.0}, "b_5 given for a level the group lacks"),
        ({1: 0.05}, {1: 1.0, 7: 0.5}, "c_7 given for a level the group lacks"),
        ({1: 0.05}, {7: 0.5}, "c_1 missing"),
    ], ids=["b_0", "b_5", "c_7", "c_1"])
    def test_build_chain_refuses_levels_the_group_lacks(self, b, c, error):
        # b2 has one level with a slope and a cap, level 1
        with pytest.raises(ValueError, match=f"^tube parameter {error}: b and c levels run 1..1$"):
            build_chain(preset_group("b2"), TubeSpec(b=b, c=c))


# ---------------------------------------------------------------------------
# tube coordinates
# ---------------------------------------------------------------------------

class TestTubeCoords:
    def test_orthogonal_split(self):
        group = preset_group("i2", m=2)      # orthogonal mirrors, bound 0.25
        chain = build_chain(group, tubes=TubeSpec(b={1: 0.2}, c={1: 1.0}))
        p = np.array([1.0, 0.1])
        tc = tube_coords(chain, 1, p)
        assert tc is not None
        _, foot, t, _ = tc
        assert np.allclose(foot, [1.0, 0.0], atol=1e-14)
        # the unit normal _apply_F forms
        assert np.allclose((p - foot) / t, [0.0, 1.0], atol=1e-14)
        assert t == pytest.approx(0.1, abs=1e-15)

    def test_on_face_point_flagged(self):
        chain = build_chain(preset_group("b2"))
        tc = tube_coords(chain, 1, np.array([1.0, 0.0]))
        assert tc is not None
        _, foot, t, _ = tc
        assert t == 0.0
        assert np.allclose(foot, [1.0, 0.0])

    def test_boundary_height_is_outside(self):
        chain = build_chain(preset_group("b2"))
        # radius at foot (1,0) is exactly 0.1; t = 0.1 is not inside
        assert tube_coords(chain, 1, np.array([1.0, 0.1])) is None

    def test_foot_must_land_in_open_face(self):
        chain = build_chain(preset_group("b2"))
        assert tube_coords(chain, 1, np.array([-0.5, 0.05])) is None

    def test_far_point_outside(self):
        chain = build_chain(preset_group("b2"))
        assert tube_coords(chain, 1, np.array([2.0, 1.0])) is None
        assert tube_coords(chain, 0, np.array([2.0, 1.0])) is None

    def test_level0_tube_splits_fixed_component(self):
        chain = build_chain(preset_group("a2"))
        p = np.array([1.0, 1.0, 1.0]) + 0.1 * np.array([1.0, -1.0, 0.0])
        tc = tube_coords(chain, 0, p)
        assert tc is not None
        _, foot, t, _ = tc
        assert np.allclose(foot, [1.0, 1.0, 1.0], atol=1e-12)
        assert t == pytest.approx(0.1 * math.sqrt(2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# tube maps
# ---------------------------------------------------------------------------

class TestTubeMaps:
    def test_wall_map_formula(self):
        chain = build_chain(preset_group("b2"))
        got = _apply_F(chain, 1, np.array([1.0, 0.05]))
        # l = 0.1 at the foot, so the height becomes 0.1*h(0.5) = 0.025
        assert np.allclose(got, [1.0, 0.025], atol=1e-15)

    def test_wall_map_is_odd_in_height(self):
        chain = build_chain(preset_group("b2"))
        up = _apply_F(chain, 1, np.array([1.0, 0.05]))
        down = _apply_F(chain, 1, np.array([1.0, -0.05]))
        assert np.allclose(down, up * np.array([1.0, -1.0]), atol=1e-15)

    def test_identity_outside_is_exact(self):
        chain = build_chain(preset_group("b2"))
        p = np.array([2.0, 1.0])
        for i in (0, 1):
            assert np.array_equal(_apply_F(chain, i, p), p)

    def test_on_stratum_fixed(self):
        chain = build_chain(preset_group("b2"))
        p = np.array([1.3, 0.0])
        assert np.array_equal(_apply_F(chain, 1, p), p)

    def test_radial_map_scales_toward_origin(self):
        chain = build_chain(preset_group("b2"))
        p = np.array([0.3, 0.15])
        r = np.linalg.norm(p)
        got = _apply_F(chain, 0, p)
        want = (eval_h(r, 0) / r) * p
        assert np.allclose(got, want, atol=1e-15)

    def test_monotone_radial_section(self):
        chain = build_chain(preset_group("b2"))
        x = np.array([1.5, 0.0])
        v = np.array([0.0, 1.0])
        l = eval_l(chain, 1, x)
        ratios = np.concatenate([[0.0], np.linspace(0.002, 0.999, 80)])
        # signed height along v, not the norm: squaring inside the norm
        # would underflow the ~1e-220 heights at the bottom of the grid
        heights = [(_apply_F(chain, 1, x + (r * l) * v) - x) @ v for r in ratios]
        assert np.all(np.diff(heights) > 0.0)


# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------

def margin_sample(chain, rng, count):
    """Folded points clear of every flat basin (tube fraction >= 0.3,
    effective radius >= 0.3*c0): the region where G is numerically alive."""
    group, chamber = chain.group, chain.chamber
    out = []
    while len(out) < count:
        p = rng.normal(size=group.dimension) * rng.uniform(0.4, 2.5)
        q = fold(group, chamber, p).image
        if _well_inside(chain, q):
            out.append(q)
    return out


def _well_inside(chain, q):
    from orbitfold.groups import essential_split
    _, q_eff = essential_split(chain.group, q)
    r = np.linalg.norm(q_eff)
    if r < 0.3 * chain.tubes.c0:
        return False
    for i in range(1, chain.rank):
        tc = tube_coords(chain, i, q)
        if tc is not None and tc[2] < 0.3 * tc[3]:
            return False
    return True


class TestComposites:
    @pytest.mark.parametrize("preset", ["i2-3", "b2", "a2", "b3"])
    def test_invariance(self, preset):
        group = preset_group(preset)
        chain = build_chain(group)
        rng = np.random.default_rng(17)
        for _ in range(12):
            p = rng.normal(size=group.dimension) * rng.uniform(0.2, 3.0)
            base = apply_H(chain, p)
            scale = 1.0 + np.linalg.norm(base)
            for elem in group.elements:
                moved = apply_H(chain, elem.matrix @ p)
                assert np.linalg.norm(moved - base) <= 1e-9 * scale

    @pytest.mark.parametrize("preset", ["b2", "a3", "b3"])
    def test_invariance_far_out(self, preset):
        # at |p| = 1e100 the inverse powers d^-4 underflow; H must stay
        # finite and invariant there
        group = preset_group(preset)
        chain = build_chain(group)
        rng = np.random.default_rng(3)
        for _ in range(4):
            p = rng.normal(size=group.dimension)
            p *= 1e100 / np.linalg.norm(p)
            base = apply_H(chain, p)
            assert np.all(np.isfinite(base))
            for elem in group.elements:
                moved = apply_H(chain, elem.matrix @ p)
                assert np.linalg.norm(moved - base) <= 1e-9 * np.linalg.norm(base)

    @pytest.mark.parametrize("preset", ["i2-5", "a2", "b2", "a3", "b3"])
    def test_maps_return_new_arrays(self, preset):
        """Neither apply_G nor apply_H returns its input or writes through
        to it, at a point no tube moves (far out along the witness) as at
        points the tubes move."""
        chain = build_chain(preset_group(preset))
        witness = chain.chamber.witness / np.linalg.norm(chain.chamber.witness)
        rng = np.random.default_rng(29)
        points = [100.0 * witness] + [np.abs(rng.normal(size=witness.shape)) * 0.3
                                      for _ in range(6)]
        points = [fold(chain.group, chain.chamber, p).image for p in points]
        for k, p in enumerate(points):
            before = p.copy()
            for fn in (apply_G, apply_H):
                out = fn(chain, p)
                if k == 0:
                    assert np.array_equal(out, p)      # the identity tail
                assert out is not p and not np.shares_memory(out, p)
                out += 1.0
                assert np.array_equal(p, before)

    def test_apply_G_rejects_outside_points(self):
        chain = build_chain(preset_group("b2"))
        with pytest.raises(ValueError, match="chamber"):
            apply_G(chain, np.array([-1.0, 0.5]))

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    @pytest.mark.parametrize("preset", ["b2", "b3"])
    def test_apply_G_membership_tolerance(self, preset, scale):
        # the closed chamber is taken to 1e-9 relative to 1 + |p|: a point
        # half that far outside one wall is accepted, twice that is not
        chain = build_chain(preset_group(preset))
        strat = chain.stratification
        normals = chain.chamber.simple_normals
        for face in strat.faces_at_level(chain.rank - 1):
            x = strat.interior_point(face, radius=scale)
            n = normals[face.active[0]]
            out = (1.0 + scale) * 1e-9
            assert np.all(np.isfinite(apply_G(chain, x - 0.5 * out * n)))
            with pytest.raises(ValueError, match="chamber"):
                apply_G(chain, x - 2.0 * out * n)

    def test_result_stays_in_chamber(self):
        chain = build_chain(preset_group("b3"))
        rng = np.random.default_rng(23)
        for _ in range(40):
            p = fold(chain.group, chain.chamber, rng.normal(size=3)).image
            q = apply_G(chain, p)
            assert chain.chamber.contains(q, tol=1e-9)

    @pytest.mark.parametrize("preset", ["b2", "a3", "b3"])
    def test_stratum_preservation(self, preset):
        group = preset_group(preset)
        chain = build_chain(group)
        strat = chain.stratification
        rng = np.random.default_rng(31)
        pts = []
        for face in strat.faces:
            if not face.inactive:
                continue
            for _ in range(4):
                coeffs = rng.uniform(0.3, 2.0, size=len(face.inactive))
                pts.append(coeffs @ strat.edge_rays[list(face.inactive)])
        pts += [fold(group, chain.chamber, rng.normal(size=group.dimension)).image
                for _ in range(10)]
        for p in pts:
            before = classify(group, p).walls_containing
            after = classify(group, apply_G(chain, p)).walls_containing
            assert before == after

    def test_wall_points_stay_on_their_wall(self):
        chain = build_chain(preset_group("b2"))
        n0 = chain.chamber.simple_normals[0]
        for d in (0.05, 0.3, 0.9, 4.0):
            q = apply_G(chain, np.array([d, 0.0]))
            assert abs(q @ n0) < 1e-13

    def test_identity_tail_is_bitwise(self):
        group = preset_group("b3")
        chain = build_chain(group)
        rng = np.random.default_rng(41)
        hits = 0
        while hits < 15:
            p = rng.normal(size=3) * 4.0
            folded = fold(group, chain.chamber, p).image
            from orbitfold.groups import essential_split
            _, eff = essential_split(group, folded)
            if np.linalg.norm(eff) < chain.tubes.c0:
                continue
            if any(tube_coords(chain, i, folded) is not None
                   for i in range(chain.rank)):
                continue
            assert np.array_equal(apply_H(chain, p), folded)
            hits += 1

    def test_partial_composites_nest(self):
        chain = build_chain(preset_group("b3"))
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = fold(chain.group, chain.chamber, rng.normal(size=3)).image
            composite = _apply_F(chain, 0, _apply_F(chain, 1, _apply_F(chain, 2, p)))
            assert np.array_equal(_apply_partial(chain, p), composite)
            assert np.allclose(apply_G(chain, p), _apply_partial(chain, p), atol=0)

    def test_separated_points_stay_separated(self):
        chain = build_chain(preset_group("b2"))
        rng = np.random.default_rng(53)
        pts = margin_sample(chain, rng, 30)
        for a in range(0, len(pts), 3):
            for b in range(a + 1, len(pts), 4):
                if np.linalg.norm(pts[a] - pts[b]) < 1e-4:
                    continue
                ga, gb = apply_G(chain, pts[a]), apply_G(chain, pts[b])
                assert np.linalg.norm(ga - gb) >= 1e-8


# ---------------------------------------------------------------------------
# one-dimensional reduction
# ---------------------------------------------------------------------------

class TestHalfLine:
    def build(self):
        group = generate_group([np.array([1.0])])
        return build_chain(group)

    def test_group_is_sign_flip(self):
        chain = self.build()
        assert chain.group.order == 2
        assert chain.rank == 1

    def test_H_is_even_profile(self):
        chain = self.build()
        for x in (0.0, 0.15, 0.35, 0.8, 2.0, -0.35, -2.0):
            got = apply_H(chain, np.array([x]))
            want = eval_h(abs(x), 0)
            assert got[0] == pytest.approx(want, abs=1e-15)

    def test_G_is_profile_on_half_line(self):
        chain = self.build()
        for u in (0.0, 0.2, 0.5, 1.5):
            assert apply_G(chain, np.array([u]))[0] == pytest.approx(
                eval_h(u, 0), abs=1e-15)

    def test_validation_trivial(self):
        chain = self.build()
        assert [line.value for line in validate_tubes(chain)] == [-math.inf, 0.0, 0.0]
        assert _slope_margins(chain) == (None, None, {})


# ---------------------------------------------------------------------------
# tube validation
# ---------------------------------------------------------------------------

class TestValidation:
    @pytest.mark.parametrize("preset", ["i2-3", "i2-4", "a2", "b2", "a3", "b3"])
    def test_default_configuration_passes(self, preset):
        chain = build_chain(preset_group(preset))
        slope, disjoint, feet = validate_tubes(chain)
        assert slope.passed and disjoint.passed and feet.passed
        _, _, margins = _slope_margins(chain)
        assert margins and all(m >= 0 for m in margins.values())
        assert slope.value == -min(margins.values())

    def test_minimal_angles(self):
        assert minimal_wall_angle(preset_group("b2"))[0] == pytest.approx(math.pi / 4)
        assert minimal_wall_angle(preset_group("a2"))[0] == pytest.approx(math.pi / 3)
        assert minimal_wall_angle(preset_group("b3"))[0] == pytest.approx(math.pi / 4)
        assert minimal_wall_angle(preset_group("i2", m=7))[0] == pytest.approx(math.pi / 7)

    def test_right_angles_name_their_pair(self):
        # every pair of the two axis mirrors meets at pi/2: the first is named
        group = generate_group([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert minimal_wall_angle(group) == (math.pi / 2, (0, 1))
        chain = build_chain(group, tubes=TubeSpec(b={1: 0.3}, c={1: 1.0}))
        with pytest.raises(TubeConfigError, match=r"b_1 = 0.3 exceeds .* mirror pair \(0, 1\)$"):
            validate_tubes(chain)

    def test_oversized_slope_rejected_with_pair(self):
        chain = build_chain(preset_group("b2"),
                            tubes=TubeSpec(b={1: 10.0}, c={1: 1.0}))
        with pytest.raises(TubeConfigError, match=r"b_1.*mirror pair"):
            validate_tubes(chain)

    def test_oversized_slope_really_overlaps(self):
        # an explicit point lying inside the tubes of both B2 wall faces
        chain = build_chain(preset_group("b2"),
                            tubes=TubeSpec(b={1: 10.0}, c={1: 1.0}))
        p = np.array([1.0, 0.5])
        foot_axis = np.array([1.0, 0.0])
        t_axis = np.linalg.norm(p - foot_axis)
        assert t_axis < eval_l(chain, 1, foot_axis)
        foot_diag = np.array([0.75, 0.75])
        t_diag = np.linalg.norm(p - foot_diag)
        assert t_diag < eval_l(chain, 1, foot_diag)

    def test_default_slopes_match_angle_rule(self):
        for preset, theta in (("b2", math.pi / 4), ("a2", math.pi / 3)):
            tubes = default_tubes(preset_group(preset))
            want = min(0.1, math.sin(theta) / 4.0)
            assert tubes.b[1] == pytest.approx(want, rel=1e-15)


# ---------------------------------------------------------------------------
# face sequences and input checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("preset", ["i2-3", "i2-4", "a2", "b2", "a3", "b3"])
def test_face_sequences_match_their_definitions(preset):
    # faces_at_level and the lower-face stacks are built once per chain;
    # they must still follow the definitional filters over strat.faces, in
    # the same order: one distance per lower face, each that face's own
    chain = build_chain(preset_group(preset))
    strat = chain.stratification
    # an open-chamber point at unequal distances from faces of one level
    x = np.arange(1.0, chain.rank + 1) @ strat.edge_rays
    for level in range(-1, chain.rank + 2):
        at = [f for f in strat.faces if f.level == level]
        assert list(strat.faces_at_level(level)) == at
        if 1 <= level < chain.rank:
            below = [f for f in strat.faces if f.level < level]
            want = [_dist_by_subset_enumeration(strat, f, x) for f in below]
            assert chain.lower_face_distances(level, x) == pytest.approx(want, abs=1e-15)
        else:
            with pytest.raises(ValueError, match=f"measured at levels 1..{chain.rank - 1}, not"):
                chain.lower_face_distances(level, x)


BAD_POINTS = {
    "nan": [float("nan"), 1.0, 2.0],
    "inf": [float("inf"), 1.0, 2.0],
    "-inf": [1.0, float("-inf"), 2.0],
    "short": [1.0, 2.0],
    "long": [1.0, 2.0, 3.0, 4.0],
    "matrix": [[1.0, 2.0, 3.0]],
}

ENTRY_POINTS = {
    "fold": lambda chain, p: fold(chain.group, chain.chamber, p),
    "classify": lambda chain, p: classify(chain.group, p),
    "apply_G": apply_G,
    "apply_H": apply_H,
    "eval_l": lambda chain, p: eval_l(chain, 2, p),
    "tube_coords": lambda chain, p: tube_coords(chain, 1, p),
}


@pytest.mark.parametrize("bad", sorted(BAD_POINTS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_bad_points(entry, bad):
    # a non-finite or wrong-shape point is named as such, before any
    # arithmetic: no RuntimeWarning and no error from deep inside a matmul
    chain = build_chain(preset_group("b3"))
    match = "non-finite" if bad in ("nan", "inf", "-inf") else "shape"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            ENTRY_POINTS[entry](chain, np.array(BAD_POINTS[bad]))


LEVEL_ENTRY_POINTS = {
    "tube_coords": lambda chain, i: tube_coords(chain, i, chain.chamber.witness),
    "eval_l": lambda chain, i: eval_l(chain, i, chain.chamber.witness),
    "growth_bound_check": growth_bound_check,
}


@pytest.mark.parametrize("entry", sorted(LEVEL_ENTRY_POINTS))
def test_tube_entry_points_name_levels_without_a_tube(entry):
    chain = build_chain(preset_group("b3"))
    for level in (3, 4, -1):
        with pytest.raises(ValueError, match=rf"no tube at level {level}; "
                                             r"tube levels run 0\.\.2"):
            LEVEL_ENTRY_POINTS[entry](chain, level)


def _overflowing_maps(chain, p):
    """apply_H at p and apply_G at its fold image, each under
    warnings-as-errors: the value, or the message of a ValueError."""
    image = fold(chain.group, chain.chamber, p).image
    out = []
    for call in (lambda: apply_H(chain, p), lambda: apply_G(chain, image)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out.append(call())
            except ValueError as err:
                out.append(str(err))
    return out


def test_norm_overflow_is_named():
    # every coordinate is finite, but |p| exceeds the largest float
    chain = build_chain(preset_group("b3"))
    p = np.array([-1.7e308, 1.7e308, 1e308])
    assert math.hypot(*p) == math.inf
    for got in _overflowing_maps(chain, p):
        assert isinstance(got, str) and got.startswith("|p| overflows")


def test_box_sample_maps_or_names_the_overflow():
    # about half of a box reaching the float limit has |p| past it: those
    # points are refused by name, the rest map to finite values
    chain = build_chain(preset_group("b3"))
    points = 1.79e308 * np.random.default_rng(0).uniform(-1.0, 1.0, size=(2000, 3))
    overflowing = 0
    for p in points:
        over = math.hypot(*p) == math.inf
        overflowing += over
        for got in _overflowing_maps(chain, p):
            if over:
                assert isinstance(got, str) and got.startswith("|p| overflows"), p
            else:
                assert not isinstance(got, str) and np.all(np.isfinite(got)), p
    assert 800 < overflowing < 1200


@functools.cache
def _scale_chain(preset):
    return build_chain(preset_group(preset))


@given(preset=st.sampled_from(["a3", "b3"]),
       exponent=st.floats(-300.0, 300.0),
       coords=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       face_pick=st.integers(0, 6),
       element_pick=st.integers(0, 47))
@settings(max_examples=300, deadline=None)
def test_classify_and_eval_l_hold_at_every_scale(preset, exponent, coords,
                                                 face_pick, element_pick):
    # log10 |p| drawn from -300..300, at a generic point and at a point
    # inside a lower chamber face: a group element moves neither the level,
    # the dimension nor the wall count, and no square sum overflows or
    # underflows into a warning on the way
    chain = _scale_chain(preset)
    group, strat = chain.group, chain.stratification
    scale = 10.0 ** exponent
    g = group.elements[element_pick % group.order].matrix
    v = np.array(coords[:group.dimension])
    generic = v / max(np.linalg.norm(v), 1e-3) * scale
    lower = [f for f in strat.faces if f.level < chain.rank]
    face = lower[face_pick % len(lower)]
    weights = 0.1 + np.abs(coords[:len(face.inactive)])
    on_face = scale * (weights @ strat.edge_rays[list(face.inactive)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (generic, on_face):
            desc, moved = classify(group, p), classify(group, g @ p)
            assert (moved.level, moved.dimension, len(moved.walls_containing)) == (
                desc.level, desc.dimension, len(desc.walls_containing)), p
        level = classify(group, on_face).level
        radius = eval_l(chain, level, on_face)
    assert 0.0 < radius < math.inf
