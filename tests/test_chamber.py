"""Folding, stratum classification, and face distances.

Two independent oracles back the module:
  * folding is checked against a brute-force scan of the whole orbit for a
    translate lying in the chamber;
  * face distances are checked against a convex projection solved with
    scipy (grid seed + trust-constr polish, certified by its KKT system),
    which shares no code with the span-distance route of
    SmoothChain.lower_face_distances or with the subface enumeration in
    distance_oracle.
"""

import itertools
import math
import warnings
import zlib

import numpy as np
import pytest
import scipy.optimize

import stratum_oracle
from distance_oracle import _dist_by_subset_enumeration
from orbitfold import (
    build_chain,
    chamber_from_group,
    classify,
    fold,
    preset_group,
    strata_levels,
)
from orbitfold.chamber import (
    ON_WALL_TOL,
    _classify_rows,
    _fold_rows,
    _orthogonal_directions,
    _reflect_into_chamber,
)
from orbitfold.groups import generate_group
from normals_groups import named_group

PRESETS = ["i2-3", "i2-4", "a2", "b2", "a3", "b3"]


def make(preset):
    group = preset_group(preset)
    chamber = chamber_from_group(group)
    return group, chamber


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def orbit_fold_oracle(group, chamber, p):
    """All chamber representatives of the orbit of p, found by brute force."""
    hits = []
    for elem in group.elements:
        q = elem.matrix @ p
        scale = 1.0 + np.linalg.norm(q)
        if np.min(chamber.simple_normals @ q) >= -1e-10 * scale:
            hits.append(q)
    assert hits, "orbit never meets the chamber; chamber data is wrong"
    return hits


def _kkt_solve(basis, p, A, active):
    """Exact stationary point with the given constraints forced active.

    For min |p - B z|^2 with B orthonormal the system is linear:
    2 z - A_M^T lam = 2 B^T p and A_M z = 0.
    """
    d = basis.shape[1]
    m = len(active)
    lhs = np.zeros((d + m, d + m))
    lhs[:d, :d] = 2.0 * np.eye(d)
    rhs = np.zeros(d + m)
    rhs[:d] = 2.0 * basis.T @ p
    if m:
        am = A[list(active)]
        lhs[:d, d:] = -am.T
        lhs[d:, :d] = am
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return sol[:d], sol[d:]


def projection_dist_oracle(strat, face, p):
    """Distance to a closed face as a certified convex program.

    minimize ||p - B z||  subject to  <B z, n_j> >= 0 for inactive walls.
    A grid plus trust-constr locates the optimum and suggests which
    constraints bind; the KKT system for that active set is then solved
    exactly and certified (primal and dual feasibility), which pins the
    global optimum of this convex problem to machine precision.
    """
    basis = face.basis
    d = basis.shape[1]
    if d == 0:
        return float(np.linalg.norm(p))
    normals = strat.chamber.simple_normals
    A = normals[list(face.inactive)] @ basis if face.inactive else np.zeros((0, d))
    scale = 1.0 + float(np.linalg.norm(p))

    if not A.size:
        return float(np.linalg.norm(p - basis @ (basis.T @ p)))

    reach = 2.0 * np.linalg.norm(p) + 1.0
    pts = {1: 201, 2: 41, 3: 17, 4: 11}[d]
    axes = [np.linspace(-reach, reach, pts)] * d
    best_z = np.zeros(d)
    best_val = np.linalg.norm(p - basis @ best_z)
    for z in itertools.product(*axes):
        z = np.array(z)
        if np.min(A @ z) < -1e-12:
            continue
        val = np.linalg.norm(p - basis @ z)
        if val < best_val:
            best_val, best_z = val, z

    def objective(z):
        r = p - basis @ z
        return float(r @ r)

    def grad(z):
        return -2.0 * basis.T @ (p - basis @ z)

    res = scipy.optimize.minimize(
        objective, best_z, jac=grad, hess=lambda z: 2.0 * np.eye(d),
        method="trust-constr",
        constraints=[scipy.optimize.LinearConstraint(A, 0.0, np.inf)],
        options={"maxiter": 1000, "gtol": 1e-10},
    )
    z = res.x
    for act_tol in (1e-7, 1e-5, 1e-3, 1e-1):
        active = np.flatnonzero(A @ z <= act_tol * scale)
        z_ref, lam = _kkt_solve(basis, p, A, active)
        primal_ok = np.min(A @ z_ref) >= -1e-9 * scale
        dual_ok = lam.size == 0 or np.min(lam) >= -1e-9
        if primal_ok and dual_ok:
            return float(np.linalg.norm(p - basis @ z_ref))
    raise AssertionError("could not certify the convex projection")


# ---------------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------------

def test_fold_worked_example_b2():
    group, chamber = make("b2")
    result = fold(group, chamber, [-1.0, 2.0])
    assert np.allclose(result.image, [2.0, 1.0], atol=1e-12)
    assert result.steps == 2
    assert np.allclose(result.element.matrix @ np.array([-1.0, 2.0]), result.image, atol=1e-12)


def test_fold_of_chamber_point_is_identity():
    group, chamber = make("b2")
    result = fold(group, chamber, chamber.witness)
    assert result.steps == 0
    assert np.array_equal(result.element.matrix, np.eye(2))
    assert np.array_equal(result.image, chamber.witness)


@pytest.mark.parametrize("preset", PRESETS)
def test_fold_matches_orbit_scan(preset):
    group, chamber = make(preset)
    rng = np.random.default_rng(zlib.crc32(preset.encode()))
    for _ in range(25):
        p = rng.normal(size=group.dimension) * rng.uniform(0.2, 5.0)
        result = fold(group, chamber, p)
        assert chamber.contains(result.image, tol=1e-10)
        hits = orbit_fold_oracle(group, chamber, p)
        assert any(np.allclose(result.image, q, atol=1e-9) for q in hits)
        assert np.allclose(result.element.matrix @ p, result.image, atol=1e-10)


@pytest.mark.parametrize("preset", PRESETS)
def test_fold_is_orbit_invariant(preset):
    group, chamber = make(preset)
    rng = np.random.default_rng(99)
    p = rng.normal(size=group.dimension)
    base = fold(group, chamber, p).image
    for elem in group.elements:
        image = fold(group, chamber, elem.matrix @ p).image
        assert np.allclose(image, base, atol=1e-9)


def test_fold_is_idempotent():
    group, chamber = make("a3")
    rng = np.random.default_rng(7)
    for _ in range(10):
        first = fold(group, chamber, rng.normal(size=4))
        second = fold(group, chamber, first.image)
        assert second.steps == 0
        assert np.array_equal(second.image, first.image)


def test_fold_rejects_wrong_shape():
    group, chamber = make("b2")
    with pytest.raises(ValueError, match="shape"):
        fold(group, chamber, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("preset,point", [
    ("b2", [-1.0, -1.0]),   # orbit image (1,1) lies exactly on the diagonal mirror
    ("b2", [-2.0, 2.0]),
    ("a3", [-1.0, -1.0, 2.0, 0.0]),
    ("b3", [-1.0, -1.0, -1.0]),
])
def test_fold_terminates_on_exact_wall_orbits(preset, point):
    # Lattice points whose images land exactly on a mirror used to trip a
    # sub-ulp reflection loop: the computed wall dot comes out a few 1e-17
    # negative, but the correction is smaller than the float spacing, so the
    # point never moves.  Such points must count as inside.
    group, chamber = make(preset)
    result = fold(group, chamber, np.array(point, dtype=float))
    dots = chamber.simple_normals @ result.image
    assert dots.min() >= -1e-13


def test_fold_step_count_is_word_length():
    # Every fold step is one reflection, so the element's stored shortest
    # word can never be longer than the number of steps taken.
    group, chamber = make("b3")
    rng = np.random.default_rng(3)
    for _ in range(20):
        result = fold(group, chamber, rng.normal(size=3))
        assert len(result.element.word) <= result.steps


@pytest.mark.parametrize("preset", PRESETS)
def test_fold_and_fast_fold_agree_bitwise(preset):
    # fold and apply_H's entry _reflect_into_chamber must run the same loop:
    # identical images (bit for bit) and step counts on random points, on
    # points projected onto each mirror, and across scales.  The scale range
    # stops below ~1e154, where |p|^2 overflows.
    group, chamber = make(preset)
    rng = np.random.default_rng(11)
    points = [rng.normal(scale=2.0, size=group.dimension) for _ in range(50)]
    for m in group.mirrors:
        for _ in range(3):
            q = rng.normal(size=group.dimension)
            points.append(q - (q @ m.normal) * m.normal)
    for _ in range(50):
        q = rng.normal(size=group.dimension)
        points.append(q / np.linalg.norm(q) * 10.0 ** rng.uniform(-300, 150))
    for p in points:
        result = fold(group, chamber, p)
        image, word, walls = _reflect_into_chamber(chamber, p)
        assert result.image.tobytes() == image.tobytes()
        assert result.steps == len(word)
        # the wall values handed on are the image's own, where it was not rescaled
        if walls is not None:
            assert walls == (chamber.simple_normals @ image).tolist()


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_origin_is_minimal():
    for preset in PRESETS:
        group, _ = make(preset)
        desc = classify(group, np.zeros(group.dimension))
        assert desc.level == 0
        assert len(desc.walls_containing) == len(group.mirrors)
        assert desc.dimension == group.dimension - group.essential_rank


def test_classify_b2_examples():
    group, _ = make("b2")
    assert classify(group, [2.0, 1.0]).level == 2
    on_axis = classify(group, [1.0, 0.0])
    assert on_axis.level == 1
    assert len(on_axis.walls_containing) == 1
    on_diag = classify(group, [1.0, 1.0])
    assert on_diag.level == 1
    assert classify(group, [0.0, 0.0]).level == 0


def test_classify_a2_diagonal_is_minimal():
    group, _ = make("a2")
    desc = classify(group, [2.0, 2.0, 2.0])
    assert desc.level == 0
    assert desc.dimension == 1          # the fixed diagonal line survives
    assert len(desc.walls_containing) == 3


def test_classify_relative_tolerance_scales():
    group, _ = make("b2")
    # offset far below tol * (1 + |p|) is treated as on the wall
    assert classify(group, [1e3, 1e-8]).level == 1
    # same absolute offset at tiny scale is off the wall
    assert classify(group, [1.0, 5e-9]).level == 2


def test_classify_at_extreme_scales():
    # |p| ~ 4e200 overflows a plain square sum; the tolerance must still be
    # relative to 1 + |p| rather than inf. Near 0 the tolerance is about
    # ON_WALL_TOL itself, so a tiny point lies on every wall at level 0.
    group, _ = make("b3")
    p = np.array([3.0, 2.0, 1.0])
    regular = classify(group, p)
    assert regular.level == 3 and regular.walls_containing == ()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classify(group, p * 1e200) == regular
        tiny = classify(group, p * 1e-200)
    assert tiny.level == 0
    assert len(tiny.walls_containing) == len(group.mirrors) == 9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("preset", PRESETS + ["rank-1"])
def test_classify_past_the_largest_float_is_the_scaled_down_point(preset):
    # An inf |p_eff| would give an inf slack and put p on every wall at
    # level 0. Scaling by 2**-1000 is exact, so classify and
    # _classify_rows must give p the class of p*2**-1000: generic points,
    # points within 1e-12 relative of a mirror, and (1.7, -1.7, 1)*1e308
    # cut to the dimension, on one wall of b2 and of b3.
    group = generate_group([[1.0]]) if preset == "rank-1" else preset_group(preset)
    dim = group.dimension
    rng = np.random.default_rng(37)
    units = rng.normal(size=(40, dim))
    normals = group.mirror_normals[rng.integers(len(group.mirrors), size=40)]
    units[1::2] -= (1.0 - 1e-12) * (np.sum(units * normals, axis=1)[:, None] * normals)[1::2]
    big = (units / np.max(np.abs(units), axis=1)[:, None]) * (
        rng.uniform(1.0, 1.79, size=(40, 1)) * 1e308)
    big = np.vstack([big, np.resize([1.7e308, -1.7e308, 1e308], dim)])
    small = np.ldexp(big, -1000)
    if dim > 1:
        assert sum(math.hypot(*p) == math.inf for p in big) >= 5
    for p, q in zip(big, small):
        assert classify(group, p) == classify(group, q), p
    for got, want in zip(_classify_rows(group, big), _classify_rows(group, small)):
        assert got.tolist() == want.tolist()
    if preset in ("b2", "b3"):
        last = classify(group, big[-1])
        assert last.level == group.essential_rank - 1 and len(last.walls_containing) == 1


@pytest.mark.parametrize("preset,offsets", [
    ("a3", ([3.0, 1.0, -0.5, -3.5], [1.0, 1.0, 0.0, -2.0])),
    ("a2", ([2.0, 0.5, -2.5], [1.0, 1.0, -2.0])),
], ids=["a3", "a2"])
def test_classify_on_and_near_the_fixed_line(preset, offsets):
    # the fixed line is level 0, on every mirror, however large; the split
    # p - p_fixed rounds at a few ulps of |p_fixed|, which must not move a
    # point off a mirror. An essential offset of 1e-3 |p| keeps its own
    # class: generic, or on the one mirror it lies on.
    group, _ = make(preset)
    ones = np.ones(group.dimension)
    for scale in (1.0, 1e7, 1e13, 1e100, 1e300):
        for sign in (1.0, -1.0):
            fixed = sign * scale * ones
            desc = classify(group, fixed)
            assert desc.level == 0, (scale, desc)
            assert desc.walls_containing == tuple(range(len(group.mirrors)))
            for offset in offsets:
                q = 1e-3 * scale * np.array(offset)
                assert classify(group, fixed + q) == classify(group, q), (scale, offset)
    generic, on_wall = (classify(group, offsets[0]), classify(group, offsets[1]))
    assert generic.level == group.essential_rank and generic.walls_containing == ()
    assert on_wall.level == group.essential_rank - 1 and len(on_wall.walls_containing) == 1


@pytest.mark.parametrize("preset", ["b2", "a3", "b3"])
def test_classify_agrees_with_face_lattice(preset):
    group, chamber = make(preset)
    strat = strata_levels(group, chamber)
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = fold(group, chamber, rng.normal(size=group.dimension)).image
        if np.min(np.abs(chamber.simple_normals @ p)) < 1e-6:
            continue   # keep the sample unambiguous for the strict test
        desc = classify(group, p)
        homes = [f for f in strat.faces if in_relative_interior(strat, f, p)]
        assert len(homes) == 1
        assert homes[0].level == desc.level


# ---------------------------------------------------------------------------
# face lattice
# ---------------------------------------------------------------------------

def in_relative_interior(strat, face, p):
    """Membership of p in the face's relative interior: in the closed face,
    and clear of every inactive wall by more than ON_WALL_TOL*(1 + |p|)."""
    tol = ON_WALL_TOL * (1.0 + float(np.linalg.norm(p)))
    return stratum_oracle.face_contains(strat, face, p) and all(
        float(strat.chamber.simple_normals[j] @ p) > tol for j in face.inactive)


@pytest.mark.parametrize("preset,counts", [
    ("b2", {0: 1, 1: 2, 2: 1}),
    ("a2", {0: 1, 1: 2, 2: 1}),
    ("a3", {0: 1, 1: 3, 2: 3, 3: 1}),
    ("b3", {0: 1, 1: 3, 2: 3, 3: 1}),
])
def test_face_counts_per_level(preset, counts):
    group, chamber = make(preset)
    strat = strata_levels(group, chamber)
    assert {lv: len(ix) for lv, ix in strat.by_level.items()} == counts
    assert len(strat.faces) == 2 ** group.essential_rank


def test_edge_rays_b2():
    group, chamber = make("b2")
    strat = strata_levels(group, chamber)
    rays = {tuple(np.round(r, 9)) for r in strat.edge_rays}
    s = 1.0 / np.sqrt(2.0)
    assert rays == {(1.0, 0.0), (round(s, 9), round(s, 9))}


@pytest.mark.parametrize("preset", PRESETS)
def test_interior_points_live_on_their_faces(preset):
    group, chamber = make(preset)
    strat = strata_levels(group, chamber)
    for face in strat.faces:
        pt = strat.interior_point(face, radius=2.0)
        assert stratum_oracle.face_contains(strat, face, pt)
        if face.inactive:
            assert in_relative_interior(strat, face, pt)
        desc = classify(group, pt)
        assert desc.level == face.level


def test_witness_is_interior():
    for preset in PRESETS:
        group, chamber = make(preset)
        assert np.min(chamber.simple_normals @ chamber.witness) > 1e-6


def test_face_span_contains_fixed_subspace():
    group, chamber = make("a2")
    strat = strata_levels(group, chamber)
    diag = np.ones(3) / np.sqrt(3.0)
    for face in strat.faces:
        proj = face.project_to_span(diag)
        assert np.allclose(proj, diag, atol=1e-12)


@pytest.mark.parametrize("preset", PRESETS)
def test_face_normal_is_the_unit_sum_of_its_active_normals(preset):
    """Each face with an active wall carries the unit sum of its active
    normals, orthogonal to its span; the open chamber carries None."""
    group, chamber = make(preset)
    for face in strata_levels(group, chamber).faces:
        if not face.active:
            assert face.normal is None
            continue
        total = chamber.simple_normals[list(face.active)].sum(axis=0)
        assert np.array_equal(face.normal, total / np.linalg.norm(total))
        assert np.linalg.norm(face.normal) == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(face.basis.T @ face.normal, 0.0, atol=1e-15)


@pytest.mark.parametrize("preset", PRESETS)
def test_orthogonal_directions_leave_the_span(preset):
    group, chamber = make(preset)
    for face in strata_levels(group, chamber).faces:
        dirs = _orthogonal_directions(face.basis, np.random.default_rng(5), 4)
        # the open chamber spans everything: every draw is dropped
        assert len(dirs) == (0 if not face.active else 4)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.allclose(dirs @ face.basis, 0.0, atol=1e-14)


def test_orthogonal_directions_of_an_empty_basis_are_normalized_draws():
    draws = np.random.default_rng(3).normal(size=(3, 4))
    dirs = _orthogonal_directions(np.zeros((4, 0)), np.random.default_rng(3), 3)
    assert np.array_equal(dirs, draws / np.linalg.norm(draws, axis=1)[:, None])


def _directions_one_draw_at_a_time(basis, rng, count):
    """The oracle of _orthogonal_directions' block draws: one Gaussian draw
    per step, projected and normalised alone, at most 4*count draws."""
    out = []
    for _ in range(count * 4):
        v = rng.normal(size=basis.shape[0])
        v = v - basis @ (basis.T @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            out.append(v / norm)
        if len(out) == count:
            break
    return np.reshape(out, (len(out), basis.shape[0]))


class _SpanFirst:
    """A Generator whose first normal draw is replaced by a given vector."""

    def __init__(self, seed, first):
        self.rng, self.first = np.random.default_rng(seed), first

    def normal(self, size):
        v = self.rng.normal(size=size)
        if self.first is not None:
            v.reshape(-1, len(self.first))[0] = self.first
            self.first = None
        return v


@pytest.mark.parametrize("name", PRESETS + ["H3", "B4", "F4"])
def test_orthogonal_directions_match_one_draw_at_a_time(name):
    group = named_group(name)
    n = group.dimension
    bases = [face.basis for face in strata_levels(group, chamber_from_group(group)).faces]
    for basis in bases + [np.zeros((n, 0))]:
        for count in (1, 2, 4):
            pairs = [(np.random.default_rng(11), np.random.default_rng(11))]
            if basis.shape[1]:
                # a first draw in the span is dropped, and one more is made
                pairs.append((_SpanFirst(11, basis[:, 0]), _SpanFirst(11, basis[:, 0])))
            for rng, oracle_rng in pairs:
                got = _orthogonal_directions(basis, rng, count)
                want = _directions_one_draw_at_a_time(basis, oracle_rng, count)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                # the stream goes on where the oracle's does
                assert rng.normal(size=3).tobytes() == oracle_rng.normal(size=3).tobytes()


@pytest.mark.parametrize("name", ["i2-5", "i2-8", "a2", "b2", "a3", "b3", "H3", "B4", "F4"])
def test_folds_end_within_one_step_per_mirror(name):
    # a fold by simple reflections crosses each mirror at most once, so N =
    # |mirrors|, the length of the longest element, bounds its word
    group = named_group(name)
    chamber = build_chain(group).chamber
    steps = len(group.mirrors)
    assert chamber.fold_steps == steps
    rng = np.random.default_rng(23)
    n = group.dimension
    gaussian = rng.normal(size=(16, n))
    on_mirrors = np.concatenate([
        q - np.outer(q @ m, m) for m in group.mirror_normals
        for q in [rng.normal(size=(2, n))]])
    units = np.concatenate([gaussian, on_mirrors])
    units /= np.linalg.norm(units, axis=1)[:, None]
    points = np.concatenate([units * scale for scale in (1e-300, 1e-8, 1.0, 1e8, 1e300)])
    images = []
    for p in points:
        image, word, _ = _reflect_into_chamber(chamber, p)
        assert len(word) <= steps
        images.append(image)
    assert _fold_rows(chamber, points).tobytes() == np.array(images).tobytes()


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def lower_distances(chain, level, p):
    """{face.active: distance} for every face below `level`, from
    SmoothChain.lower_face_distances."""
    lower = [f for f in chain.stratification.faces if f.level < level]
    return dict(zip([f.active for f in lower], chain.lower_face_distances(level, p)))


def test_dist_to_level_b2_analytic():
    group, chamber = make("b2")
    strat = strata_levels(group, chamber)
    chain = build_chain(group)
    p = np.array([2.0, 1.0])
    # nearest wall point: (2, 0) on the axis vs (1.5, 1.5) on the diagonal
    walls = min(_dist_by_subset_enumeration(strat, f, p) for f in strat.faces_at_level(1))
    assert walls == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert lower_distances(chain, 1, p) == {(0, 1): pytest.approx(np.sqrt(5.0), abs=1e-12)}


def test_dist_to_level_clamps_to_cone_apex():
    group, chamber = make("b2")
    strat = strata_levels(group, chamber)
    # p points away from both wall rays, so the apex is nearest at level 1;
    # the reference is exact off the chamber as well
    p = np.array([-3.0, 0.5])
    expected = np.linalg.norm(p)
    walls = min(_dist_by_subset_enumeration(strat, f, p) for f in strat.faces_at_level(1))
    assert walls == pytest.approx(expected, abs=1e-12)


def test_dist_to_minimal_level_is_effective_norm():
    # the minimal face is the fixed subspace itself, so the span distance
    # is exact at every point, off the chamber too
    chain = build_chain(preset_group("a2"))
    rng = np.random.default_rng(21)
    for _ in range(10):
        p = rng.normal(size=3)
        expected = np.linalg.norm(p - np.mean(p))   # distance to the diagonal
        assert chain.lower_face_distances(1, p)[0] == pytest.approx(expected, abs=1e-10)


def test_on_face_points_have_zero_distance():
    group, chamber = make("b3")
    chain = build_chain(group)
    strat = chain.stratification
    for face in strat.faces:
        pt = strat.interior_point(face, radius=3.0)
        assert _dist_by_subset_enumeration(strat, face, pt) <= 1e-10
        for level in range(face.level + 1, chain.rank):
            assert lower_distances(chain, level, pt)[face.active] <= 1e-10


@pytest.mark.parametrize("preset", ["b2", "a2", "a3", "b3"])
def test_dist_to_face_matches_convex_projection(preset):
    # folded points lie in the closed chamber, where the span distance of
    # every level's stack is the exact distance to each lower face
    group, chamber = make(preset)
    chain = build_chain(group)
    strat = chain.stratification
    rng = np.random.default_rng(zlib.crc32(preset.encode()))
    points = [rng.normal(size=group.dimension) * s for s in (0.5, 1.0, 3.0)]
    points.append(rng.normal(size=group.dimension))
    for p in points:
        x = fold(group, chamber, p).image
        want = {f.active: projection_dist_oracle(strat, f, x)
                for f in strat.faces if f.level < chain.rank - 1}
        for level in range(1, chain.rank):
            for active, got in lower_distances(chain, level, x).items():
                assert got == pytest.approx(want[active], abs=2e-6), (active, x)
