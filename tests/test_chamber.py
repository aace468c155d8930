"""Folding, stratum classification, and face distances.

Two independent oracles back the module:
  * folding is checked against a brute-force scan of the whole orbit for a
    translate lying in the chamber;
  * face distances are checked against a convex projection solved with
    scipy (grid seed + SLSQP polish), which shares no code with the
    subface-enumeration route.
"""

import itertools

import numpy as np
import pytest
import scipy.optimize

from orbitfold import (
    chamber_from_group,
    classify,
    dist_to_face,
    fold,
    preset_group,
    strata_levels,
)
from orbitfold.chamber import _EXIT_MARGIN, _fold_image, _null_space_basis

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
    rng = np.random.default_rng(hash(preset) % 2**32)
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
    # fold and the fast entry _fold_image must run the same reflection loop:
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
        image, steps = _fold_image(chamber.simple_normals, p, group.order)
        assert result.image.tobytes() == image.tobytes()
        assert result.steps == steps


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


@pytest.mark.parametrize("preset", ["b2", "a3", "b3"])
def test_classify_agrees_with_face_lattice(preset):
    group, chamber = make(preset)
    strat = strata_levels(group, chamber)
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = fold(group, chamber, rng.normal(size=group.dimension)).image
        if np.min(np.abs(chamber.inequality_values(p))) < 1e-6:
            continue   # keep the sample unambiguous for the strict test
        desc = classify(group, p)
        homes = [f for f in strat.faces
                 if strat.face_contains(f, p, strict_interior=True)]
        assert len(homes) == 1
        assert homes[0].level == desc.level


# ---------------------------------------------------------------------------
# face lattice
# ---------------------------------------------------------------------------

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
        assert strat.face_contains(face, pt)
        if face.inactive:
            assert strat.face_contains(face, pt, strict_interior=True)
        desc = classify(group, pt)
        assert desc.level == face.level


def test_witness_is_interior():
    for preset in PRESETS:
        group, chamber = make(preset)
        assert np.min(chamber.inequality_values(chamber.witness)) > 1e-6


def test_face_span_contains_fixed_subspace():
    group, chamber = make("a2")
    strat = strata_levels(group, chamber)
    diag = np.ones(3) / np.sqrt(3.0)
    for face in strat.faces:
        proj = face.project_to_span(diag)
        assert np.allclose(proj, diag, atol=1e-12)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def level_dist(strat, level, p):
    """Distance from p to the union of the closed faces at one level."""
    return min(dist_to_face(f, p) for f in strat.faces_at_level(level))


def test_dist_to_level_b2_analytic():
    group, chamber = make("b2")
    strat = strata_levels(group, chamber)
    p = np.array([2.0, 1.0])
    # nearest wall point: (2, 0) on the axis vs (1.5, 1.5) on the diagonal
    assert level_dist(strat, 1, p) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert level_dist(strat, 0, p) == pytest.approx(np.sqrt(5.0), abs=1e-12)


def test_dist_to_level_clamps_to_cone_apex():
    group, chamber = make("b2")
    strat = strata_levels(group, chamber)
    # p points away from both wall rays, so the apex is nearest at level 1
    p = np.array([-3.0, 0.5])
    expected = np.linalg.norm(p)
    assert level_dist(strat, 1, p) == pytest.approx(expected, abs=1e-12)


def test_dist_to_minimal_level_is_effective_norm():
    group, chamber = make("a2")
    strat = strata_levels(group, chamber)
    rng = np.random.default_rng(21)
    for _ in range(10):
        p = rng.normal(size=3)
        expected = np.linalg.norm(p - np.mean(p))   # distance to the diagonal
        assert level_dist(strat, 0, p) == pytest.approx(expected, abs=1e-10)


def test_on_face_points_have_zero_distance():
    group, chamber = make("b3")
    strat = strata_levels(group, chamber)
    for face in strat.faces:
        pt = strat.interior_point(face, radius=3.0)
        assert dist_to_face(face, pt) <= 1e-10


@pytest.mark.parametrize("preset", ["b2", "a2", "a3", "b3"])
def test_dist_to_face_matches_convex_projection(preset):
    group, chamber = make(preset)
    strat = strata_levels(group, chamber)
    rng = np.random.default_rng(hash(preset) % 2**31)
    points = [rng.normal(size=group.dimension) * s for s in (0.5, 1.0, 3.0)]
    points.append(fold(group, chamber, rng.normal(size=group.dimension)).image)
    for p in points:
        for face in strat.faces:
            got = dist_to_face(face, p)
            want = projection_dist_oracle(strat, face, p)
            assert got == pytest.approx(want, abs=2e-6), (face.active, p)


def _dist_by_subset_enumeration(strat, face, p):
    """Frozen copy of the subset enumeration that the subface table replaced:
    every subface basis is rebuilt from its active walls on each call."""
    p = np.asarray(p, dtype=float)
    normals = strat.chamber.simple_normals
    dim = normals.shape[1]
    scale = 1.0 + float(np.linalg.norm(p))
    best = np.inf
    inactive = face.inactive
    for extra in itertools.chain.from_iterable(
        itertools.combinations(inactive, r) for r in range(len(inactive) + 1)
    ):
        basis = _null_space_basis(normals[sorted(face.active + extra)], dim)
        q = basis @ (basis.T @ p)
        rest = [j for j in inactive if j not in extra]
        if rest and np.min(normals[rest] @ q) < -1e-9 * scale:
            continue
        d = float(np.linalg.norm(p - q))
        if d < best:
            best = d
    return best


def _entry_zero_margin_points(strat, factor, rng):
    """For each face and each of its inactive walls j, a point p off the
    face's span whose projection q onto the span meets wall j at
    <q, n_j> = factor*mu, mu = _EXIT_MARGIN*(1 + |p|), and clears the other
    inactive walls by far more. Returns (face, j, p) triples."""
    normals = strat.chamber.simple_normals
    by_active = {f.active: f for f in strat.faces}
    out = []
    for face in strat.faces:
        for j in face.inactive:
            x = strat.interior_point(by_active[tuple(sorted(face.active + (j,)))])
            w = rng.normal(size=len(x))
            w = w - face.project_to_span(w)
            if np.linalg.norm(w) > 0:
                w = 0.5 * w / np.linalg.norm(w)
            u = face.project_to_span(normals[j])
            mu = _EXIT_MARGIN * (1.0 + np.linalg.norm(x + w))
            out.append((face, j, x + w + factor * mu * u / (u @ u)))
    return out


@pytest.mark.parametrize("preset", PRESETS)
def test_dist_to_face_agrees_bitwise_with_subset_enumeration(preset):
    # The per-face subface table must walk the same subfaces, in the same
    # order, with the same arithmetic as the enumeration it replaced: equal
    # results bit for bit on random points, on face points x and points
    # within 1e-10*(1+|x|) of them, and across scales. Its early exit at
    # entry 0 must not change a bit either, also at a wall clearance of
    # half and twice the margin that decides between exit and walk.
    group, chamber = make(preset)
    strat = strata_levels(group, chamber)
    rng = np.random.default_rng(17)
    n = group.dimension
    points = [rng.normal(scale=2.0, size=n) for _ in range(40)]
    for face in strat.faces:
        for radius in (0.3, 1.0, 4.0):
            x = strat.interior_point(face, radius=radius)
            points.append(x)
            for _ in range(3):
                v = rng.normal(size=n)
                offset = 1e-10 * (1.0 + np.linalg.norm(x)) * rng.uniform()
                points.append(x + offset * v / np.linalg.norm(v))
    for _ in range(40):
        q = rng.normal(size=n)
        points.append(q / np.linalg.norm(q) * 10.0 ** rng.uniform(-300, 150))
    for p in points:
        for face in strat.faces:
            assert dist_to_face(face, p) == _dist_by_subset_enumeration(
                strat, face, p), (face.active, p)
    if preset == "a3":
        # entry 0 of face (1,) gives 9.614813431917819e-17 at clearance 0,
        # so the walk runs on to a smaller rounding-level distance
        by_active = {f.active: f for f in strat.faces}
        x = strat.interior_point(by_active[(0, 1)], radius=1.0)
        assert dist_to_face(by_active[(1,)], x) == 7.850462293418876e-17
    for factor in (0.5, 2.0):
        for face, j, p in _entry_zero_margin_points(strat, factor, rng):
            q = face.project_to_span(p)
            mu = _EXIT_MARGIN * (1.0 + np.linalg.norm(p))
            assert np.min(face.inactive_normals @ q) == pytest.approx(
                factor * mu, rel=1e-6), (face.active, j)
            for other in strat.faces:
                assert dist_to_face(other, p) == _dist_by_subset_enumeration(
                    strat, other, p), (face.active, j, other.active)
