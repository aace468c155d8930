"""Concrete actions: eigenvalue section, radial section, equidistance."""

import itertools
import sys
import warnings

import numpy as np
import pytest

from orbitfold.calculus import curve_jump_probe
from orbitfold.chamber import classify, fold
from orbitfold.polar import (
    CrossingCurve,
    eigen_crossing_curve,
    equidistance_probe,
    jacobi_eigensystem,
    model_H,
    radial_model,
    random_rotation,
    sym_eig_model,
    sym_to_matrix,
)
from orbitfold.smoothing import build_chain


@pytest.fixture(scope="module")
def sym_setup():
    model = sym_eig_model()
    chain = build_chain(model.weyl)
    return model, chain


@pytest.fixture(scope="module")
def radial_setup():
    model = radial_model(4)
    chain = build_chain(model.weyl)
    return model, chain


def random_sym(rng, scale=2.0):
    T = rng.normal(size=(3, 3)) * scale
    return 0.5 * (T + T.T)


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

class TestJacobi:
    def test_against_library_solver(self):
        # dual route: hand-rolled rotations vs numpy's LAPACK path, on 3,000
        # matrices at scales 10^U(-3, 3), every fifth with a repeated
        # eigenvalue pair; the error bound is relative to 1 + max|A|
        rng = np.random.default_rng(8)
        worst = 0.0
        for k in range(3000):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            if k % 5 == 0:
                a, c = rng.normal(size=2)
                Q = random_rotation(rng)
                S = Q @ np.diag([a, a, c]) @ Q.T * scale
                S = 0.5 * (S + S.T)
            else:
                S = random_sym(rng, scale)
            vals, _ = jacobi_eigensystem(S)
            want = np.linalg.eigvalsh(S)[::-1]
            worst = max(worst, np.max(np.abs(vals - want)) / (1.0 + np.max(np.abs(S))))
        assert worst < 1e-14

    def test_eigenvector_residuals(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            S = random_sym(rng)
            vals, V = jacobi_eigensystem(S)
            assert np.max(np.abs(S @ V - V * vals)) < 1e-9
            assert np.max(np.abs(V.T @ V - np.eye(3))) < 1e-12
            assert np.linalg.det(V) > 0

    def test_diagonal_is_sorted_not_rotated(self):
        # all six orderings of (3, 2, 1); for the three odd permutations the
        # sorted frame has det -1 until the sign fix negates its last column
        for perm in itertools.permutations(range(3)):
            vals, V = jacobi_eigensystem(np.diag(np.array([3.0, 2.0, 1.0])[list(perm)]))
            assert vals.tolist() == [3.0, 2.0, 1.0]
            expected = np.zeros((3, 3))
            expected[range(3), list(perm)] = 1.0     # column perm[j] is +-e_j
            assert np.array_equal(np.abs(V), expected), perm
            assert np.linalg.det(V) == pytest.approx(1.0, abs=1e-15), perm

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigensystem(np.array([[1.0, 2.0, 0], [0, 1, 0], [0, 0, 1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, sym_setup, bad):
        model, chain = sym_setup
        S = np.eye(3)
        S[1, 2] = S[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"entry \(1, 2\) is not finite"):
                jacobi_eigensystem(S)
            with pytest.raises(ValueError, match=r"entry \(1, 2\) is not finite"):
                model_H(model, chain, S)

    def test_near_degenerate_pair(self):
        rng = np.random.default_rng(2)
        Q = random_rotation(rng)
        S = Q @ np.diag([2.0, 2.0 + 1e-9, -1.0]) @ Q.T
        vals, _ = jacobi_eigensystem(S)
        assert abs(vals[0] - 2.0) < 1e-8
        assert abs(vals[2] + 1.0) < 1e-10


class TestSymCoords:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=6)
        S = sym_to_matrix(v)
        assert np.array_equal(S, S.T)
        # (a11, a22, a33, a12, a13, a23) read back from the matrix
        assert np.array_equal([S[0, 0], S[1, 1], S[2, 2], S[0, 1], S[0, 2], S[1, 2]], v)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            sym_to_matrix(np.zeros(5))
        with pytest.raises(ValueError, match="3x3"):
            jacobi_eigensystem(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# the eigenvalue model
# ---------------------------------------------------------------------------

class TestSymModel:
    def test_sorted_diagonal(self, sym_setup):
        model, _ = sym_setup
        out = model.section_map(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(out, [3.0, 2.0, 1.0], atol=1e-14)

    def test_repeated_pair_lands_on_wall(self, sym_setup):
        model, _ = sym_setup
        rng = np.random.default_rng(4)
        Q = random_rotation(rng)
        S = Q @ np.diag([2.0, 2.0, -1.0]) @ Q.T
        out = model.section_map(S)
        assert np.allclose(out, [2.0, 2.0, -1.0], atol=1e-10)
        desc = classify(model.weyl, out, tol=1e-8)
        assert len(desc.walls_containing) == 1

    def test_conjugation_invariance_of_section(self, sym_setup):
        model, chain = sym_setup
        rng = np.random.default_rng(5)
        for _ in range(25):
            S = random_sym(rng)
            base = model.section_map(S)
            for _ in range(4):
                Q = random_rotation(rng)
                out = model.section_map(Q @ S @ Q.T)
                assert np.max(np.abs(out - base)) < 1e-9

    def test_section_point_is_already_folded(self, sym_setup):
        # descending sort realizes the fold: folding the section point
        # moves nothing
        model, chain = sym_setup
        rng = np.random.default_rng(6)
        S = random_sym(rng)
        v = model.section_map(S)
        res = fold(model.weyl, chain.chamber, v)
        assert res.steps == 0
        assert np.array_equal(res.image, v)

    def test_model_H_orbit_invariance(self, sym_setup):
        model, chain = sym_setup
        rng = np.random.default_rng(7)
        for _ in range(20):
            S = random_sym(rng)
            base = model_H(model, chain, S)
            for _ in range(5):
                Q = random_rotation(rng)
                out = model_H(model, chain, Q @ S @ Q.T)
                assert np.max(np.abs(out - base)) < 1e-9

    def test_identity_matrix_fixed(self, sym_setup):
        # (1,1,1) sits on the fixed diagonal line; the composite moves it
        # only by span-projection rounding (about one ulp).
        model, chain = sym_setup
        out = model_H(model, chain, np.eye(3))
        assert np.max(np.abs(out - np.ones(3))) < 1e-12

    def test_accepts_six_coordinates(self, sym_setup):
        model, chain = sym_setup
        S = np.diag([3.0, 1.0, 2.0])
        a = model_H(model, chain, S)
        b = model_H(model, chain, np.array([3.0, 1.0, 2.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(a, b)

    def test_level_set_fidelity(self, sym_setup):
        # equal spectra -> equal H; well-separated spectra -> separated H
        model, chain = sym_setup
        rng = np.random.default_rng(8)
        spec1 = np.array([3.0, 1.0, -0.5])
        spec2 = np.array([2.5, 1.4, -0.9])
        h1 = model_H(model, chain, np.diag(spec1))
        h2 = model_H(model, chain, np.diag(spec2))
        assert np.linalg.norm(h1 - h2) >= 1e-8
        for _ in range(10):
            Q = random_rotation(rng)
            same = model_H(model, chain, Q @ np.diag(spec1) @ Q.T)
            assert np.max(np.abs(same - h1)) < 1e-9

    def test_wrong_chain_rejected(self, sym_setup, radial_setup):
        model, _ = sym_setup
        _, radial_chain = radial_setup
        with pytest.raises(ValueError, match="folding group"):
            model_H(model, radial_chain, np.eye(3))


# ---------------------------------------------------------------------------
# the radial model
# ---------------------------------------------------------------------------

class TestRadialModel:
    def test_requires_two_dimensions(self):
        with pytest.raises(ValueError):
            radial_model(1)

    def test_origin_maps_to_zero(self, radial_setup):
        model, chain = radial_setup
        assert np.array_equal(model_H(model, chain, np.zeros(4)), np.zeros(1))

    def test_tail_is_exact(self, radial_setup):
        model, chain = radial_setup
        p = np.array([2.0, 0.0, 0.0, 0.0])
        out = model_H(model, chain, p)
        assert abs(out[0] - 2.0) < 1e-15

    def test_rotation_invariance(self, radial_setup):
        model, chain = radial_setup
        rng = np.random.default_rng(9)
        p = rng.normal(size=4)
        base = model_H(model, chain, p)
        for _ in range(10):
            Q = random_rotation(rng, n=4)
            out = model_H(model, chain, Q @ p)
            assert np.max(np.abs(out - base)) < 1e-12

    def test_shape_check(self, radial_setup):
        model, _ = radial_setup
        with pytest.raises(ValueError):
            model.section_map(np.zeros(3))


# ---------------------------------------------------------------------------
# equidistance of level sets
# ---------------------------------------------------------------------------

class TestEquidistance:
    def test_spheres_are_exactly_equidistant(self, radial_setup):
        model, chain = radial_setup
        rep = equidistance_probe(model, chain, np.array([1.0]), np.array([1.7]),
                                 samples=12, seed=0)
        assert rep.spread <= 1e-8
        assert rep.analytic == pytest.approx(0.7)
        for d in rep.distances:
            assert d == pytest.approx(0.7, abs=1e-12)

    def test_matrix_orbits_equidistant(self, sym_setup):
        model, chain = sym_setup
        v1 = np.array([3.0, 1.0, -0.5])
        v2 = np.array([2.6, 1.2, -0.7])
        rep = equidistance_probe(model, chain, v1, v2, samples=8, seed=1)
        assert rep.spread <= 1e-3
        # optimized distances agree with the sorted-spectrum formula
        for d in rep.distances:
            assert abs(d - rep.analytic) < 1e-6

    def test_identical_values_give_zero(self, sym_setup):
        model, chain = sym_setup
        v = np.array([3.0, 1.0, -0.5])
        rep = equidistance_probe(model, chain, v, v, samples=3, seed=2)
        assert max(rep.distances) < 1e-6
        assert rep.analytic == 0.0

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sample_count_below_one_rejected(self, radial_setup, samples):
        model, chain = radial_setup
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            equidistance_probe(model, chain, np.array([1.0]), np.array([1.7]),
                               samples=samples)

    def test_wall_value_rejected(self, sym_setup):
        model, chain = sym_setup
        with pytest.raises(ValueError, match="regular"):
            equidistance_probe(model, chain, np.array([2.0, 2.0, -1.0]),
                               np.array([3.0, 1.0, -0.5]))

    def test_radial_origin_rejected(self, radial_setup):
        model, chain = radial_setup
        with pytest.raises(ValueError, match="regular"):
            equidistance_probe(model, chain, np.array([0.0]), np.array([1.0]))

    def test_matrix_probe_runs_without_scipy(self, sym_setup, monkeypatch):
        model, chain = sym_setup
        monkeypatch.setitem(sys.modules, "scipy", None)   # import scipy raises
        rep = equidistance_probe(model, chain, np.array([3.0, 1.0, -0.5]),
                                 np.array([2.6, 1.2, -0.7]), samples=4, seed=1)
        assert rep.spread <= 1e-3
        for d in rep.distances:
            assert abs(d - rep.analytic) < 1e-6

    def test_unsorted_value_is_folded_first(self, sym_setup):
        model, chain = sym_setup
        a = equidistance_probe(model, chain, np.array([1.0, 3.0, -0.5]),
                               np.array([2.6, 1.2, -0.7]), samples=2, seed=3)
        b = equidistance_probe(model, chain, np.array([3.0, 1.0, -0.5]),
                               np.array([2.6, 1.2, -0.7]), samples=2, seed=3)
        # folding computes the image through reflections, so agreement is
        # to rounding rather than bitwise
        assert abs(a.analytic - b.analytic) < 1e-12


# ---------------------------------------------------------------------------
# smoothing contrast along wall crossings
# ---------------------------------------------------------------------------

class TestCrossingCurves:
    def test_curve_geometry(self):
        curve = eigen_crossing_curve(seed=5)
        assert isinstance(curve, CrossingCurve)
        vals0, _ = jacobi_eigensystem(curve(0.0))
        assert abs(vals0[0] - vals0[1]) < 1e-12  # starts on the wall
        assert curve.derivative_gap == 1.0

    def test_raw_eigenvalues_keep_their_kink(self, sym_setup):
        model, _ = sym_setup
        curve = eigen_crossing_curve(seed=5)
        rep = curve_jump_probe(lambda s: model.section_map(curve(s)))
        # the sorted-spectrum derivative gap survives at every offset
        assert rep.jumps[1][0] == pytest.approx(curve.derivative_gap, rel=0.05)
        assert min(rep.jumps[1]) >= 0.1
        assert abs(rep.slopes[1]) <= 0.1

    def test_smoothed_map_kills_the_kink(self, sym_setup):
        model, chain = sym_setup
        for seed in (5, 6):
            curve = eigen_crossing_curve(seed=seed)
            rep = curve_jump_probe(lambda s: model_H(model, chain, curve(s)))
            assert rep.slopes[1] >= 0.8

    def test_gap_validation(self):
        with pytest.raises(ValueError):
            eigen_crossing_curve(seed=0, gap=-1.0)
