"""Group construction tests, checked against a brute-force closure oracle.

The oracle below closes a set of orthogonal matrices under pairwise products
by fixed-point iteration. It shares no code with the package's breadth-first
construction, so order counts and element sets are cross-checked by two
independent routes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitfold import (
    GroupClosureError,
    Hyperplane,
    essential_split,
    generate_group,
    preset_group,
)
from orbitfold.groups import UNIT_TOL, _as_unit_vector, reflection_matrix
from orbitfold.verify import check_closure

TOL = 1e-9


def brute_force_closure(mats, cap=20000):
    """Oracle: close matrices under products by fixed-point iteration."""
    def key(m):
        return (np.round(m, 7) + 0.0).tobytes()

    table = {key(np.eye(mats[0].shape[0])): np.eye(mats[0].shape[0])}
    for m in mats:
        table[key(m)] = m
    while True:
        new = {}
        items = list(table.values())
        for a in items:
            for b in items:
                p = a @ b
                k = key(p)
                if k not in table and k not in new:
                    new[k] = p
        if not new:
            return list(table.values())
        table.update(new)
        if len(table) > cap:
            raise RuntimeError("oracle closure exceeded cap")


def same_element_sets(mats_a, mats_b):
    if len(mats_a) != len(mats_b):
        return False
    used = set()
    for a in mats_a:
        hit = None
        for j, b in enumerate(mats_b):
            if j not in used and np.all(np.abs(a - b) <= TOL):
                hit = j
                break
        if hit is None:
            return False
        used.add(hit)
    return True


# ---------------------------------------------------------------------------
# frozen expected values (from the brute-force oracle, computed once below)
# ---------------------------------------------------------------------------

PRESET_ORDERS = {("I2", 3): 6, ("I2", 4): 8, ("A2", None): 6,
                 ("B2", None): 8, ("A3", None): 24, ("B3", None): 48}
PRESET_MIRRORS = {("I2", 3): 3, ("I2", 4): 4, ("A2", None): 3,
                  ("B2", None): 4, ("A3", None): 6, ("B3", None): 9}
PRESET_RANKS = {("I2", 3): 2, ("I2", 4): 2, ("A2", None): 2,
                ("B2", None): 2, ("A3", None): 3, ("B3", None): 3}


@pytest.mark.parametrize("name,m", list(PRESET_ORDERS))
def test_preset_order_against_oracle(name, m):
    group = preset_group(name, m=m)
    gen_mats = [reflection_matrix(h.normal) for h in group.generators]
    oracle = brute_force_closure(gen_mats)
    assert group.order == PRESET_ORDERS[(name, m)]
    assert len(oracle) == PRESET_ORDERS[(name, m)]
    assert same_element_sets([e.matrix for e in group.elements], oracle)
    assert len(group.mirrors) == PRESET_MIRRORS[(name, m)]
    assert group.essential_rank == PRESET_RANKS[(name, m)]


def test_two_orthogonal_mirrors_order_four():
    group = generate_group([[1.0, 0.0], [0.0, 1.0]])
    oracle = brute_force_closure([reflection_matrix(np.array([1.0, 0.0])),
                                  reflection_matrix(np.array([0.0, 1.0]))])
    assert group.order == 4
    assert same_element_sets([e.matrix for e in group.elements], oracle)
    # same group as the I2(2) preset
    i22 = preset_group("I2", m=2)
    assert same_element_sets([e.matrix for e in group.elements],
                             [e.matrix for e in i22.elements])


def test_i2_3_from_raw_mirrors():
    """Mirrors 60 degrees apart generate the 6-element dihedral group."""
    n1 = np.array([0.0, 1.0])
    ang = math.pi / 3
    n2 = np.array([math.sin(ang), -math.cos(ang)])
    group = generate_group([n1, n2])
    assert group.order == 6
    assert len(group.mirrors) == 3


def test_closure_cap_rejects_infinite_group():
    """Mirrors at an irrational angle generate an infinite dihedral group."""
    ang = math.pi / math.sqrt(7.0)
    n2 = np.array([math.sin(ang), -math.cos(ang)])
    with pytest.raises(GroupClosureError, match="not finite"):
        generate_group([[0.0, 1.0], n2], cap=300)


@pytest.mark.parametrize("name,m", list(PRESET_ORDERS))
def test_group_axioms_and_mirror_conjugation(name, m):
    group = preset_group(name, m=m)
    mats = [e.matrix for e in group.elements]
    eye = np.eye(group.dimension)
    # orthogonality and pairwise distinctness
    for a in mats:
        assert np.allclose(a @ a.T, eye, atol=1e-10)
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            assert np.max(np.abs(a - b)) > TOL
    # closure under products and inverses
    for a in mats:
        assert group.contains_matrix(a.T)
        for b in mats:
            assert group.contains_matrix(a @ b)
    # every mirror's reflection is an element, and conjugation permutes mirrors
    for mir in group.mirrors:
        rm = reflection_matrix(mir.normal)
        assert group.contains_matrix(rm)
        for a in mats:
            conj = a @ rm @ a.T
            conj_mirror = Hyperplane(a @ mir.normal)
            assert group.contains_matrix(conj)
            assert any(conj_mirror.same_as(other) for other in group.mirrors)


@pytest.mark.parametrize("name,m", [("I2", 5), ("B2", None), ("A2", None)])
def test_words_are_shortest(name, m):
    """Word lengths must match breadth-first distances in the Cayley graph."""
    group = preset_group(name, m=m)
    gen_mats = [reflection_matrix(h.normal) for h in group.generators]

    def key(mat):
        return (np.round(mat, 7) + 0.0).tobytes()

    dist = {key(np.eye(group.dimension)): 0}
    frontier = [np.eye(group.dimension)]
    while frontier:
        nxt = []
        for mat in frontier:
            for g in gen_mats:
                prod = g @ mat
                k = key(prod)
                if k not in dist:
                    dist[k] = dist[key(mat)] + 1
                    nxt.append(prod)
        frontier = nxt

    for e in group.elements:
        assert len(e.word) == dist[key(e.matrix)]
        # the word actually realizes the matrix
        acc = np.eye(group.dimension)
        for idx in e.word:
            acc = acc @ gen_mats[idx]
        assert np.allclose(acc, e.matrix, atol=1e-12)


def test_simple_system_regenerates_group():
    for name, m in PRESET_ORDERS:
        group = preset_group(name, m=m)
        regen = generate_group([h.normal for h in group.simple_system])
        assert regen.order == group.order
        assert same_element_sets([e.matrix for e in regen.elements],
                                 [e.matrix for e in group.elements])


@st.composite
def unit_vectors(draw, dim=3):
    """Random unit vectors with entries bounded away from degenerate zero."""
    vec = draw(
        st.lists(st.floats(-1, 1, allow_nan=False, width=32), min_size=dim, max_size=dim)
    )
    arr = np.asarray(vec, dtype=float)
    norm = np.linalg.norm(arr)
    if norm < 1e-3:
        arr = np.eye(dim)[0]
        norm = 1.0
    return arr / norm


@given(unit_vectors(), unit_vectors())
@settings(max_examples=60, deadline=None)
def test_reflect_is_an_involutive_isometry(normal, point):
    mirror = Hyperplane(normal)
    r = reflection_matrix(mirror.normal)
    image = r @ point
    again = r @ image
    assert np.allclose(again, point, atol=1e-12)
    assert abs(np.linalg.norm(image) - np.linalg.norm(point)) < 1e-12
    # the mirror itself is fixed pointwise
    tangent = point - float(point @ mirror.normal) * mirror.normal
    assert np.allclose(r @ tangent, tangent, atol=1e-12)


def _as_unit_vector_two_pass(v):
    """Frozen copy of the two-pass normalization that _as_unit_vector
    replaced: a coarse renormalization past 1e-6, then one past UNIT_TOL."""
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("normal must be a nonempty 1-D vector")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > 1e-6:
        if norm == 0.0:
            raise ValueError("normal must be nonzero")
        arr = arr / norm
    if abs(float(np.linalg.norm(arr)) - 1.0) > UNIT_TOL:
        arr = arr / float(np.linalg.norm(arr))
    return arr


@given(unit_vectors(), st.sampled_from([1e-13, 1e-9, 1e-3]),
       st.floats(-1, 1, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_unit_vector_matches_two_pass_normalization(direction, size, frac):
    v = direction * (1.0 + size * frac)
    assert np.array_equal(_as_unit_vector(v), _as_unit_vector_two_pass(v))


def _as_unit_vector_unscaled(v):
    """Frozen copy of _as_unit_vector before the power-of-two prescale:
    the length is taken of v itself."""
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError("normal must be a nonempty 1-D vector")
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("normal must be nonzero")
    if abs(norm - 1.0) > UNIT_TOL:
        arr = arr / norm
    return arr


@given(unit_vectors(), st.one_of(st.floats(-153.8, 154.1).map(lambda x: 10.0 ** x),
                                 st.floats(1.0 - 1e-11, 1.0 + 1e-11)))
@settings(max_examples=200, deadline=None)
def test_unit_vector_prescale_is_bitwise_neutral_in_range(direction, length):
    # inside 1.5e-154 < |v| < 1.3e154 the unscaled squared sum neither
    # overflows nor underflows, and scaling by a power of two is exact
    v = direction * length
    assert np.array_equal(_as_unit_vector(v), _as_unit_vector_unscaled(v))


def test_unit_vector_at_extreme_lengths():
    s = math.sqrt(0.5)
    assert np.allclose(Hyperplane([1e200, 1e200]).normal, [s, s], rtol=1e-15, atol=0)
    assert np.allclose(Hyperplane([1e-200, -1e-200]).normal, [s, -s], rtol=1e-15, atol=0)
    assert np.allclose(Hyperplane([1.7e308, 1.7e308]).normal, [s, s], rtol=1e-15, atol=0)
    assert np.array_equal(Hyperplane([0.0, 5e-324]).normal, [0.0, 1.0])
    tiny = generate_group([[1e-160, 3e-161]])
    unit = generate_group([[1.0, 0.3]])
    assert tiny.order == unit.order == 2
    for a, b in zip(tiny.elements, unit.elements):
        assert np.allclose(a.matrix, b.matrix, rtol=0, atol=1e-15)


def test_hyperplane_sign_identification():
    a = Hyperplane([0.0, 1.0])
    b = Hyperplane([0.0, -1.0])
    assert a.same_as(b)
    assert np.allclose(a.canonical().normal, b.canonical().normal)
    with pytest.raises(ValueError):
        Hyperplane([0.0, 0.0])


def test_essential_split_a2_diagonal_is_fixed():
    group = preset_group("A2")
    p = np.array([1.0, 1.0, 1.0])
    p_fixed, p_eff = essential_split(group, p)
    assert np.allclose(p_eff, 0.0, atol=1e-12)
    assert np.allclose(p_fixed, p, atol=1e-12)
    # a generic point splits orthogonally and recomposes
    q = np.array([0.3, -1.2, 2.0])
    q_fixed, q_eff = essential_split(group, q)
    assert np.allclose(q_fixed + q_eff, q, atol=1e-12)
    assert abs(float(q_fixed @ q_eff)) < 1e-12
    # every element fixes the fixed part
    for e in group.elements:
        assert np.allclose(e.matrix @ q_fixed, q_fixed, atol=1e-10)


def test_essential_split_b2_has_no_fixed_part():
    group = preset_group("B2")
    p_fixed, p_eff = essential_split(group, np.array([0.7, -0.4]))
    assert np.allclose(p_fixed, 0.0)
    assert group.fixed_subspace.shape == (2, 0)


@pytest.mark.parametrize("name", ["i2-3", "a2", "b2", "a3"])
def test_check_closure_equals_the_pairwise_loop(name):
    """The broadcast residuals are the element-by-element loop's, exactly."""
    group = preset_group(name)
    mats = [e.matrix for e in group.elements]
    prods = max(min(float(np.max(np.abs(a @ b - m))) for m in mats)
                for a in mats for b in mats)
    conj = max(min(float(np.max(np.abs(e @ reflection_matrix(h.normal) @ e.T - m)))
                   for m in mats)
               for e in mats for h in group.mirrors)
    results = check_closure(group, group.order)
    assert [r.value for r in results] == [float(group.order), prods, conj]
