"""Group construction tests, checked against a brute-force closure oracle.

The oracle below closes a set of orthogonal matrices under pairwise products
by fixed-point iteration. It shares no code with the package's breadth-first
construction, so order counts and element sets are cross-checked by two
independent routes.
"""

import ast
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitfold
from orbitfold import groups
from orbitfold import (
    GroupClosureError,
    GroupElement,
    Hyperplane,
    essential_split,
    generate_group,
    preset_group,
)
from orbitfold.groups import (
    MATCH_TOL,
    ORTHO_TOL,
    UNIT_TOL,
    _as_unit_vector,
    _canonical_sign,
    _matrix_key,
    _mirror_key,
    _simple_from_mirrors,
    preset_order,
    reflection_matrix,
)
from orbitfold.chamber import chamber_from_group
from orbitfold.verify import check_closure, check_roots
from normals_groups import NORMALS as GIVEN, named_group
from simple_root_oracle import simple_normals_by_nnls

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
    with pytest.raises(GroupClosureError, match="root closure exceeded the cap of 300 mirrors"):
        generate_group([[0.0, 1.0], n2], cap=300)


def test_closure_cap_names_only_the_cap():
    """A finite group larger than the cap builds, and is refused by its cap
    alone when its elements are read: the message does not call B3 (order
    48) infinite."""
    normals = [m.normal for m in preset_group("b3").simple_system]
    group = generate_group(normals, cap=47)
    with pytest.raises(GroupClosureError) as caught:
        group.elements
    assert str(caught.value) == "group closure exceeded the cap of 47 elements"
    assert "finite" not in str(caught.value)
    assert generate_group(normals, cap=48).order == 48


PAST_THE_CAP = {"H4": 60, "E6": 36, "E7": 63, "E8": 120}


@pytest.mark.parametrize("name", sorted(PAST_THE_CAP))
def test_a_group_past_the_cap_builds_from_its_roots(name):
    """H4, E6, E7 and E8 have more elements than the cap, and build: their
    mirrors are the N of their root systems, each fold takes at most N
    steps, there is one simple wall per rank, and the roots check holds."""
    group = named_group(name)
    mirrors = PAST_THE_CAP[name]
    assert len(group.mirrors) == chamber_from_group(group).fold_steps == mirrors
    assert len(group.simple_system) == group.essential_rank == len(GIVEN[name])
    assert check_roots(group).passed


def test_reading_the_elements_past_the_cap_raises():
    """H4 (order 14,400) builds, and its element closure is refused by the
    cap when the elements are read."""
    group = named_group("H4")
    with pytest.raises(GroupClosureError, match="exceeded the cap of 10000 elements"):
        group.elements


def test_no_element_is_built_until_the_elements_are_read():
    """Building the group and its chain, the tube check, the fold, H and the
    roots check read no element: the element list is closed on first read."""
    group = preset_group("b3")
    chain = orbitfold.build_chain(group)
    orbitfold.validate_tubes(chain)
    p = np.array([-1.0, 2.0, -3.0])
    orbitfold.fold(group, chain.chamber, p)
    orbitfold.apply_H(chain, p)
    assert check_roots(group).passed
    assert "elements" not in vars(group)
    assert len(group.elements) == 48 and "elements" in vars(group)


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
    # closure under products and inverses: _nearest finds an element
    # within MATCH_TOL of each, and none of a matrix that is no element
    def assert_element(mat):
        assert group._nearest(mat[None])[1][0] <= MATCH_TOL

    for a in mats:
        assert_element(a.T)
        for b in mats:
            assert_element(a @ b)
    # every mirror's reflection is an element, and conjugation permutes mirrors
    for mir in group.mirrors:
        rm = reflection_matrix(mir.normal)
        assert_element(rm)
        for a in mats:
            conj = a @ rm @ a.T
            conj_mirror = Hyperplane(a @ mir.normal)
            assert_element(conj)
            assert any(np.all(np.abs(conj_mirror.normal - other.normal) <= 1e-9)
                       or np.all(np.abs(conj_mirror.normal + other.normal) <= 1e-9)
                       for other in group.mirrors)
    assert group._nearest((2.0 * eye)[None])[1][0] > MATCH_TOL


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
    assert np.allclose(_canonical_sign(a.normal), _canonical_sign(b.normal))
    with pytest.raises(ValueError):
        Hyperplane([0.0, 0.0])


@pytest.mark.parametrize("normal,entry", [
    ([math.nan, 1.0], "nan at index 0"),
    ([math.inf, 0.0], "inf at index 0"),
    ([1.0, -math.inf], "-inf at index 1"),
])
def test_hyperplane_names_a_non_finite_entry(normal, entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"normal has a non-finite entry {entry}"):
            Hyperplane(normal)
        with pytest.raises(ValueError, match=f"normal has a non-finite entry {entry}"):
            generate_group([normal, [0.0, 1.0]])


@pytest.mark.parametrize("name,point,entry", [
    ("a2", [0.0, math.nan, 1.0], "nan at index 1"),
    ("b2", [math.inf, 0.0], "inf at index 0"),
])
def test_essential_split_names_a_non_finite_entry(name, point, entry):
    with pytest.raises(ValueError, match=f"point has a non-finite entry {entry}"):
        essential_split(preset_group(name), point)


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


# the two groups the command-line snapshot gives by `[group] normals`
NORMALS = {"normals-axes": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
           "normals-skew": [[1, 1, 0], [0, 1, -1], [1, 0, 1]]}


def _closure_group(name):
    return generate_group(NORMALS[name]) if name in NORMALS else named_group(name)


@pytest.mark.parametrize("name", ["i2-3", "a2", "b2", "a3", "b3", *NORMALS, "H3", "B4"])
def test_check_closure_equals_the_pairwise_loop(name):
    """The pairwise loop as oracle, on presets, the axis group A1^3, an
    order-6 group with a fixed line whose generators are not simple, and
    H3 and B4. Each product's distance to the group is the least over
    every element. "closure under products" is the loop's value over the
    generator left factors, exactly; "mirror conjugation closed" is its
    value over every conjugate, exactly; and all |G|^2 products give the
    same verdict. For the verdict each product is measured against the
    element of largest inner product with it, the nearest in the Frobenius
    norm: that element is the nearest in the max norm too whenever some
    element lies within 1e-9, and otherwise the distance read is no less
    than the least one, so both fail alike."""
    group = _closure_group(name)
    mats = np.stack([e.matrix for e in group.elements])
    reflections = np.stack([reflection_matrix(h.normal) for h in group.mirrors])

    def gaps(moved):
        return np.abs(moved[:, None] - mats).max(axis=(2, 3)).min(axis=1)

    prods = max(float(gaps(reflection_matrix(h.normal) @ mats).max())
                for h in group.generators)
    conj = max(float(gaps(e @ reflections @ e.T).max()) for e in mats)
    flat = mats.reshape(len(mats), -1)
    nearest = [np.argmax((a @ mats).reshape(len(mats), -1) @ flat.T, axis=1) for a in mats]
    pairwise = max(float(np.abs(a @ mats - mats[k]).max()) for a, k in zip(mats, nearest))
    results = check_closure(group, group.order)
    assert [r.value for r in results] == [float(group.order), prods, conj]
    assert results[1].passed == (pairwise <= 1e-9)


def test_check_closure_on_f4_stays_small():
    """The certificate forms |G|*rank products and |G|*|mirrors|
    conjugates: on F4 (order 1,152) every line passes with a tracemalloc
    peak under 25 MB, where all |G|^2 products took about 570 MB."""
    group = named_group("F4")
    tracemalloc.start()
    try:
        results = check_closure(group, 1152)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.passed for r in results] == [True, True, True]
    assert peak < 25e6


@pytest.mark.parametrize("name", ["a3", "b3"])
def test_nearest_finds_every_element_when_keys_miss(monkeypatch, name):
    """With every key of the stack missing, _nearest scans: each element
    finds its own index at distance 0, and 2*I is no element."""
    group = preset_group(name)
    mats = np.stack([e.matrix for e in group.elements])
    monkeypatch.setattr(groups, "_matrix_keys", lambda mats: [b""] * len(mats))
    index, gaps = group._nearest(mats)
    assert index.tolist() == list(range(group.order)) and gaps.max() == 0.0
    assert group._nearest(2.0 * np.eye(group.dimension)[None])[1][0] > MATCH_TOL


def _loop_closure(gens):
    """(matrices, words) of the breadth-first closure as an element-by-
    element loop builds it: each frontier element times each generator,
    `gmat @ elem`, keyed one product at a time."""
    gen_mats = [reflection_matrix(h.normal) for h in gens]
    dim = len(gen_mats[0])
    elements = [(np.eye(dim), ())]
    seen = {_matrix_key(np.eye(dim))}
    frontier = list(elements)
    while frontier:
        next_frontier = []
        for mat, word in frontier:
            for gi, gmat in enumerate(gen_mats):
                prod = gmat @ mat
                key = _matrix_key(prod)
                if key not in seen:
                    seen.add(key)
                    elements.append((prod, (gi,) + word))
                    next_frontier.append(elements[-1])
        frontier = next_frontier
    return elements


@pytest.mark.parametrize("name", ["a2", "a3", "b2", "b3", "i2-5", "i2-8", *NORMALS])
def test_stacked_closure_equals_the_element_loop(name):
    """generate_group multiplies each frontier by every generator as one
    stacked product: its elements and words are the loop's, bit for bit."""
    group = generate_group(NORMALS[name]) if name in NORMALS else preset_group(name)
    want = _loop_closure(group.generators)
    assert [e.word for e in group.elements] == [word for _, word in want]
    assert all(e.matrix.tobytes() == mat.tobytes() for e, (mat, _) in zip(group.elements, want))


SIMPLE_GROUPS = [("A2", None), ("B2", None), ("A3", None), ("B3", None)] + [
    ("I2", m) for m in (2, 3, 4, 5, 6, 8, 12, 17)]


@pytest.mark.parametrize("name,m", SIMPLE_GROUPS)
def test_simple_walls_match_nnls_oracle(name, m):
    """The reflection rule picks the walls NNLS picks, at 20 seeded
    witnesses in distinct chambers (every chamber when there are fewer),
    the group's own chamber first."""
    group = preset_group(name, m=m)
    rng = np.random.default_rng(zlib.crc32(f"{name}-{m}".encode()))
    normals = np.stack([h.normal for h in group.simple_system])
    picks = [0] + rng.permutation(np.arange(1, group.order))[:19].tolist()
    systems = set()
    for k in picks:
        # a point with every simple wall value in [0.2, 1], moved by element k
        inner = normals.T @ np.linalg.solve(normals @ normals.T,
                                            rng.uniform(0.2, 1.0, len(normals)))
        witness = group.elements[k].matrix @ inner
        got = {h.normal.tobytes() for h in _simple_from_mirrors(
            group.mirrors, witness, group.essential_rank, group.generators)}
        want = {v.tobytes() for v in simple_normals_by_nnls(group.mirrors, witness)}
        assert got == want
        if k == 0:
            assert got == {h.normal.tobytes() for h in group.simple_system}
        systems.add(frozenset(got))
    assert len(systems) == len(picks) == min(20, group.order)


MIRROR_GROUPS = {
    **{f"{name}-{m}": (lambda name=name, m=m: preset_group(name, m=m))
       for name, m in SIMPLE_GROUPS},
    "rank1": lambda: generate_group([[1.0]]),
    "normals-axes": lambda: generate_group([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    "normals-skew": lambda: generate_group([[1, 1, 0], [0, 1, -1], [1, 0, 1]]),
}


@pytest.mark.parametrize("label", sorted(MIRROR_GROUPS))
def test_one_sign_fixed_mirror_per_reflection(label):
    """group.mirrors holds one mirror per reflection of the group, each
    normal sign-fixed by _canonical_sign, no two normals within MATCH_TOL
    of each other up to sign."""
    group = MIRROR_GROUPS[label]()
    reflections = [e.matrix for e in group.elements if _is_reflection_by_allclose(e)]
    normals = group.mirror_normals
    assert len(group.mirrors) == len(reflections)
    assert same_element_sets([reflection_matrix(n) for n in normals], reflections)
    for n in normals:
        assert np.array_equal(_canonical_sign(n), n)
    for i, a in enumerate(normals):
        for b in normals[i + 1:]:
            assert min(np.abs(a - b).max(), np.abs(a + b).max()) > MATCH_TOL


def _is_reflection_by_allclose(element):
    """Oracle: an orthogonal involution whose -1 eigenspace is a line, by
    np.allclose, as GroupElement.is_reflection read it, frozen."""
    mat = element.matrix
    n = len(mat)
    if abs(float(np.trace(mat)) - (n - 2)) >= 1e-8:
        return False
    if not np.allclose(mat, mat.T, rtol=0.0, atol=ORTHO_TOL):
        return False
    return np.allclose(mat @ mat, np.eye(n), rtol=0.0, atol=ORTHO_TOL)


GENERATED_GROUPS = {
    **{name: (lambda name=name: preset_group(name)) for name in ("a2", "b2", "a3", "b3")},
    **{f"i2-{m}": (lambda m=m: preset_group("I2", m=m)) for m in range(3, 9)},
    "normals-axes": MIRROR_GROUPS["normals-axes"],
    "normals-skew": MIRROR_GROUPS["normals-skew"],
}


def _mirror_of(mat):
    """The unit normal of a reflection matrix's mirror, as generate_group
    read it before it closed the roots: the largest column of (I - M)/2 =
    n n^T, normalised and sign-fixed."""
    proj = 0.5 * (np.eye(len(mat)) - mat)
    col = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
    return _canonical_sign(col / np.linalg.norm(col))


@pytest.mark.parametrize("label", sorted(GENERATED_GROUPS))
def test_generation_is_unchanged_by_the_reflection_test(label):
    """generate_group, which closes the roots, gives the mirrors, in order,
    that it read off the reflections of the element list: one key each,
    every normal within 1e-15, and the mirror of each generator's
    reflection matrix, which seeds the roots, and each simple normal bit
    for bit, so the chamber and every fold keep their bits."""
    group = GENERATED_GROUPS[label]()
    want = sorted((_mirror_of(e.matrix) for e in group.elements
                   if _is_reflection_by_allclose(e)), key=lambda n: tuple(np.round(n, 9)))
    assert [_mirror_key(n) for n in group.mirror_normals] == [_mirror_key(n) for n in want]
    assert np.abs(group.mirror_normals - np.array(want)).max() <= 1e-15
    have = {n.tobytes() for n in group.mirror_normals}
    for g in group.generators:
        assert _mirror_of(reflection_matrix(g.normal)).tobytes() in have
    kept = have & {n.tobytes() for n in want}
    assert all(_canonical_sign(h.normal).tobytes() in kept for h in group.simple_system)


def _generated(group):
    return ([(e.matrix.tobytes(), e.word) for e in group.elements],
            [[h.normal.tobytes() for h in getattr(group, planes)]
             for planes in ("generators", "mirrors", "simple_system")])


@pytest.mark.parametrize("name", ["I2", "A2", "B2", "A3", "B3"])
def test_a_repeated_negated_or_perturbed_generator_is_dropped(name):
    """Generators that name one mirror (_mirror_key) count once, the first
    given kept: a repeat, a negation or a 1e-12 perturbation of a normal
    leaves the group as the list without it built it."""
    base = preset_group(name, m=5 if name == "I2" else None)
    normals = [h.normal for h in base.generators]
    ref = _generated(generate_group(normals))
    nudge = 1e-12 * np.arange(1, len(normals[0]) + 1)
    for extra in (normals[0], -normals[-1], normals[0] + nudge):
        assert _generated(generate_group(normals + [extra])) == ref
    first = generate_group([normals[0] + nudge] + normals)
    assert first.generators[0].normal.tobytes() == Hyperplane(normals[0] + nudge).normal.tobytes()
    assert len(first.generators) == len(normals) and first.order == base.order


def test_element_orthogonality_tolerance_is_absolute():
    # M M^T is 8e-6 from I: far outside the 1e-10 the check promises
    with pytest.raises(ValueError, match="not orthogonal within 1e-10"):
        GroupElement(np.diag([1 + 4e-6, 1.0, 1.0]), ())
    GroupElement(np.diag([1 + 4e-11, 1.0, 1.0]), ())


@pytest.mark.parametrize("name,order", [("A3", 24), ("I2-3", 6), ("i2(3)", 6),
                                        ("i2-5", 10), ("b3", 48), (" a2 ", 6)])
def test_preset_order_is_read_from_the_name(name, order):
    assert preset_order(name) == order == preset_group(name).order


def test_preset_order_rejects_what_preset_group_rejects():
    for name in ("e8", "I2", "i2-1"):
        messages = []
        for call in (preset_group, preset_order):
            with pytest.raises(ValueError) as err:
                call(name)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def test_simple_walls_reject_a_wrong_rank():
    group = preset_group("B2")
    with pytest.raises(RuntimeError, match="chamber has 2 walls, expected essential rank 3"):
        _simple_from_mirrors(group.mirrors, np.array([2.0, 1.0]), 3, group.generators)


def test_import_loads_no_scipy():
    """scipy is imported nowhere in the package."""
    src = str(Path(orbitfold.__file__).resolve().parents[1])
    code = ("import sys, orbitfold, orbitfold.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_no_package_source_imports_scipy():
    """No module of the package imports scipy, at top level or inside a
    function; scipy serves the tests as an oracle only."""
    found = []
    for path in sorted(Path(orbitfold.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = [node.module or ""]
            else:
                continue
            if any(r.split(".")[0] == "scipy" for r in roots):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
