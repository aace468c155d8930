"""The stacked forms the verify checks run on, against the scalar entries
and the per-point samplers they replaced.

_classify_rows must give classify's walls and level row by row, and
_tube_claims must claim the face tube_coords gives, with its t and radius
to 1e-15, on points from 1e-300 to 1e300, half of them within 1e-10*|p|
of a mirror. The stacked samplers must choose the points of the frozen
per-point ones in sampler_oracle bit for bit, and each check keeps its
edge cases: caps, zero-row stacks and the margin sampler's error.
"""

import warnings

import numpy as np
import pytest

import sampler_oracle as oracle
from orbitfold.chamber import _classify_rows, classify
from orbitfold.groups import generate_group, preset_group
from orbitfold.smoothing import (
    TubeConfigError,
    TubeSpec,
    _tube_claims,
    build_chain,
    tube_coords,
    validate_tubes,
)
from orbitfold import smoothing, verify
from orbitfold.verify import (
    _regular_margin_points,
    _separated_pairs,
    _tail_points,
    check_identity_tail,
    check_injectivity,
    check_regular_jacobian,
    check_wall_preservation,
)

PRESETS = ["i2-3", "i2-4", "a2", "b2", "a3", "b3"]
TUBE_POINTS = {"i2-3": 72, "i2-4": 72, "a2": 72, "b2": 72, "a3": 216, "b3": 216}


@pytest.fixture(scope="module", params=PRESETS)
def chain(request):
    return build_chain(preset_group(request.param))


def _scale_sample(chain, rng, count=150):
    """count points at |p| log-uniform in [1e-300, 1e300], every second one
    within 1e-10*|p| of a random mirror, then each moved by a random group
    element."""
    group = chain.group
    units = rng.normal(size=(count, group.dimension))
    units /= np.linalg.norm(units, axis=1)[:, None]
    near = np.arange(count) % 2 == 1
    normals = group.mirror_normals[rng.integers(len(group.mirrors), size=count)][near]
    units[near] -= np.sum(units[near] * normals, axis=1)[:, None] * normals
    units[near] += rng.uniform(-1e-10, 1e-10, size=(near.sum(), 1)) * normals
    points = units * 10.0 ** rng.uniform(-300.0, 300.0, size=(count, 1))
    mats = np.stack([group.elements[k].matrix for k in rng.integers(group.order, size=count)])
    return np.concatenate([points, np.einsum("kij,kj->ki", mats, points)])


def test_classify_rows_is_classify_row_by_row(chain):
    points = _scale_sample(chain, np.random.default_rng(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        incident, level = _classify_rows(chain.group, points)
    levels = set()
    for p, walls, lv in zip(points, incident, level.tolist()):
        desc = classify(chain.group, p)
        assert desc.walls_containing == tuple(np.flatnonzero(walls).tolist())
        assert desc.level == lv
        levels.add(lv)
    assert levels >= {0, chain.rank}


def test_tube_claims_give_tube_coords(chain):
    points = _scale_sample(chain, np.random.default_rng(7))
    claimed = 0
    for i in range(chain.rank):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            live, claims, t, radius, _ = _tube_claims(chain, i, points)
        row_of = dict(zip(live.tolist(), range(len(live))))
        faces = chain.stratification.faces_at_level(i)
        for k, p in enumerate(points):
            tc = tube_coords(chain, i, p)
            r = row_of.get(k)
            held = [] if r is None else np.flatnonzero(claims[r]).tolist()
            assert (tc is None) == (not held)
            if tc is None:
                continue
            claimed += 1
            f = held[0]
            face, _, tc_t, tc_radius = tc
            assert faces[f] is face
            assert abs(t[r, f] - tc_t) <= 1e-15 * float(np.max(np.abs(p)))
            assert abs(radius[r, f] - tc_radius) <= 1e-15 * tc_radius
    assert claimed > len(points) // 2


def test_zero_row_stacks(chain):
    empty = np.empty((0, chain.group.dimension))
    incident, level = _classify_rows(chain.group, empty)
    assert incident.shape == (0, len(chain.group.mirrors)) and level.shape == (0,)
    live, claims, *_ = _tube_claims(chain, 0, empty)
    assert live.size == 0 and claims.shape == (0, 1)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("count", [1, 40])
def test_samplers_choose_the_per_point_points(chain, seed, count):
    """The first accepted rows of each block are the points the per-point
    samplers drew, also where one block falls short (count 1)."""
    def same(stacked, frozen):
        return all(a.tobytes() == b.tobytes() for a, b in zip(stacked, frozen))

    rng = lambda: np.random.default_rng(seed)
    assert same(_separated_pairs(chain, rng(), count), oracle.separated_pairs(chain, rng(), count))
    assert same([_tail_points(chain, rng(), count)], [oracle.tail_points(chain, rng(), count)[1]])
    assert same([_regular_margin_points(chain, rng(), count)],
                [oracle.regular_margin_points(chain, rng(), count)])


def test_separated_pairs_carry_over_blocks(monkeypatch):
    """Fold images snapped to a coarse grid make a third of the pairs
    coincide, so later blocks are drawn; the pairs kept are still the first
    ones apart, in draw order."""
    chain = build_chain(preset_group("b2"))
    fold_gaussians = verify._fold_gaussians

    def snapped(chain_, rng, scale, rows):
        return np.floor(fold_gaussians(chain_, rng, scale, rows) / 3.0)

    monkeypatch.setattr(verify, "_fold_gaussians", snapped)
    firsts, seconds = _separated_pairs(chain, np.random.default_rng(0), 12)
    block = snapped(chain, np.random.default_rng(0), 2.0, 2000)
    apart = np.any(block[0::2] != block[1::2], axis=1)
    assert 0.1 < 1.0 - apart.mean() < 0.9
    assert firsts.tobytes() == block[0::2][apart][:12].tobytes()
    assert seconds.tobytes() == block[1::2][apart][:12].tobytes()


@pytest.mark.parametrize("preset", PRESETS)
def test_tube_points_checked_are_pinned(preset):
    chain = build_chain(preset_group(preset))
    assert validate_tubes(chain).tube_points_checked == TUBE_POINTS[preset]


@pytest.mark.parametrize("widen", [1.0, 8.0])
@pytest.mark.parametrize("preset", ["b2", "a3"])
def test_validate_tubes_raises_at_the_first_offending_point(monkeypatch, preset, widen):
    """With every radius widened past what the slope bound allows, and the
    wall-distance rule that assumes the bound switched off, same-level tubes
    overlap: the stacked check names the point the per-point loop stopped
    at."""
    for name in ("_radius_at", "_radius_rows"):
        radius = getattr(smoothing, name)
        monkeypatch.setattr(smoothing, name,
                            lambda *args, radius=radius: widen * radius(*args))
    monkeypatch.setattr(smoothing, "_reach", lambda chain, i, size: np.full(np.shape(size), np.inf))
    chain = build_chain(preset_group(preset))
    try:
        expected = oracle.validate_tube_samples(chain)
    except TubeConfigError as exc:
        expected = str(exc)
    try:
        got = validate_tubes(chain).tube_points_checked
    except TubeConfigError as exc:
        got = str(exc)
    assert got == expected
    assert isinstance(got, int) == (widen == 1.0)


def test_tail_cap_and_detail():
    """A c0 that few points clear: the tail check stops at 100*count draws,
    with the per-point sampler's points, and names how many it kept."""
    group = preset_group("b2")
    chain = build_chain(group, tubes=TubeSpec(b={1: 0.1}, c={1: 1.0}, c0=10.0))
    stacked_rng, frozen_rng = np.random.default_rng(0), np.random.default_rng(0)
    images = _tail_points(chain, stacked_rng, 20)
    _, frozen = oracle.tail_points(chain, frozen_rng, 20)
    assert 0 < len(images) < 20 and images.tobytes() == frozen.tobytes()
    # both stopped after the same 100*count draws
    assert stacked_rng.normal() == frozen_rng.normal()
    result = check_identity_tail(chain, count=20, seed=0)
    assert result.detail == f"max |H - fold| over {len(images)} tail points"


def test_margin_sampler_gives_up_after_500_misses():
    chain = build_chain(preset_group("b2"), tubes=TubeSpec(b={1: 0.1}, c={1: 1.0}, c0=1e6))
    for count in (1, 3):
        with pytest.raises(RuntimeError, match="regular point with tube margins"):
            _regular_margin_points(chain, np.random.default_rng(0), count)
        with pytest.raises(RuntimeError, match="regular point with tube margins"):
            oracle.regular_margin_points(chain, np.random.default_rng(0), count)


@pytest.mark.parametrize("count", [1, 7])
def test_margin_sampler_takes_499_misses_and_not_500(monkeypatch, count):
    """Rows on a wall are misses: 499 in a row before the first point are
    taken, 500 raise."""
    chain = build_chain(preset_group("b2"))
    for misses, raises in ((499, False), (500, True)):
        drawn = iter(range(10**6))
        monkeypatch.setattr(verify, "_incident_rows",
                            lambda group, q: np.array([[next(drawn) < misses] for _ in q]))
        if raises:
            with pytest.raises(RuntimeError, match="regular point with tube margins"):
                _regular_margin_points(chain, np.random.default_rng(0), count)
        else:
            assert len(_regular_margin_points(chain, np.random.default_rng(0), count)) == count


def test_checks_take_empty_samples():
    """A rank-1 group gives wall preservation no face points; count 0 gives
    the samplers none."""
    chain = build_chain(preset_group("a2"))
    rank1 = build_chain(generate_group([[1.0]]))
    assert check_wall_preservation(rank1, points=10).value == 0.0
    assert check_injectivity(chain, pairs=0).value == float("inf")
    assert check_regular_jacobian(chain, points=0).value == float("inf")
    tail = check_identity_tail(chain, count=0)
    assert tail.value == 0.0 and tail.detail == "max |H - fold| over 0 tail points"
