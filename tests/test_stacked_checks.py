"""The stacked forms the verify checks run on, against the scalar entries
and the per-point samplers they replaced.

_classify_rows, and classify with it, must give the walls and level of
the frozen scalar rule in stratum_oracle row by row, on the presets, H3,
B4 and F4; eval_l must take the radius of the first face the frozen
wall-by-wall face test accepts, and refuse a point no face accepts; and
_tube_claims must claim the face tube_coords gives, with its t and radius
to 1e-15, on points from 1e-300 to 1e300, half of them within 1e-10*|p|
of a mirror. The stacked samplers must choose the points of the frozen
per-point ones in sampler_oracle bit for bit, also where one block of
draws falls short, and each check keeps its edge cases: caps, zero-row
stacks and the margin sampler's error. A verification's calls to the
public fold and to the samplers' draw are counted, which guards their
cost without timing it.
"""

import sys
import warnings

import numpy as np
import pytest

import sampler_oracle as oracle
import stratum_oracle
from normals_groups import named_group
from orbitfold.chamber import _classify_rows, _fold_rows, classify
from orbitfold.groups import generate_group, preset_group
from orbitfold.smoothing import (
    TubeConfigError,
    TubeSpec,
    _radius_at,
    _tube_claims,
    build_chain,
    eval_l,
    tube_coords,
)
from orbitfold import chamber, smoothing, verify
from orbitfold.verify import (
    _face_samples,
    _regular_margin_points,
    _separated_pairs,
    _tail_points,
    _tube_lines,
    check_identity_tail,
    check_injectivity,
    check_regular_jacobian,
    check_tubes,
    check_wall_preservation,
    validate_tubes,
)

PRESETS = ["i2-3", "i2-4", "a2", "b2", "a3", "b3"]
TUBE_POINTS = {"i2-3": 72, "i2-4": 72, "a2": 72, "b2": 72, "a3": 216, "b3": 216,
               "H3": 216, "B4": 504, "F4": 504}


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


@pytest.mark.parametrize("name", PRESETS + ["H3", "B4", "F4"])
def test_classify_rows_is_classify_row_by_row(name):
    chain = build_chain(named_group(name))
    rng = np.random.default_rng(5)
    sample = _scale_sample(chain, rng)
    strat = chain.stratification
    # with their fold images, which lie on the chamber faces eval_l reads,
    # and points on the faces of every level above 0 at two scales; none
    # at |p| <= 1e-9, which classify's threshold puts at level 0
    on_faces = [_face_samples(chain, strat.faces_at_level(lv), 2 * len(strat.faces_at_level(lv)),
                              rng, scales)[1]
                for lv in range(1, chain.rank + 1) for scales in ((1.0, 2.0), (1e299, 1e300))]
    points = np.concatenate([sample, _fold_rows(chain.chamber, sample), *on_faces])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        incident, level = _classify_rows(chain.group, points)
    levels = set()
    for p, walls, lv in zip(points, incident, level.tolist()):
        desc = stratum_oracle.classify(chain.group, p)
        assert desc.walls_containing == tuple(np.flatnonzero(walls).tolist())
        assert desc.level == lv
        assert classify(chain.group, p) == desc
        if 0 < lv < chain.rank:
            # eval_l takes the first level-lv face the wall-by-wall test accepts
            face = next((f for f in strat.faces_at_level(lv)
                         if stratum_oracle.face_contains(strat, f, p)), None)
            if face is None:
                with pytest.raises(ValueError, match=f"not on any level-{lv} chamber face"):
                    eval_l(chain, lv, p)
            else:
                assert eval_l(chain, lv, p) == _radius_at(chain, face, p)
        levels.add(lv)
    assert levels == set(range(chain.rank + 1))


def test_tube_claims_give_tube_coords(chain):
    points = _scale_sample(chain, np.random.default_rng(7))
    claimed = 0
    for i in range(chain.rank):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, pair_faces, claims, t, radius, _ = _tube_claims(chain, i, points)
        faces = chain.stratification.faces_at_level(i)
        for k, p in enumerate(points):
            tc = tube_coords(chain, i, p)
            held = np.flatnonzero(claims & (rows == k))     # pairs, in face order
            assert (tc is None) == (not held.size)
            if tc is None:
                continue
            claimed += 1
            pair = held[0]
            face, _, tc_t, tc_radius = tc
            assert faces[pair_faces[pair]] is face
            assert abs(t[pair] - tc_t) <= 1e-15 * float(np.max(np.abs(p)))
            assert abs(radius[pair] - tc_radius) <= 1e-15 * tc_radius
    assert claimed > len(points) // 2


def test_zero_row_stacks(chain):
    empty = np.empty((0, chain.group.dimension))
    incident, level = _classify_rows(chain.group, empty)
    assert incident.shape == (0, len(chain.group.mirrors)) and level.shape == (0,)
    rows, faces, claims, t, radius, feet = _tube_claims(chain, 0, empty)
    assert rows.size == faces.size == claims.size == t.size == radius.size == 0
    assert claims.dtype == bool and feet.shape == (0, chain.group.dimension)


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


def _counted(monkeypatch, module, name):
    """Wrap module.name so that each call appends its arguments to the list
    returned."""
    calls, inner = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("seed", [0, 1])
def test_samplers_draw_more_blocks_where_two_count_rows_fall_short(monkeypatch, seed):
    """c0 = 6 on b2 accepts about 0.09 of the tail draws and 0.45 of the
    margin draws (4,000 draws, seed 1), so one block of 2*count rows falls
    short and more are drawn; the points kept are still the per-point
    samplers' points."""
    chain = build_chain(preset_group("b2"), tubes=TubeSpec(b={1: 0.1}, c={1: 1.0}, c0=6.0))
    rng = lambda: np.random.default_rng(seed)
    blocks = _counted(monkeypatch, verify, "_fold_gaussians")
    for sampler, frozen in ((_tail_points, lambda *args: oracle.tail_points(*args)[1]),
                            (_regular_margin_points, oracle.regular_margin_points)):
        blocks.clear()
        points = sampler(chain, rng(), 40)
        assert len(blocks) >= 2 and len(points) == 40
        assert points.tobytes() == frozen(chain, rng(), 40).tobytes()


@pytest.mark.parametrize("preset", ["i2-5", "a2", "b2", "a3", "b3"])
def test_a_verification_makes_no_public_fold_and_one_draw_per_sampler(monkeypatch, preset):
    """Counts that guard verify's cost without timing it, at count 100 and
    seed 1: check_fold takes images from the scalar fold loop and never
    builds the public fold's element, and each of the three Gaussian
    samplers (_separated_pairs, _tail_points, _regular_margin_points)
    accepts enough of its first block to need no second."""
    chain = build_chain(preset_group(preset))
    public_fold = chamber.fold
    folds = _counted(monkeypatch, chamber, "fold")
    # every module that bound the public fold by name calls the counted one
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "orbitfold" and getattr(module, "fold", None) is public_fold:
            monkeypatch.setattr(module, "fold", chamber.fold)
    blocks = _counted(monkeypatch, verify, "_fold_gaussians")
    results = verify.run_verification(chain, count=100, seed=1)
    assert all(r.passed for r in results)
    assert len(folds) == 0
    assert len(blocks) == 3


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


@pytest.mark.parametrize("name", PRESETS + ["H3", "B4", "F4"])
def test_tube_points_checked_are_pinned(name):
    """36 points per face of levels 1..rank-1: 3 samples, 4 directions and
    3 heights each."""
    chain = build_chain(named_group(name))
    assert _tube_lines(chain, 0)[1] == TUBE_POINTS[name]


@pytest.mark.parametrize("widen", [1.0, 8.0])
@pytest.mark.parametrize("preset", ["b2", "a3"])
def test_validate_tubes_raises_at_the_first_offending_point(monkeypatch, preset, widen):
    """With every radius widened past what the slope bound allows, and the
    wall-distance rule that assumes the bound switched off, same-level tubes
    overlap: the stacked check counts the points the per-point loop counts,
    names the first one it met, and validate_tubes raises with that name."""
    for module, name in ((smoothing, "_radius_at"), (smoothing, "_radius_rows"),
                         (verify, "_radius_rows")):
        radius = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, radius=radius: widen * radius(*args))
    monkeypatch.setattr(smoothing, "_reach", lambda chain, i, size: np.full(np.shape(size), np.inf))
    chain = build_chain(preset_group(preset))
    checked, overlaps, first, drift = oracle.validate_tube_samples(chain, seed=3)
    (slope, disjoint, feet), got_checked = _tube_lines(chain, 3)
    assert got_checked == checked == TUBE_POINTS[preset]
    assert slope.passed
    assert disjoint.value == overlaps and (overlaps > 0) == (widen > 1.0)
    assert feet.passed and abs(feet.value - drift) <= 1e-15
    if overlaps:
        assert disjoint.detail == first
        with pytest.raises(TubeConfigError) as err:
            validate_tubes(chain)
        assert str(err.value) == oracle.validate_tube_samples(chain)[2]
    else:
        assert validate_tubes(chain) == check_tubes(chain, 0)


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
