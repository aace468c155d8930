"""H is invariant and its two evaluation paths agree at every scale.

On six groups (i2-5, a2, b2, a3, b3 and the rank-1 group of one mirror in
R^1) points are drawn at |p| log-uniform from 1e-300 to 1e300, every other
one within 1e-10*|p| of a random mirror, and each is paired with its image
under a random group element. The invariant map must give p and g.p the
same value within 1e-14*max(1, |p|inf), and the stacked kernel must give
the scalar apply_H within 1e-15*max(1, |p|inf). On the same points, with
warnings as errors, each public entry point (fold, classify, apply_G,
apply_H, eval_h and eval_l) returns a finite value or raises a ValueError
that names the problem, and fold's element maps p to its image within
1e-14*|p|inf. The draws are seeded, so the suite is deterministic.
"""

import numpy as np
import pytest

from orbitfold.chamber import _fold_rows, classify, fold
from orbitfold.groups import generate_group, preset_group
from orbitfold.smoothing import (
    DERIVATIVE_ORDER_MAX, _apply_H_rows, apply_G, apply_H, build_chain, eval_h, eval_l)

GROUPS = {
    "i2-5": lambda: preset_group("i2-5"),
    "a2": lambda: preset_group("a2"),
    "b2": lambda: preset_group("b2"),
    "a3": lambda: preset_group("a3"),
    "b3": lambda: preset_group("b3"),
    "rank-1": lambda: generate_group([[1.0]]),
}
COUNT = 1000


@pytest.fixture(scope="module", params=sorted(GROUPS))
def sample(request):
    """A chain, COUNT points and one group image of each."""
    chain = build_chain(GROUPS[request.param]())
    group = chain.group
    rng = np.random.default_rng(0)
    mirrors = group.mirror_normals
    points = rng.normal(size=(COUNT, group.dimension))
    points /= np.linalg.norm(points, axis=1)[:, None]
    normal = mirrors[rng.integers(len(mirrors), size=COUNT)]
    near = points - np.sum(points * normal, axis=1)[:, None] * normal
    near += rng.uniform(-1e-10, 1e-10, size=(COUNT, 1)) * normal
    points[1::2] = near[1::2]
    points *= 10.0 ** rng.uniform(-300.0, 300.0, size=(COUNT, 1))
    mats = np.stack([group.elements[k].matrix
                     for k in rng.integers(group.order, size=COUNT)])
    moved = np.einsum("kij,kj->ki", mats, points)
    scale = np.maximum(1.0, np.max(np.abs(points), axis=1))
    return chain, points, moved, scale


def test_group_images_share_their_value(sample):
    chain, points, moved, scale = sample
    gap = np.array([np.max(np.abs(apply_H(chain, q) - apply_H(chain, p)))
                    for p, q in zip(points, moved)])
    assert np.max(gap / scale) <= 1e-14   # NaN or inf fails too


def test_stacked_map_agrees_with_scalar(sample):
    chain, points, moved, scale = sample
    for stack in (points, moved):
        scalar = np.array([apply_H(chain, p) for p in stack])
        gap = np.max(np.abs(_apply_H_rows(chain, stack) - scalar), axis=1)
        assert np.max(gap / scale) <= 1e-15


@pytest.mark.filterwarnings("error")
def test_fold_element_maps_each_point_to_its_image(sample):
    chain, points, _, _ = sample
    for p in points:
        result = fold(chain.group, chain.chamber, p)
        gap = np.max(np.abs(result.element.matrix @ p - result.image))
        assert gap <= 1e-14 * np.max(np.abs(p))


@pytest.mark.filterwarnings("error")
def test_entry_points_are_finite_or_name_the_problem(sample):
    chain, points, _, _ = sample
    group = chain.group
    images = _fold_rows(chain.chamber, points)
    for k, (p, image) in enumerate(zip(points, images)):
        assert 0 <= classify(group, p).level <= chain.rank
        assert np.all(np.isfinite(apply_H(chain, p)))
        assert np.all(np.isfinite(apply_G(chain, image)))
        assert np.isfinite(eval_h(np.max(np.abs(p)), k % (DERIVATIVE_ORDER_MAX + 1)))
        level = classify(group, image).level
        if level < chain.rank:
            assert np.isfinite(eval_l(chain, level, image))
        else:
            # the open chamber has no tube
            with pytest.raises(ValueError, match=f"no tube at level {level}"):
                eval_l(chain, level, image)
