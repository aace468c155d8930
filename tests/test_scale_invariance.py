"""H is invariant and its two evaluation paths agree at every scale.

On six groups (i2-5, a2, b2, a3, b3 and the rank-1 group of one mirror in
R^1) points are drawn at |p| log-uniform from 1e-300 to 1e300, every other
one within 1e-10*|p| of a random mirror, and each is paired with its image
under a random group element. The invariant map must give p and g.p the
same value within 1e-14*max(1, |p|inf), and the stacked kernel must give
the scalar apply_H within 1e-15*max(1, |p|inf). The draws are seeded, so
the suite is deterministic.
"""

import numpy as np
import pytest

from orbitfold.groups import generate_group, preset_group
from orbitfold.smoothing import _apply_H_rows, apply_H, build_chain

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
