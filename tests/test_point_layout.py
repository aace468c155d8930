"""The scalar path's bits depend on a point's values alone, not on its
memory layout, and its per-point products round as matmul's.

Every public entry point that takes one point (eval_l, tube_coords,
apply_H, apply_G, fold, classify and essential_split) must give a strided column view of a
2-D array, and a negative-stride view, the same bytes as the contiguous
point: BLAS takes another kernel for a strided vector, whose sums round
differently. The points are face points of every level, points inside
their tubes, and Gaussian points at |p| from 1e-300 to 1e300, every other
one on a mirror.

The scalar path forms each product of a matrix with one point as
a.dot(v), which hands the operands to the same BLAS gemv as a @ v without
matmul's dispatch. The second test pins that premise on the shapes the
path uses: the simple normals, every face's basis and its transpose
(empty ones included), its inactive normals (one row at level rank - 1)
and each level's lower-face rows, and the vector-matrix product of the
fold's element build, on vectors with entries from 1e-300 to 1e300. If
a numpy or BLAS rounds the two forms differently, the scalar path's bits
would move with it; this test then fails and names the shape.
"""

import dataclasses

import numpy as np
import pytest

from normals_groups import named_group
from orbitfold.chamber import classify, fold
from orbitfold.groups import essential_split
from orbitfold.smoothing import apply_G, apply_H, build_chain, eval_l, tube_coords
from sampler_oracle import sample_face_point

LAYOUT_GROUPS = ["i2-5", "a3", "b3"]
PRODUCT_GROUPS = ["i2-5", "a2", "b2", "a3", "b3", "H3", "B4", "F4", "H4", "E6"]


def _bits(value):
    """value as comparable bytes: floats and arrays by their bytes,
    tuples and dataclasses entry by entry."""
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value


def _outcome(call, *args):
    """call(*args) as bytes, or the error it raised."""
    try:
        return _bits(call(*args))
    except ValueError as err:
        return "ValueError", str(err)


def _entry_outputs(chain, level, p):
    """Every single-point entry point's answer at p, as bytes; eval_l at
    the level p was sampled on, tube_coords at every tube level."""
    out = [_outcome(f, chain, p) for f in (apply_H, apply_G)]
    out += [_outcome(fold, chain.group, chain.chamber, p),
            _outcome(classify, chain.group, p), _outcome(essential_split, chain.group, p)]
    out += [_outcome(tube_coords, chain, i, p) for i in range(chain.rank)]
    if level is not None:
        out.append(_outcome(eval_l, chain, level, p))
    return out


def _layout_points(chain, rng):
    """(level or None, point) pairs: face points of every tube level,
    points inside their tubes, and wide-scale Gaussian points."""
    strat, dim = chain.stratification, chain.group.dimension
    out = []
    for level in range(1, chain.rank):
        for face in strat.faces_at_level(level):
            for _ in range(40):
                scale = 10.0 ** rng.uniform(-2.0, 2.0)
                x = sample_face_point(chain, face, rng, radius_range=(scale, 2.0 * scale))
                v = rng.normal(size=dim)
                v -= face.project_to_span(v)
                radius = eval_l(chain, level, x)
                out += [(level, x),
                        (None, x + (rng.uniform(0.05, 0.95) * radius / np.linalg.norm(v)) * v)]
    mirrors = chain.group.mirror_normals
    for k in range(200):
        p = rng.normal(size=dim)
        if k % 2:
            n = mirrors[rng.integers(len(mirrors))]
            p -= (p @ n) * n
        out.append((None, p * 10.0 ** rng.uniform(-300.0, 300.0)))
    return out


@pytest.mark.parametrize("name", LAYOUT_GROUPS)
def test_entry_points_ignore_the_point_layout(name):
    chain = build_chain(named_group(name))
    rng = np.random.default_rng(7)
    for level, x in _layout_points(chain, rng):
        column = np.repeat(x[:, None], 3, axis=1)[:, 1]
        backward = x[::-1].copy()[::-1]
        assert not column.flags.c_contiguous and backward.strides[0] < 0
        want = _entry_outputs(chain, level, x)
        assert _entry_outputs(chain, level, column) == want, (name, x.tolist())
        assert _entry_outputs(chain, level, backward) == want, (name, x.tolist())


def _scalar_path_matrices(chain):
    """(label, matrix) for every matrix the scalar path multiplies one
    point by."""
    out = [("simple normals", chain.chamber.simple_normals)]
    for face in chain.stratification.faces:
        out += [(f"basis {face.active}", face.basis), (f"basis.T {face.active}", face.basis.T),
                (f"inactive normals {face.active}", face.inactive_normals)]
    out += [(f"lower-face rows {i}", chain._levels[i].lower) for i in range(1, chain.rank)]
    return out


def _wide_vectors(rng, count, dim):
    """count vectors whose entries have sizes from 1e-300 to 1e300."""
    return rng.normal(size=(count, dim)) * 10.0 ** rng.uniform(-300.0, 300.0, size=(count, dim))


@pytest.mark.parametrize("name", PRODUCT_GROUPS)
def test_dot_rounds_as_matmul_on_the_scalar_path_shapes(name):
    chain = build_chain(named_group(name))
    rng = np.random.default_rng(11)
    for label, a in _scalar_path_matrices(chain):
        for v in _wide_vectors(rng, 200, a.shape[1]):
            assert a.dot(v).tobytes() == (a @ v).tobytes(), (
                f"ndarray.dot and matmul round {label} {a.shape} @ v differently "
                f"on this numpy/BLAS; v = {v.tolist()}")
    # the fold's element build: n_i times a product of reflections
    normals = chain.chamber.simple_normals
    for v in _wide_vectors(rng, 200, normals.shape[1]):
        mat = np.eye(normals.shape[1])
        for i in rng.integers(len(normals), size=6):
            n_i = normals[i]
            for u in (v, n_i):
                assert u.dot(mat).tobytes() == (u @ mat).tobytes(), (
                    f"ndarray.dot and matmul round u @ {mat.shape} differently "
                    f"on this numpy/BLAS; u = {u.tolist()}")
            mat = mat - 2.0 * np.outer(n_i, n_i.dot(mat))
