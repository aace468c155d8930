"""Groups beyond the presets, given by `[group] normals` as in the
ROADMAP's state paragraph: H3 (order 120), B4 (order 384) and F4 (order
1,152). The third H3 normal is the unit vector n3 with <n1, n3> = 0 and
<n2, n3> = -1/2. H4, E6, E7 and E8 (orders 14,400 to 696,729,600, past
generate_group's cap of 10,000 elements) are the rows of the Cholesky
factor of their Coxeter Gram matrix, whose entry ij is -cos(pi/m_ij)."""

import math

import numpy as np

from orbitfold.groups import generate_group, preset_group

_Y = -0.5 / math.sin(math.pi / 5.0)
NORMALS = {
    "H3": [(1.0, 0.0, 0.0), (-math.cos(math.pi / 5.0), math.sin(math.pi / 5.0), 0.0),
           (0.0, _Y, math.sqrt(1.0 - _Y * _Y))],
    "B4": [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1)],
    "F4": [(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (0.5, -0.5, -0.5, -0.5)],
}


def _coxeter_rows(rank, edges):
    """Unit normals with Gram matrix -cos(pi/m) on each edge (i, j, m) of a
    Coxeter graph, and 0 between walls no edge joins."""
    gram = np.eye(rank)
    for i, j, m in edges:
        gram[i, j] = gram[j, i] = -math.cos(math.pi / m)
    return list(np.linalg.cholesky(gram))


# E8's graph: the chain 0-2-3-4-5-6-7 with wall 1 joined to wall 3; E6 and
# E7 are its first six and seven walls
_E_EDGES = [(0, 2, 3), (1, 3, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (5, 6, 3), (6, 7, 3)]
NORMALS.update({
    "H4": _coxeter_rows(4, [(0, 1, 5), (1, 2, 3), (2, 3, 3)]),
    "E6": _coxeter_rows(6, _E_EDGES[:5]),
    "E7": _coxeter_rows(7, _E_EDGES[:6]),
    "E8": _coxeter_rows(8, _E_EDGES),
})


def named_group(name):
    """The group of NORMALS[name], or else the preset of that name."""
    if name in NORMALS:
        return generate_group([np.array(n, dtype=float) for n in NORMALS[name]])
    return preset_group(name)
