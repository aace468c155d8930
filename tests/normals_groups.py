"""Groups beyond the presets, given by `[group] normals` as in the
ROADMAP's state paragraph: H3 (order 120), B4 (order 384) and F4 (order
1,152). The third H3 normal is the unit vector n3 with <n1, n3> = 0 and
<n2, n3> = -1/2."""

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


def named_group(name):
    """The group of NORMALS[name], or else the preset of that name."""
    if name in NORMALS:
        return generate_group([np.array(n, dtype=float) for n in NORMALS[name]])
    return preset_group(name)
