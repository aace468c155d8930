"""Simple walls of a chamber by nonnegative least squares, for tests.

A wall of the chamber containing the witness is simple exactly when its
inward normal is not a nonnegative combination of the other inward
normals; NNLS measures the distance from the normal to the cone of the
others. It shares no code with the reflection rule of
groups._simple_from_mirrors, so the two routes cross-check each other.
"""

import numpy as np
from scipy.optimize import nnls


def simple_normals_by_nnls(mirrors, witness, residual_floor=1e-7):
    """Inward unit normals of the simple walls, in mirror order."""
    oriented = []
    for m in mirrors:
        s = float(m.normal @ witness)
        oriented.append(m.normal if s > 0 else -m.normal)
    oriented = np.stack(oriented)
    simple = []
    for i in range(len(oriented)):
        others = np.delete(oriented, i, axis=0)
        if len(others) == 0 or nnls(others.T, oriented[i])[1] > residual_floor:
            simple.append(oriented[i])
    return simple
