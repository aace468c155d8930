"""Exact distance from a point to one closed chamber face, for tests.

The nearest point of a polyhedral cone lies in the relative interior of one
of its subfaces, and there it is the orthogonal projection onto that
subface's span. Enumerating every subface and keeping the least distance
whose projection satisfies the remaining walls is therefore exact, on and
off the chamber. It shares no code with SmoothChain.lower_face_distances
beyond the null-space helper.
"""

import itertools

import numpy as np

from orbitfold.chamber import _null_space_basis


def _dist_by_subset_enumeration(strat, face, p):
    """Distance from p to the closed face, by subface enumeration: every
    subface basis is rebuilt from its active walls on each call."""
    p = np.asarray(p, dtype=float)
    normals = strat.chamber.simple_normals
    dim = normals.shape[1]
    scale = 1.0 + float(np.linalg.norm(p))
    best = np.inf
    inactive = face.inactive
    for extra in itertools.chain.from_iterable(
        itertools.combinations(inactive, r) for r in range(len(inactive) + 1)
    ):
        basis = _null_space_basis(normals[sorted(face.active + extra)], dim)
        q = basis @ (basis.T @ p)
        rest = [j for j in inactive if j not in extra]
        if rest and np.min(normals[rest] @ q) < -1e-9 * scale:
            continue
        d = float(np.linalg.norm(p - q))
        if d < best:
            best = d
    return best
