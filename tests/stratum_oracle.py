"""classify's scalar rule as it was before it became one row of the
stacked stratum test, frozen for tests.

One point at a time: p is scaled to unit size by a power of two where
|p|^2 would overflow, split by the public essential_split, and tested
mirror by mirror against tol*(1 + |p_eff|) plus the rounding of the split,
a few ulps of |p_fixed|. The level is essential_rank minus the SVD rank of
the normals through p. chamber._classify_rows and classify must give the
same walls and level. The scaling and norm helpers, which did not change,
are imported.
"""

import math

import numpy as np

from orbitfold.chamber import ON_WALL_TOL, StratumDescriptor, _norm, _unit_scaled
from orbitfold.groups import essential_split


def incidence(group, p, tol=ON_WALL_TOL):
    """(p_eff, slack): p's essential part and the wall-incidence threshold,
    both p*2**-e's where |p|^2 would overflow (e > 0)."""
    w, e, _ = _unit_scaled(p)
    e = max(e, 0)
    p_fixed, p_eff = essential_split(group, w if e else p)
    one = math.ldexp(1.0, -e)
    return p_eff, tol * (one + _norm(p_eff)) + 1e-14 * _norm(p_fixed)


def classify(group, p, tol=ON_WALL_TOL):
    """The mirrors through p, its level and its stratum's dimension."""
    p = np.asarray(p, dtype=float)
    p_eff, slack = incidence(group, p, tol)
    walls = tuple(
        i for i, m in enumerate(group.mirrors)
        if abs(float(m.normal @ p_eff)) <= slack
    )
    rank = 0
    if walls:
        svals = np.linalg.svd(group.mirror_normals[list(walls)], compute_uv=False)
        rank = int(np.sum(svals > 1e-9))
    return StratumDescriptor(
        walls_containing=walls,
        level=group.essential_rank - rank,
        dimension=group.dimension - rank,
    )


def face_contains(strat, face, p):
    """Membership of p in the closed face, wall by wall with classify's
    threshold: on every active wall and not beyond any inactive one. eval_l
    must take the first face of its level that passes."""
    p_eff, slack = incidence(strat.group, np.asarray(p, dtype=float))
    vals = (strat.chamber.simple_normals @ p_eff).tolist()
    return (all(abs(vals[j]) <= slack for j in face.active)
            and all(vals[j] >= -slack for j in face.inactive))
