"""The verify samplers and validate_tubes' sampling checks as they were
before they were stacked, frozen for tests.

Each Gaussian sampler draws one point per try from the rng it is given,
folds it with the public fold, and tests it with the public classify,
essential_split and tube_coords, one point at a time. sample_face_point
draws one face point per call, as the flatness check, the wall probes and
the wall-preservation check did. The stacked samplers in orbitfold.verify
must choose the same points, bit for bit, from the same seed. tube_hits
walks every face of a level for the tubes that hold a point, with no bound
on which faces to try."""

import math

import numpy as np

from orbitfold import smoothing
from orbitfold.chamber import ON_WALL_TOL, _orthogonal_directions, classify, fold
from orbitfold.groups import essential_split
from orbitfold.smoothing import TubeConfigError, tube_coords


def sample_face_point(chain, face, rng, radius_range=(0.5, 2.0)):
    """Random point in the relative interior of a face (positive edge-ray
    combination at a random scale); the origin on a face with no inactive
    walls."""
    if not face.inactive:
        return np.zeros(chain.group.dimension)
    rays = chain.stratification.edge_rays[list(face.inactive)]
    weights = rng.uniform(0.2, 1.8, size=len(rays))
    x = weights @ rays
    x = x / np.linalg.norm(x)
    return float(rng.uniform(*radius_range)) * x


def face_samples(chain, faces, count, rng, radius_range):
    """verify._face_samples' points: sample j on faces[j % len(faces)]."""
    points = [sample_face_point(chain, faces[j % len(faces)], rng, radius_range)
              for j in range(count)]
    return np.reshape(points, (count, chain.group.dimension))


def tube_hits(chain, i, p):
    """Every level-i tube that holds p, in faces_at_level order, each as
    tube_coords gives it: (face, foot, t, radius)."""
    hits = []
    for face in chain.stratification.faces_at_level(i):
        x = face.project_to_span(p)
        if face.inactive:
            vals = face.inactive_normals @ x
            if vals.min() <= ON_WALL_TOL * (1.0 + math.sqrt(x.dot(x))):
                continue
        r = p - x
        t = math.sqrt(r.dot(r))
        radius = smoothing._radius_at(chain, face, x)
        if t >= radius:
            continue
        hits.append((face, x, t, radius))
    return hits


def separated_pairs(chain, rng, pairs):
    """check_injectivity's pairs: (firsts, seconds) as (pairs, n) stacks."""
    dim = chain.group.dimension
    firsts, seconds = [], []
    while len(firsts) < pairs:
        p = fold(chain.group, chain.chamber, rng.normal(scale=2.0, size=dim)).image
        q = fold(chain.group, chain.chamber, rng.normal(scale=2.0, size=dim)).image
        if float(np.linalg.norm(p - q)) < 1e-4:
            continue
        firsts.append(p)
        seconds.append(q)
    return np.reshape(firsts, (pairs, dim)), np.reshape(seconds, (pairs, dim))


def tail_points(chain, rng, count):
    """check_identity_tail's points, at most 100*count tries: (points,
    fold images) as stacks."""
    dim = chain.group.dimension
    points, images = [], []
    tries = 0
    while len(points) < count and tries < 100 * count:
        tries += 1
        p = rng.normal(scale=3.0, size=dim)
        image = fold(chain.group, chain.chamber, p).image
        _, eff = essential_split(chain.group, image)
        if float(np.linalg.norm(eff)) < chain.tubes.c0:
            continue
        if any(tube_coords(chain, i, image) is not None for i in range(1, chain.rank)):
            continue
        points.append(p)
        images.append(image)
    return np.reshape(points, (-1, dim)), np.reshape(images, (-1, dim))


def regular_margin_point(chain, rng):
    """One point of check_regular_jacobian's margin sampler."""
    for _ in range(500):
        p = rng.normal(scale=1.5, size=chain.group.dimension)
        q = fold(chain.group, chain.chamber, p).image
        if classify(chain.group, q).walls_containing:
            continue
        _, q_eff = essential_split(chain.group, q)
        if float(np.linalg.norm(q_eff)) < 0.3 * chain.tubes.c0:
            continue
        ok = True
        for i in range(1, chain.rank):
            coords = tube_coords(chain, i, q)
            if coords is not None and coords[2] < 0.3 * coords[3]:
                ok = False
                break
        if ok:
            return q
    raise RuntimeError("could not sample a regular point with tube margins")


def regular_margin_points(chain, rng, count):
    return np.reshape([regular_margin_point(chain, rng) for _ in range(count)],
                      (count, chain.group.dimension))


def validate_tube_samples(chain):
    """validate_tubes' sampling checks, one point at a time through
    tube_hits: the number of points checked, or the TubeConfigError of the
    first offending point."""
    rng = np.random.default_rng(0)
    strat = chain.stratification
    checked = 0
    for level in range(1, chain.rank):
        for face in strat.faces_at_level(level):
            dirs = _orthogonal_directions(face.basis, rng, 4)
            for scale in (0.3, 1.0, 3.0):
                x = strat.interior_point(face, radius=scale)
                radius = smoothing._radius_at(chain, face, x)
                for v in dirs:
                    for frac in (0.25, 0.6, 0.95):
                        p = x + (frac * radius) * v
                        hits = tube_hits(chain, level, p)
                        checked += 1
                        owners = [h for h in hits if h[0] is face]
                        others = [h for h in hits if h[0] is not face]
                        if others:
                            raise TubeConfigError(
                                f"tubes overlap at level {level}: faces"
                                f" {face.active} and {others[0][0].active}"
                                f" both contain {p}")
                        if not owners:
                            continue
                        if np.linalg.norm(owners[0][1] - x) > 1e-9 * (1 + scale):
                            raise TubeConfigError(
                                f"foot of a level-{level} tube point is not unique")
    return checked
