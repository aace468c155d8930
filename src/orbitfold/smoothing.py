"""Flat-profile smoothing: the step function h, radius fields, tube maps.

The profile h(t) = t*g(t) with g(t) = e(t)/(e(t)+e(1-t)),
e(t) = exp(-a/sqrt(t)) for t > 0 and 0 otherwise (a = E_RATE = 5.5), is flat
at 0, strictly increasing, and equals t from 1 on. Its derivatives up to
order 5 are nonnegative on (0, 0.2], so h^(0..4) are nondecreasing there;
the first sign changes are h^(5) at t ~ 0.303 and h^(4) at t ~ 0.363.
Each level-i face of the chamber carries a tube of radius l_i
(slope-limited by the distance to lower faces); inside the tube the map
F_i(x + t v) = x + l_i(x) h(t / l_i(x)) v crushes all normal derivatives at
the face while staying the identity outside. Composing wall maps first and
the radial map last gives G; precomposing with the fold gives the smooth
invariant map H.

Derivatives of h are evaluated through truncated Taylor jets: a jet holds
coefficients c_k = f^(k)(t)/k!, products are convolutions, and exp/divide
have short recurrences. Below t ~ 5.5e-5 the factor exp(-a/sqrt(t))
underflows, so h is *numerically* exactly flat there; the code leans on that
instead of fighting it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable

import numpy as np

from .chamber import (
    ON_WALL_TOL,
    Chamber,
    Face,
    Stratification,
    _as_point,
    _fold_image,
    _fold_rows,
    _norm,
    _norms,
    _null_space_basis,
    _unit_scaled,
    _unit_scaled_rows,
    chamber_from_group,
    classify,
    strata_levels,
)
from .groups import ReflectionGroup

ARG_DEAD_EPS = 1e-8      # below this (or within it of 1) the jet is replaced
E_RATE = 5.5             # a in e(t) = exp(-a/sqrt(t))
DERIVATIVE_ORDER_MAX = 4  # highest order eval_h evaluates


class TubeConfigError(ValueError):
    """Tube parameters violate the geometric disjointness bound."""


# ---------------------------------------------------------------------------
# Taylor jets for h
# ---------------------------------------------------------------------------

def _jet_mul(a: list[float], b: list[float]) -> list[float]:
    m = len(a)
    out = [0.0] * m
    for i, ai in enumerate(a):
        if ai == 0.0:
            continue
        for j in range(m - i):
            out[i + j] += ai * b[j]
    return out


def _jet_div(a: list[float], b: list[float]) -> list[float]:
    m = len(a)
    out = [0.0] * m
    out[0] = a[0] / b[0]
    for k in range(1, m):
        s = a[k]
        for j in range(1, k + 1):
            s -= b[j] * out[k - j]
        out[k] = s / b[0]
    return out


def _jet_exp(a: list[float]) -> list[float]:
    m = len(a)
    out = [0.0] * m
    out[0] = math.exp(a[0])
    for k in range(1, m):
        s = 0.0
        for j in range(1, k + 1):
            s += j * a[j] * out[k - j]
        out[k] = s / k
    return out


def _jet_e(t: float, order: int) -> list[float]:
    """Jet of e(t) = exp(-a/sqrt(t)) at t > 0 (zero jet once exp underflows,
    below t ~ 5.5e-5).

    The exponent's jet is the binomial series of -a*t^(-1/2): its j-th
    coefficient is -a*C(-1/2, j)*t^(-1/2-j).
    """
    if t <= ARG_DEAD_EPS:
        return [0.0] * (order + 1)
    w = [-E_RATE / math.sqrt(t)]
    for j in range(1, order + 1):
        w.append(w[-1] * (0.5 - j) / (j * t))
    return _jet_exp(w)


def _jet_e_reflected(t: float, order: int) -> list[float]:
    """Jet in t of e(1 - t): reflect the jet of e at 1 - t."""
    inner = _jet_e(1.0 - t, order)
    return [(-1.0) ** k * c for k, c in enumerate(inner)]


def _g0(t: float) -> float:
    """The smooth step g(t) = e(t)/(e(t)+e(1-t)) as a bare scalar."""
    if t <= ARG_DEAD_EPS:
        return 0.0
    if t >= 1.0 - ARG_DEAD_EPS:
        return 1.0
    u = math.exp(-E_RATE / math.sqrt(t))
    v = math.exp(-E_RATE / math.sqrt(1.0 - t))
    return u / (u + v)


def _g_rows(t: np.ndarray) -> np.ndarray:
    """_g0 at every entry of t."""
    g = (t >= 1.0 - ARG_DEAD_EPS).astype(float)
    mid = (t > ARG_DEAD_EPS) & (t < 1.0 - ARG_DEAD_EPS)
    u = np.exp(-E_RATE / np.sqrt(t[mid]))
    v = np.exp(-E_RATE / np.sqrt(1.0 - t[mid]))
    g[mid] = u / (u + v)
    return g


@dataclasses.dataclass(frozen=True)
class SmoothProfile:
    """The fixed flat-step profile h(t) = t*g(t); derivatives up to order
    DERIVATIVE_ORDER_MAX."""


def eval_h(profile: SmoothProfile, t: float, order: int = 0) -> float:
    """h or an analytic derivative of it: h^(order)(t).

    Zero at and near 0 (flat), exactly t from 1 on, jets in between.
    """
    t = float(t)
    if not t >= 0.0:
        raise ValueError("h is only evaluated at t >= 0")
    if not 0 <= order <= DERIVATIVE_ORDER_MAX:
        raise ValueError(
            f"order {order} outside supported range 0..{DERIVATIVE_ORDER_MAX}")
    if t <= ARG_DEAD_EPS:
        return 0.0
    if t >= 1.0 - ARG_DEAD_EPS:
        if order == 0:
            return t
        return 1.0 if order == 1 else 0.0
    if order == 0:
        return t * _g0(t)
    et = _jet_e(t, order)
    er = _jet_e_reflected(t, order)
    den = [x + y for x, y in zip(et, er)]
    g = _jet_div(et, den)
    h = _jet_mul(g, [t, 1.0] + [0.0] * (order - 1))
    return h[order] * math.factorial(order)


# ---------------------------------------------------------------------------
# tube radii
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TubeSpec:
    """Per-level radius parameters: l_i = cap-blend of b_i * softmin of
    distances to lower faces against c_i; level 0 uses the constant c0."""

    b: dict[int, float]          # slope per level 1..rank-1
    c: dict[int, float]          # cap per level 1..rank-1
    c0: float = 1.0
    softmin_exponent: int = 4

    def __post_init__(self) -> None:
        if self.c0 <= 0:
            raise ValueError("c0 must be positive")
        if self.softmin_exponent < 1:
            raise ValueError("softmin exponent must be >= 1")
        for d, label in ((self.b, "b"), (self.c, "c")):
            for i, val in d.items():
                if val <= 0:
                    raise ValueError(f"{label}_{i} must be positive, got {val}")


def minimal_wall_angle(group: ReflectionGroup) -> tuple[float, tuple[int, int] | None]:
    """Smallest dihedral angle between any two mirrors, with the pair."""
    best = math.pi / 2.0
    pair = None
    mirrors = group.mirrors
    for i in range(len(mirrors)):
        for j in range(i + 1, len(mirrors)):
            c = abs(float(mirrors[i].normal @ mirrors[j].normal))
            ang = math.acos(min(c, 1.0))
            ang = min(ang, math.pi - ang)
            if ang < best:
                best, pair = ang, (i, j)
    return best, pair


def default_tubes(group: ReflectionGroup) -> TubeSpec:
    theta, _ = minimal_wall_angle(group)
    slope = min(0.1, math.sin(theta) / 4.0)
    levels = range(1, group.essential_rank)
    return TubeSpec(b={i: slope for i in levels}, c={i: 1.0 for i in levels})


def softmin(distances: Iterable[float], k: int) -> float:
    """(sum d_j^-k)^(-1/k): smooth, positive, below min, equal for one arg.

    Evaluated as d_min*(sum (d_min/d_j)^k)^(-1/k), the scaling `hypot` uses:
    every ratio is at most 1 and the d_min term is exactly 1, so the sum
    neither overflows nor underflows wherever the distances themselves are
    finite (d^-k alone underflows from d ~ 1e81 at k = 4).
    """
    ds = list(distances)
    if not ds:
        raise ValueError("softmin needs at least one distance")
    if not all(d > 0.0 for d in ds):
        raise ValueError("softmin needs strictly positive distances")
    d_min = min(ds)
    acc = 0.0
    for d in ds:
        acc += (d_min / d) ** k
    return d_min * acc ** (-1.0 / k)


# ---------------------------------------------------------------------------
# the chain
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class TubeCoords:
    """Location of a point inside one tube: foot, unit normal, height.

    normal is None exactly when the point sits on the face (t == 0).
    """

    face: Face
    foot: np.ndarray
    normal: np.ndarray | None
    t: float
    radius: float


@dataclasses.dataclass(frozen=True, eq=False)
class SmoothChain:
    group: ReflectionGroup
    chamber: Chamber
    stratification: Stratification
    profile: SmoothProfile
    tubes: TubeSpec

    _lower: tuple[tuple[Face, ...], ...] = dataclasses.field(init=False, repr=False)
    # level i >= 1 -> (stacked complement rows of every lower face, row offsets)
    _lower_rows: dict[int, tuple[np.ndarray, np.ndarray]] = dataclasses.field(
        init=False, repr=False)
    # level i -> (projectors of its faces stacked as (F*n, n), (F, k) penalty
    # rows: inf at each face's active walls, 0 at its inactive ones)
    _face_rows: tuple[tuple[np.ndarray, np.ndarray], ...] = dataclasses.field(
        init=False, repr=False)
    # level i -> active-wall bitmask of each of its faces (bit j for wall j)
    _face_masks: tuple[tuple[int, ...], ...] = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        faces = self.stratification.faces
        lower = tuple(
            tuple(f for f in faces if f.level < lv) for lv in range(self.rank + 2))
        object.__setattr__(self, "_lower", lower)
        dim = self.chamber.dimension
        rows = {}
        for lv in range(1, self.rank):
            blocks = [_null_space_basis(f.basis.T, dim).T for f in lower[lv]]
            sizes = [b.shape[0] for b in blocks]
            rows[lv] = (np.concatenate(blocks), np.cumsum([0] + sizes[:-1]))
        object.__setattr__(self, "_lower_rows", rows)
        face_rows = []
        for lv in range(self.rank):
            level_faces = self.stratification.faces_at_level(lv)
            penalty = np.zeros((len(level_faces), len(self.chamber.simple_normals)))
            for row, face in zip(penalty, level_faces):
                row[list(face.active)] = np.inf
            projectors = [face.basis @ face.basis.T for face in level_faces]
            face_rows.append((np.concatenate(projectors), penalty))
        object.__setattr__(self, "_face_rows", tuple(face_rows))
        object.__setattr__(self, "_face_masks", tuple(
            tuple(sum(1 << j for j in face.active)
                  for face in self.stratification.faces_at_level(lv))
            for lv in range(self.rank)))

    @property
    def rank(self) -> int:
        return self.group.essential_rank

    def lower_faces(self, level: int) -> tuple[Face, ...]:
        """Faces of lower level than `level`, in stratification order."""
        return self._lower[min(max(level, 0), self.rank + 1)]

    def lower_face_distances(self, level: int, x: np.ndarray) -> np.ndarray:
        """Distances from a closed-chamber point x to each of
        lower_faces(level), in that order, for 1 <= level < rank.

        On the closed chamber the distance to a face is the distance to
        its linear span. Inward simple normals meet pairwise at
        <n_i, n_j> <= 0 (Humphreys, Reflection Groups and Coxeter Groups,
        1.3), so each Gram submatrix G_S is a nonsingular M-matrix with an
        entrywise nonnegative inverse (Berman-Plemmons, ch. 6). The
        projection of x onto the span of face F_S is x - sum c_i n_i with
        c = G_S^-1 (<x, n_i>)_{i in S} >= 0, so for j outside S it keeps
        <., n_j> >= <x, n_j> >= 0 and lies in the face. Each distance is
        then the norm of x in the face's orthogonal complement: one matmul
        against the stacked complement rows and one segmented sum of
        squares. Off the chamber it is only a lower bound; there
        chamber.dist_to_face is the exact distance. Where |x|^2 would leave
        the normal range, x is scaled by a power of two first and the
        distances scaled back (chamber._unit_scaled).
        """
        rows, starts = self._lower_rows[level]
        w, e, _ = _unit_scaled(x)
        y = rows @ w
        dists = np.sqrt(np.add.reduceat(y * y, starts))
        return np.ldexp(dists, e) if e else dists


def build_chain(group: ReflectionGroup, tubes: TubeSpec | None = None) -> SmoothChain:
    """Assemble the smoothing chain over the group's chamber; tubes default
    to the safe preset."""
    chamber = chamber_from_group(group)
    if tubes is None:
        tubes = default_tubes(group)
    for i in range(1, group.essential_rank):
        if i not in tubes.b or i not in tubes.c:
            raise ValueError(f"tube parameters missing for level {i}")
    return SmoothChain(
        group=group, chamber=chamber,
        stratification=strata_levels(group, chamber),
        profile=SmoothProfile(), tubes=tubes,
    )


def _radius_at(chain: SmoothChain, face: Face, x: np.ndarray) -> float:
    """l_i at a point of the open level-i face (no membership re-check).

    The lower-face distances come from SmoothChain.lower_face_distances,
    exact on the closed chamber. Every caller stays there: the feet of
    _claiming_faces pass the open-face test, eval_l points lie on a face
    (to the classification tolerance) and validate_tubes uses interior
    points.
    """
    i = face.level
    if i == 0:
        return chain.tubes.c0
    dists = chain.lower_face_distances(i, x).tolist()
    raw = chain.tubes.b[i] * softmin(dists, chain.tubes.softmin_exponent)
    cap = chain.tubes.c[i]
    ratio = raw / cap
    if ratio <= 1.0:
        return raw
    if ratio >= 2.0:
        return cap
    w = _g0(ratio - 1.0)
    return (1.0 - w) * raw + w * cap


def _stack_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T, each row rounded as in any stack of two or more rows.

    BLAS takes a one-row product as a matrix-vector product, which rounds
    differently, so a row's bits would depend on whether other rows share
    the call. A lone row is therefore evaluated twice over.
    """
    if len(a) == 1:
        return (np.concatenate([a, a]) @ b.T)[:1]
    return a @ b.T


def _radius_rows(chain: SmoothChain, i: int, feet: np.ndarray) -> np.ndarray:
    """_radius_at for every row of a stack of feet in open level-i faces."""
    if i == 0:
        return np.full(len(feet), chain.tubes.c0)
    rows, starts = chain._lower_rows[i]
    unit, e, _ = _unit_scaled_rows(feet)
    y = _stack_product(unit, rows)
    dists = np.sqrt(np.add.reduceat(y * y, starts, axis=1))
    scaled = e != 0
    if scaled.any():
        dists[scaled] = np.ldexp(dists[scaled], e[scaled, None])
    # softmin, scaled as in the scalar form
    k = chain.tubes.softmin_exponent
    d_min = dists.min(axis=1)
    acc = ((d_min[:, None] / dists) ** k).sum(axis=1)
    raw = chain.tubes.b[i] * (d_min * acc ** (-1.0 / k))
    cap = chain.tubes.c[i]
    ratio = raw / cap
    blend = (ratio > 1.0) & (ratio < 2.0)
    w = _g_rows(ratio[blend] - 1.0)
    radius = np.where(ratio <= 1.0, raw, cap)
    radius[blend] = (1.0 - w) * raw[blend] + w * cap
    return radius


def eval_l(chain: SmoothChain, i: int, x: Iterable[float]) -> float:
    """Tube radius of level i at a point x of a level-i face."""
    x = _as_point(x, chain.chamber.dimension)
    desc = classify(chain.group, x)
    if desc.level != i:
        raise ValueError(f"point classifies to level {desc.level}, not {i}")
    if i == 0:
        return chain.tubes.c0
    for face in chain.stratification.faces_at_level(i):
        if chain.stratification.face_contains(face, x):
            return _radius_at(chain, face, x)
    raise ValueError(f"point is not on any level-{i} chamber face")


def _reach(chain: SmoothChain, i: int, size):
    """Bound on |<p, n_j>| at every active wall j of a level-i face whose
    tube can hold p, where size = |p| (a float, or an array of row norms).

    Let F_S be a level-i face with active walls S, x the foot of p on its
    span and t = |p - x|. Each n_j (j in S) is a unit vector orthogonal to
    the span, so |<p, n_j>| = |<p - x, n_j>| <= t. The tube holds p only if
    t < l_i(x). At level 0, l_0 = c0. At level i >= 1 the cap blend gives
    l_i <= raw and l_i < 2c_i (raw itself when raw <= c_i, c_i when
    raw >= 2c_i, and between c_i and raw otherwise), and raw = b_i*softmin
    <= b_i*|x_eff| <= b_i*|x| <= b_i*|p|: softmin is at most its least
    distance, and the level-0 face, at distance |x_eff|, is among the lower
    faces. So every such wall has |<p, n_j>| < R_i, with R_0 = c0 and
    R_i = min(b_i*|p|, 2c_i).

    The bound returned is R_i + 1e-9*(1 + |p| + R_i). The computed wall
    values, t and l_i are each within a few ulps of the exact ones, that is
    about 1e-15*(|p| + R_i), far inside the margin. So a face with a wall
    value beyond the bound would also fail the computed test t < l_i, and
    skipping it leaves the claimed face and every output bit unchanged.
    """
    tubes = chain.tubes
    if i == 0:
        bound = tubes.c0
    else:
        minimum = min if isinstance(size, float) else np.minimum
        bound = minimum(tubes.b[i] * size, 2.0 * tubes.c[i])
    return bound + 1e-9 * (1.0 + size + bound)


def _claiming_faces(chain: SmoothChain, i: int, p: np.ndarray) -> list[TubeCoords]:
    """Tube coordinates of p with respect to every level-i tube that holds it.

    Faces with an active wall farther from p than _reach allows are skipped
    before their projection: their tubes cannot hold p.
    """
    size = _norm(p)
    reach = _reach(chain, i, size)
    far = 0
    for j, w in enumerate((chain.chamber.simple_normals @ p).tolist()):
        if w > reach or w < -reach:
            far |= 1 << j
    hits = []
    for face, mask in zip(chain.stratification.faces_at_level(i), chain._face_masks[i]):
        if mask & far:
            continue
        x = face.project_to_span(p)
        if face.inactive:
            vals = face.inactive_normals @ x
            # the open-face test carries the classification fuzz: feet within
            # it of the boundary belong to lower strata, and admitting them
            # would feed (numerically) zero distances to the radius field
            if vals.min() <= ON_WALL_TOL * (1.0 + _norm(x, size)):
                continue
        r = p - x
        t = _norm(r, size)
        radius = _radius_at(chain, face, x)
        if t >= radius:
            continue
        normal = r / t if t > 0.0 else None
        hits.append(TubeCoords(face=face, foot=x, normal=normal, t=t, radius=radius))
    return hits


def tube_coords(chain: SmoothChain, i: int, p: Iterable[float]) -> TubeCoords | None:
    """Foot/normal/height of p inside the level-i tube, or None outside.

    The foot must land in the open face and the height must be under the
    local radius; t = 0 flags the on-stratum case with normal = None.
    """
    p = np.asarray(p, dtype=float)
    hits = _claiming_faces(chain, i, p)
    return hits[0] if hits else None


def apply_F(chain: SmoothChain, i: int, p: Iterable[float]) -> np.ndarray:
    """One tube map: radial reparametrization by h inside, identity outside."""
    p = np.asarray(p, dtype=float)
    tc = tube_coords(chain, i, p)
    if tc is None or tc.t == 0.0:
        return p.copy()
    u = tc.t / tc.radius
    return tc.foot + (tc.radius * eval_h(chain.profile, u, 0)) * tc.normal


def _apply_F_rows(chain: SmoothChain, i: int, points: np.ndarray) -> np.ndarray:
    """apply_F at every row of an (N, n) stack.

    _reach rules out each (row, face) pair with an active wall farther
    from the row than it allows, as in _claiming_faces; rows left with no
    pair keep their value. One matmul gives each remaining row's foot on
    every level-i face; the open-face test, the heights t and the radii of
    the candidate feet that pass it are each one array operation over the
    (row, face) pairs. Each row then takes the first face, in
    faces_at_level order, whose tube holds it, as tube_coords does. Every
    product rounds each row as _stack_product does, so a row's result does
    not depend on the rest of the stack.
    """
    projectors, penalty = chain._face_rows[i]
    normals = chain.chamber.simple_normals
    size = _norms(points)
    far = np.abs(points @ normals.T) > _reach(chain, i, size)[:, None]
    far_bits = far @ (1 << np.arange(len(normals)))
    candidate = (far_bits[:, None] & np.array(chain._face_masks[i])) == 0
    live = np.flatnonzero(candidate.any(axis=1))
    out = points.copy()
    if live.size == 0:
        return out
    points, candidate, below = points[live], candidate[live], size[live].max()
    n_rows, dim = points.shape
    n_faces = len(penalty)
    feet = _stack_product(points, projectors).reshape(n_rows, n_faces, dim)
    foot_norm = _norms(feet, below)
    wall_vals = feet @ normals.T + penalty
    open_face = candidate & (wall_vals.min(axis=2) > ON_WALL_TOL * (1.0 + foot_norm))
    offset = points[:, None, :] - feet
    t = _norms(offset, below)
    radius = np.zeros((n_rows, n_faces))
    radius[open_face] = _radius_rows(chain, i, feet[open_face])
    claims = open_face & (t < radius)
    rows = np.flatnonzero(claims.any(axis=1))
    face = claims[rows].argmax(axis=1)
    # a row on its face (t == 0) stays where it is, as in apply_F
    off_face = t[rows, face] > 0.0
    rows, face = rows[off_face], face[off_face]
    height, rad = t[rows, face], radius[rows, face]
    u = height / rad
    h = u * _g_rows(u)          # eval_h at order 0
    out[live[rows]] = feet[rows, face] + (rad * h)[:, None] * (offset[rows, face] / height[:, None])
    return out


def _apply_partial_rows(chain: SmoothChain, i: int, points: np.ndarray) -> np.ndarray:
    """apply_partial at every row of an (N, n) stack."""
    for j in range(chain.rank - 1, i - 1, -1):
        points = _apply_F_rows(chain, j, points)
    return points


def _apply_G_rows(chain: SmoothChain, points: np.ndarray) -> np.ndarray:
    """apply_G at every row of an (N, n) stack of closed-chamber points."""
    normals = chain.chamber.simple_normals
    size = 1.0 + _norms(points)
    if not np.all((points @ normals.T).min(axis=1) >= -ON_WALL_TOL * size):
        raise ValueError("point lies outside the closed chamber")
    return _apply_partial_rows(chain, 0, points)


def _apply_H_rows(chain: SmoothChain, points: np.ndarray) -> np.ndarray:
    """apply_H at every row of an (N, n) stack."""
    images = _fold_rows(chain.chamber.simple_normals, points, chain.group.order)
    return _apply_partial_rows(chain, 0, images)


def apply_partial(chain: SmoothChain, i: int, p: Iterable[float]) -> np.ndarray:
    """The partial composite: F_{n-1} first, descending to F_i last."""
    q = np.asarray(p, dtype=float)
    for j in range(chain.rank - 1, i - 1, -1):
        q = apply_F(chain, j, q)
    return q


def apply_G(chain: SmoothChain, p: Iterable[float]) -> np.ndarray:
    """Full composite on the closed chamber (walls first, origin last)."""
    p = _as_point(p, chain.chamber.dimension)
    if not chain.chamber.contains(p):
        raise ValueError("point lies outside the closed chamber")
    return apply_partial(chain, 0, p)


def apply_H(chain: SmoothChain, p: Iterable[float]) -> np.ndarray:
    """The invariant map: fold into the chamber, then smooth."""
    p = _as_point(p, chain.chamber.dimension)
    image, _ = _fold_image(chain.chamber.simple_normals, p, chain.group.order)
    return apply_partial(chain, 0, image)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TubeReport:
    theta_min: float | None
    slope_margins: dict[int, float]    # bound minus configured slope
    tube_points_checked: int


def _normal_space_directions(face: Face, dim: int, rng: np.random.Generator,
                             count: int) -> list[np.ndarray]:
    """Random unit vectors orthogonal to the face span."""
    basis = face.basis
    out = []
    for _ in range(count * 4):
        v = rng.normal(size=dim)
        v = v - basis @ (basis.T @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            out.append(v / norm)
        if len(out) == count:
            break
    return out


def validate_tubes(chain: SmoothChain) -> TubeReport:
    """Check the slope bound, tube disjointness, and foot uniqueness.

    The analytic bound b_i <= sin(theta_min)/4 is checked first and raises
    TubeConfigError naming the offending wall pair; the sampling checks then
    confirm disjointness of same-level tubes and that each sampled tube
    point projects back to the face it was built over. Each face is sampled
    along 4 random normal directions (seed 0) at 3 scales and 3 heights.
    """
    group = chain.group
    theta: float | None
    slope_margins: dict[int, float] = {}
    if len(group.mirrors) >= 2:
        theta, pair = minimal_wall_angle(group)
        bound = math.sin(theta) / 4.0
        for i, b_i in chain.tubes.b.items():
            slope_margins[i] = bound - b_i
            if b_i > bound + 1e-12:
                raise TubeConfigError(
                    f"slope b_{i} = {b_i:g} exceeds sin(theta_min)/4 = {bound:.6g}"
                    f" set by mirror pair {pair}")
    else:
        theta = None
        slope_margins = {i: math.inf for i in chain.tubes.b}

    rng = np.random.default_rng(0)
    strat = chain.stratification
    checked = 0
    for level in range(1, chain.rank):
        faces = strat.faces_at_level(level)
        for face in faces:
            dirs = _normal_space_directions(face, chain.chamber.dimension, rng, 4)
            for scale in (0.3, 1.0, 3.0):
                x = strat.interior_point(face, radius=scale)
                radius = _radius_at(chain, face, x)
                for v in dirs:
                    for frac in (0.25, 0.6, 0.95):
                        p = x + (frac * radius) * v
                        hits = _claiming_faces(chain, level, p)
                        checked += 1
                        owners = [h for h in hits if h.face is face]
                        others = [h for h in hits if h.face is not face]
                        if others:
                            raise TubeConfigError(
                                f"tubes overlap at level {level}: faces"
                                f" {face.active} and {others[0].face.active}"
                                f" both contain {p}")
                        if not owners:
                            continue       # fell past a face edge; harmless
                        if np.linalg.norm(owners[0].foot - x) > 1e-9 * (1 + scale):
                            raise TubeConfigError(
                                f"foot of a level-{level} tube point is not unique")
    return TubeReport(
        theta_min=theta,
        slope_margins=slope_margins,
        tube_points_checked=checked,
    )
