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

Derivatives of h are evaluated through truncated Taylor jets, over a whole
array of t at once: a jet holds coefficients c_k = f^(k)(t)/k!, one row per
k and one column per entry, products are convolutions, and exp/divide have
short recurrences. Below t ~ 5.5e-5 the factor exp(-a/sqrt(t)) underflows,
so h is *numerically* exactly flat there; the code leans on that instead of
fighting it.

e has one array definition, the constant term of its jet (_jet_e), each
exp through math.exp. The stacked g of the stacked tube maps and cap
blends (_g_rows) is built on it, so the map's h is the jets' order 0 bit
for bit. The scalar _g0 is its per-point twin; a test holds the two to
each other bit for bit. The per-point tube map _apply_F, which apply_G
and apply_H chain, takes h as u*_g0(u), the value eval_h returns at order
0, and reads the (face, foot, t, radius) that tube_coords gives; tests hold
the stacked kernels verify runs to it bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import Iterable

import numpy as np

from .chamber import (
    ON_WALL_TOL,
    Chamber,
    Face,
    Stratification,
    _as_point,
    _first_true_columns,
    _fold_rows,
    _norm,
    _norms,
    _null_space_basis,
    _orthogonal_directions,
    _reduce_columns,
    _reflect_into_chamber,
    _stack_product,
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

def _jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two stacks of jets, (m, N) each: coefficient k of entry
    s sums a[i, s]*b[k - i, s] in increasing i."""
    out = np.zeros_like(a)
    for i in range(len(a)):
        out[i:] += a[i] * b[:len(a) - i]
    return out


def _jet_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quotient a/b of two stacks of jets, (m, N) each."""
    out = np.empty_like(a)
    out[0] = a[0] / b[0]
    for k in range(1, len(a)):
        s = a[k]
        for j in range(1, k + 1):
            s = s - b[j] * out[k - j]
        out[k] = s / b[0]
    return out


def _jet_e(t: np.ndarray, order: int) -> np.ndarray:
    """Jets of e(t) = exp(-a/sqrt(t)) at every entry of t > ARG_DEAD_EPS,
    as an (order + 1, N) stack. Row 0 is the one array definition of e:
    the jets of h and the stacked g both read it.

    The exponent's jet w is the binomial series of -a*t^(-1/2): its j-th
    coefficient is -a*C(-1/2, j)*t^(-1/2-j). Its exp takes the constant
    term through math.exp entry by entry, as _g0 does (np.exp rounds some
    arguments differently), and the rest from k*e_k = sum_j j*w_j*e_(k-j).
    """
    w = np.empty((order + 1, len(t)))
    w[0] = -E_RATE / np.sqrt(t)
    for j in range(1, order + 1):
        w[j] = w[j - 1] * (0.5 - j) / (j * t)
    e = np.empty_like(w)
    e[0] = np.fromiter(map(math.exp, w[0].tolist()), float, len(t))
    for k in range(1, order + 1):
        acc = np.zeros(len(t))
        for j in range(1, k + 1):
            acc = acc + j * w[j] * e[k - j]
        e[k] = acc / k
    return e


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
    """g at every entry of t, on the e of _jet_e: _g0's bits. A stack with
    no entry strictly inside (0, 1) takes no exp at all."""
    g = (t >= 1.0 - ARG_DEAD_EPS).astype(float)
    mid = (t > ARG_DEAD_EPS) & (t < 1.0 - ARG_DEAD_EPS)
    if not mid.any():
        return g
    s = t[mid]
    u, v = _jet_e(np.concatenate([s, 1.0 - s]), 0)[0].reshape(2, -1)
    g[mid] = u / (u + v)
    return g


def _h_rows(u: np.ndarray) -> np.ndarray:
    """h = u*g(u) at every entry of u, as the stacked tube map takes it."""
    return u * _g_rows(u)


def _h_derivatives(t: np.ndarray, order: int) -> np.ndarray:
    """h, h', ..., h^(order) at every entry of a 1-D array of finite t >= 0,
    as an (order + 1, N) stack, each column from one jet.

    Zero at and near 0 (flat), exactly t from 1 on, jets in between. A
    jet's coefficient k does not depend on how far the jet runs, so each
    entry has the bits a jet of its own order gives it.
    """
    identity = np.zeros((order + 1, len(t)))     # the jet of t itself
    identity[0] = t
    if order:
        identity[1] = 1.0
    out = np.zeros_like(identity)
    tail = t >= 1.0 - ARG_DEAD_EPS
    out[:, tail] = identity[:, tail]
    mid = (t > ARG_DEAD_EPS) & ~tail
    s = t[mid]
    et = _jet_e(s, order)
    # the jet in t of e(1 - t): the jet of e at 1 - t, odd coefficients negated
    er = _jet_e(1.0 - s, order) * [[(-1.0) ** k] for k in range(order + 1)]
    h = _jet_mul(_jet_div(et, et + er), identity[:, mid])
    out[:, mid] = h * [[float(math.factorial(k))] for k in range(order + 1)]
    return out


def eval_h(t: float, order: int = 0) -> float:
    """h or an analytic derivative of it: h^(order)(t), from
    _h_derivatives; h itself away from the flat zone is t*g(t), with no jet.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t is not finite: {t}")
    if t < 0.0:
        raise ValueError("h is only evaluated at t >= 0")
    if not 0 <= order <= DERIVATIVE_ORDER_MAX:
        raise ValueError(
            f"order {order} outside supported range 0..{DERIVATIVE_ORDER_MAX}")
    if t <= ARG_DEAD_EPS:
        return 0.0          # flat: every derivative vanishes
    if order == 0:
        return t * _g0(t)
    return float(_h_derivatives(np.array([t]), order)[order, 0])


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
        if not 0 < self.c0 < math.inf:
            raise ValueError(f"c0 must be positive and finite, got {self.c0}")
        if self.softmin_exponent < 1:
            raise ValueError("softmin exponent must be >= 1")
        for d, label in ((self.b, "b"), (self.c, "c")):
            for i, val in d.items():
                if not 0 < val < math.inf:
                    raise ValueError(f"{label}_{i} must be positive and finite, got {val}")


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
class SmoothChain:
    group: ReflectionGroup
    chamber: Chamber
    stratification: Stratification
    tubes: TubeSpec

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
        dim = self.chamber.dimension
        rows = {}
        for lv in range(1, self.rank):
            blocks = [_null_space_basis(f.basis.T, dim).T
                      for f in faces if f.level < lv]
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

    def lower_face_distances(self, level: int, x: np.ndarray) -> np.ndarray:
        """Distances from a closed-chamber point x to each face of lower
        level than `level`, in stratification order, for 1 <= level < rank.

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
        squares. Off the chamber it is only a lower bound. Where |x|^2
        would leave the normal range, x is scaled by a power of two first
        and the distances scaled back (chamber._unit_scaled).
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
        tubes=tubes,
    )


def _radius_at(chain: SmoothChain, face: Face, x: np.ndarray) -> float:
    """l_i at a point of the open level-i face (no membership re-check).

    The lower-face distances come from SmoothChain.lower_face_distances,
    exact on the closed chamber. Every caller stays there: the feet of
    _claiming_face pass the open-face test, eval_l points and wall-probe
    samples lie on a face (to the classification tolerance) and
    validate_tubes uses interior points.

    The cap blend is one formula, (1 - w)*raw + w*c_i with w =
    g(raw/c_i - 1): g is 0 for raw <= c_i and 1 for raw >= 2c_i, so it
    gives raw and c_i exactly there.
    """
    i = face.level
    if i == 0:
        return chain.tubes.c0
    dists = chain.lower_face_distances(i, x).tolist()
    raw = chain.tubes.b[i] * softmin(dists, chain.tubes.softmin_exponent)
    cap = chain.tubes.c[i]
    w = _g0(raw / cap - 1.0)
    return (1.0 - w) * raw + w * cap


def _radius_rows(chain: SmoothChain, i: int, feet: np.ndarray) -> np.ndarray:
    """_radius_at for every row of a stack of feet in open level-i faces."""
    if i == 0:
        return np.full(len(feet), chain.tubes.c0)
    rows, starts = chain._lower_rows[i]
    unit, e, _ = _unit_scaled_rows(feet)
    y = _stack_product(unit, rows)
    # each face's square sum, column by column: its first square plus the
    # left-to-right chain of the rest, the order in which np.add.reduceat
    # (slower on short segments) sums a segment of up to 8 squares
    sq = y * y
    bounds = starts.tolist() + [len(rows)]
    sums = np.empty((len(sq), len(starts)))
    for f, (first, end) in enumerate(zip(bounds, bounds[1:])):
        rest = sq[:, first + 1] if end - first > 1 else 0.0
        for col in range(first + 2, end):
            rest = rest + sq[:, col]
        np.add(sq[:, first], rest, out=sums[:, f])
    dists = np.sqrt(sums)
    scaled = e != 0
    if scaled.any():
        dists[scaled] = np.ldexp(dists[scaled], e[scaled, None])
    # softmin, scaled as in the scalar form
    k = chain.tubes.softmin_exponent
    d_min = _reduce_columns(np.minimum, dists)
    acc = ((d_min[:, None] / dists) ** k).sum(axis=1)
    raw = chain.tubes.b[i] * (d_min * acc ** (-1.0 / k))
    cap = chain.tubes.c[i]
    w = _g_rows(raw / cap - 1.0)
    return (1.0 - w) * raw + w * cap


def _check_tube_level(chain: SmoothChain, i: int) -> None:
    """Levels with a tube run 0..rank-1; the open chamber, level rank, has
    none."""
    if not 0 <= i < chain.rank:
        raise ValueError(f"no tube at level {i}; tube levels run 0..{chain.rank - 1}")


def eval_l(chain: SmoothChain, i: int, x: Iterable[float]) -> float:
    """Tube radius of level i at a point x of a level-i face.

    A point classify puts at level i on the closed chamber passes the face
    test (Stratification.face_contains shares its threshold).
    """
    _check_tube_level(chain, i)
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


def _claiming_face(chain: SmoothChain, i: int,
                   p: np.ndarray) -> tuple[Face, np.ndarray, float, float] | None:
    """(face, foot, t, radius) of the first level-i tube, in faces_at_level
    order, that holds p; None when none does.

    Faces with an active wall farther from p than _reach allows are skipped
    before their projection: their tubes cannot hold p. Every coordinate of
    p may be finite while |p| exceeds the largest float; the projections
    would then overflow, so such a p is refused by name.
    """
    size = _norm(p)
    if size == math.inf:
        raise ValueError("|p| overflows: the point's norm exceeds the largest "
                         f"float, {sys.float_info.max:.17g}")
    reach = _reach(chain, i, size)
    far = 0
    for j, w in enumerate((chain.chamber.simple_normals @ p).tolist()):
        if w > reach or w < -reach:
            far |= 1 << j
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
        t = _norm(p - x, size)
        radius = _radius_at(chain, face, x)
        if t >= radius:
            continue
        return face, x, t, radius
    return None


def tube_coords(chain: SmoothChain, i: int,
                p: Iterable[float]) -> tuple[Face, np.ndarray, float, float] | None:
    """(face, foot, t, radius) of p inside the level-i tube, or None outside:
    the foot lands in the open face, t < radius, and t = 0 on the face."""
    _check_tube_level(chain, i)
    return _claiming_face(chain, i, _as_point(p, chain.chamber.dimension))


def _apply_F(chain: SmoothChain, i: int, p: np.ndarray) -> np.ndarray:
    """The tube map F_i at a float point of the right shape, for a level
    with a tube: radial reparametrization by h inside, identity outside."""
    claim = _claiming_face(chain, i, p)
    if claim is None or claim[2] == 0.0:
        return p.copy()
    _, foot, t, radius = claim
    u = t / radius
    return foot + (radius * (u * _g0(u))) * ((p - foot) / t)


def _tube_claims(chain: SmoothChain, i: int, points: np.ndarray) -> tuple[np.ndarray, ...]:
    """Which level-i tubes hold each row of an (N, n) stack:
    (live, claims, t, radius, feet).

    _reach rules out each (row, face) pair with an active wall farther
    from the row than it allows, as in _claiming_face; `live` indexes the
    rows left with a pair, and the other arrays hold those rows alone, in
    that order. One matmul gives each live row's foot on every level-i face
    (feet, (L, F, n), faces in faces_at_level order), and one 2-D product
    over the (L*F, n) feet gives their wall values; the open-face test,
    the heights t and the radii of the candidate feet that pass it are each
    one array operation over the (row, face) pairs, their reductions over
    faces or walls one elementwise call per column (_reduce_columns).
    claims (L, F) marks the pairs whose tube holds the row; radius is 0
    where the foot failed the open-face test. A row's first claimed face is
    the one tube_coords picks. Every product rounds each row as
    _stack_product does, so a row's result does not depend on the rest of
    the stack. (At level 0, F = 1, the single face has every wall active,
    and its +inf penalty masks each wall value however it rounds.)
    """
    projectors, penalty = chain._face_rows[i]
    normals = chain.chamber.simple_normals
    n_faces = len(penalty)
    size = _norms(points)
    far = np.abs(points @ normals.T) > _reach(chain, i, size)[:, None]
    far_bits = far @ (1 << np.arange(len(normals)))
    candidate = (far_bits[:, None] & np.array(chain._face_masks[i])) == 0
    live = np.flatnonzero(_reduce_columns(np.logical_or, candidate))
    n_rows, dim = len(live), points.shape[1]
    if not n_rows:
        empty = np.zeros((0, n_faces))
        return live, empty.astype(bool), empty, empty, np.zeros((0, n_faces, dim))
    points, candidate = points[live], candidate[live]
    below = size[live].max()
    feet = _stack_product(points, projectors).reshape(n_rows, n_faces, dim)
    foot_norm = _norms(feet, below)
    wall_vals = (_stack_product(feet.reshape(-1, dim), normals).reshape(n_rows, n_faces, -1)
                 + penalty)
    open_face = candidate & (_reduce_columns(np.minimum, wall_vals)
                             > ON_WALL_TOL * (1.0 + foot_norm))
    t = _norms(points[:, None, :] - feet, below)
    radius = np.zeros((n_rows, n_faces))
    radius[open_face] = _radius_rows(chain, i, feet[open_face])
    return live, open_face & (t < radius), t, radius, feet


def _first_true(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns): the rows of a 2-D boolean array that hold a True,
    and the column of each one's first."""
    hit, first = _first_true_columns(mask)
    rows = np.flatnonzero(hit)
    return rows, first[rows]


def _first_claims(chain: SmoothChain, i: int, points: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows of an (N, n) stack that a level-i tube holds, with the
    tube tube_coords gives each, the first in faces_at_level order:
    (rows, face, t, radius, foot), rows indexing the stack."""
    live, claims, t, radius, feet = _tube_claims(chain, i, points)
    rows, face = _first_true(claims)
    return live[rows], face, t[rows, face], radius[rows, face], feet[rows, face]


def _apply_F_rows(chain: SmoothChain, i: int, points: np.ndarray) -> np.ndarray:
    """_apply_F at every row of an (N, n) stack: each row held by a tube is
    mapped in the one _first_claims gives, as _apply_F maps it; a row no
    tube holds keeps its value."""
    rows, _, height, rad, foot = _first_claims(chain, i, points)
    out = points.copy()
    # a row on its face (t == 0) stays where it is, as in _apply_F
    off_face = height > 0.0
    if off_face.any():
        rows, height, rad, foot = rows[off_face], height[off_face], rad[off_face], foot[off_face]
        u = height / rad
        out[rows] = foot + (rad * _h_rows(u))[:, None] * ((points[rows] - foot) / height[:, None])
    return out


def _apply_partial_rows(chain: SmoothChain, i: int, points: np.ndarray) -> np.ndarray:
    """The partial composite at every row of an (N, n) stack: F_{n-1}
    first, descending to F_i last."""
    for j in range(chain.rank - 1, i - 1, -1):
        points = _apply_F_rows(chain, j, points)
    return points


def _apply_G_rows(chain: SmoothChain, points: np.ndarray) -> np.ndarray:
    """apply_G at every row of an (N, n) stack of closed-chamber points."""
    normals = chain.chamber.simple_normals
    size = 1.0 + _norms(points)
    if not np.all(_reduce_columns(np.minimum, points @ normals.T) >= -ON_WALL_TOL * size):
        raise ValueError("point lies outside the closed chamber")
    return _apply_partial_rows(chain, 0, points)


def _apply_H_rows(chain: SmoothChain, points: np.ndarray) -> np.ndarray:
    """apply_H at every row of an (N, n) stack."""
    images = _fold_rows(chain.chamber.simple_normals, points, chain.group.order)
    return _apply_partial_rows(chain, 0, images)


def _apply_partial(chain: SmoothChain, p: np.ndarray) -> np.ndarray:
    """The tube maps at a float point of the right shape: F_{n-1} first,
    descending to F_0 last."""
    for j in range(chain.rank - 1, -1, -1):
        p = _apply_F(chain, j, p)
    return p


def apply_G(chain: SmoothChain, p: Iterable[float]) -> np.ndarray:
    """Full composite on the closed chamber (walls first, origin last)."""
    p = _as_point(p, chain.chamber.dimension)
    if not chain.chamber.contains(p):
        raise ValueError("point lies outside the closed chamber")
    return _apply_partial(chain, p)


def apply_H(chain: SmoothChain, p: Iterable[float]) -> np.ndarray:
    """The invariant map: fold into the chamber, then smooth."""
    p = _as_point(p, chain.chamber.dimension)
    image, _ = _reflect_into_chamber(chain.chamber.simple_normals, p, chain.group.order)
    return _apply_partial(chain, image)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TubeReport:
    theta_min: float | None
    slope_margins: dict[int, float]    # bound minus configured slope
    tube_points_checked: int


def validate_tubes(chain: SmoothChain) -> TubeReport:
    """Check the slope bound, tube disjointness, and foot uniqueness.

    The analytic bound b_i <= sin(theta_min)/4 is checked first and raises
    TubeConfigError naming the offending wall pair; the sampling checks then
    confirm disjointness of same-level tubes and that each sampled tube
    point projects back to the face it was built over. Each face is sampled
    along 4 random normal directions (seed 0) at 3 scales and 3 heights;
    each level's samples meet its tubes in one _tube_claims pass, and the
    first offending sample, in sampling order, raises.
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
    dim = chain.chamber.dimension
    checked = 0
    for level in range(1, chain.rank):
        faces = strat.faces_at_level(level)
        owner, bases, scales, points = [], [], [], []    # per sample
        for f, face in enumerate(faces):
            dirs = _orthogonal_directions(face.basis, rng, 4)
            for scale in (0.3, 1.0, 3.0):
                x = strat.interior_point(face, radius=scale)
                radius = _radius_at(chain, face, x)
                for v in dirs:
                    for frac in (0.25, 0.6, 0.95):
                        owner.append(f)
                        bases.append(x)
                        scales.append(scale)
                        points.append(x + (frac * radius) * v)
        # every sample of the level against every level face, in one pass
        n, rows, owner = len(points), np.arange(len(points)), np.array(owner, dtype=int)
        live, claims, _, _, feet = _tube_claims(chain, level, np.reshape(points, (n, dim)))
        held = np.zeros((n, len(faces)), dtype=bool)
        held[live] = claims
        own_foot = np.zeros((n, dim))
        own_foot[live] = feet[np.arange(len(live)), owner[live]]
        owned = held[rows, owner]
        held[rows, owner] = False       # what is left is held by another face
        overlap, other = _first_true(held)
        # a sample its own tube does not hold fell past a face edge; harmless
        moved = np.flatnonzero(owned & (np.linalg.norm(own_foot - bases, axis=1)
                                        > 1e-9 * (1.0 + np.array(scales))))
        checked += n
        if overlap.size and (not moved.size or overlap[0] <= moved[0]):
            k = overlap[0]
            raise TubeConfigError(
                f"tubes overlap at level {level}: faces"
                f" {faces[owner[k]].active} and {faces[other[0]].active}"
                f" both contain {points[k]}")
        if moved.size:
            raise TubeConfigError(f"foot of a level-{level} tube point is not unique")
    return TubeReport(
        theta_min=theta,
        slope_margins=slope_margins,
        tube_points_checked=checked,
    )
