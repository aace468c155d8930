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
import operator
import sys
from typing import Iterable, NamedTuple

import numpy as np

from .chamber import (
    ON_WALL_TOL,
    Chamber,
    Face,
    Stratification,
    _NORM_MIN,
    _NORM_SAFE,
    _as_point,
    _fits,
    _fold_rows,
    _norm,
    _norms,
    _null_space_basis,
    _reduce_columns,
    _reflect_into_chamber,
    _stack_product,
    _unit_scaled,
    _unit_scaled_rows,
    _wall_values,
    chamber_from_group,
    classify,
    strata_levels,
)
from .groups import ReflectionGroup

ARG_DEAD_EPS = 1e-8      # below this (or within it of 1) the jet is replaced
E_RATE = 5.5             # a in e(t) = exp(-a/sqrt(t))
DERIVATIVE_ORDER_MAX = 4  # highest order eval_h evaluates
_ROW_SUM_MAX = 1e4       # largest |row|_1 of a face bound row (_reach) that is kept


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
    if not isinstance(order, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {order!r}")
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
        if not self.softmin_exponent >= 1:     # NaN too
            raise ValueError(f"softmin exponent must be >= 1, got {self.softmin_exponent}")
        for d, label in ((self.b, "b"), (self.c, "c")):
            for i, val in d.items():
                if not 0 < val < math.inf:
                    raise ValueError(f"{label}_{i} must be positive and finite, got {val}")


def minimal_wall_angle(group: ReflectionGroup) -> tuple[float, tuple[int, int] | None]:
    """Smallest dihedral angle between any two mirrors, with the first pair
    at it; (pi/2, None) with fewer than two mirrors. No angle exceeds
    pi/2, so the first pair is kept when every pair meets at a right
    angle."""
    best = math.pi / 2.0
    pair = None
    mirrors = group.mirrors
    for i in range(len(mirrors)):
        for j in range(i + 1, len(mirrors)):
            c = abs(float(mirrors[i].normal @ mirrors[j].normal))
            ang = math.acos(min(c, 1.0))
            if pair is None or ang < best:
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

class _Level(NamedTuple):
    """One tube level's faces and the tables its claim tests and its
    lower-face distances read, built with the chain."""

    faces: tuple[Face, ...]
    masks: tuple[int, ...]       # each face's active walls, bit j for wall j
    rows: tuple[tuple[tuple[float, ...], ...], ...]   # each face's _reach rows
    projectors: np.ndarray       # (F*n, n): the faces' projectors, stacked
    penalty: np.ndarray          # (F, k): inf at each face's active walls, 0 elsewhere
    active: np.ndarray           # (k, F): 1 where wall j is active on face f, 0 elsewhere
    lower: np.ndarray            # complement rows of every lower face, stacked
    starts: tuple[int, ...]      # the offset of each lower face's block of rows


@dataclasses.dataclass(frozen=True, eq=False)
class SmoothChain:
    group: ReflectionGroup
    chamber: Chamber
    stratification: Stratification
    tubes: TubeSpec

    _levels: tuple[_Level, ...] = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        normals = self.chamber.simple_normals
        gram, dim = normals @ normals.T, self.chamber.dimension
        levels, lower, starts = [], [], []      # lower and starts: the faces below lv
        for lv in range(self.rank):
            faces = self.stratification.faces_at_level(lv)
            active = np.zeros((len(faces), len(normals)), dtype=bool)
            for flags, face in zip(active, faces):
                flags[list(face.active)] = True
            levels.append(_Level(
                faces=faces, masks=tuple(sum(1 << j for j in face.active) for face in faces),
                rows=tuple(_bound_rows(face, normals, gram, self.tubes) for face in faces),
                projectors=np.concatenate([face.basis @ face.basis.T for face in faces]),
                penalty=np.where(active, np.inf, 0.0), active=active.T.astype(float),
                lower=np.concatenate(lower or [np.zeros((0, dim))]), starts=tuple(starts)))
            for face in faces:
                starts.append(starts[-1] + len(lower[-1]) if lower else 0)
                lower.append(_null_space_basis(face.basis.T, dim).T)
        object.__setattr__(self, "_levels", tuple(levels))

    @property
    def rank(self) -> int:
        return self.group.essential_rank

    def lower_face_distances(self, level: int, x: np.ndarray,
                             size: float | None = None) -> list[float]:
        """Distances, as floats, from a closed-chamber point x to each face
        of lower level than `level`, in stratification order, for
        1 <= level < rank.

        On the closed chamber the distance to a face is the distance to
        its linear span. Inward simple normals meet pairwise at
        <n_i, n_j> <= 0 (Humphreys, Reflection Groups and Coxeter Groups,
        1.3), so each Gram submatrix G_S is a nonsingular M-matrix with an
        entrywise nonnegative inverse (Berman-Plemmons, ch. 6). The
        projection of x onto the span of face F_S is x - sum c_i n_i with
        c = G_S^-1 (<x, n_i>)_{i in S} >= 0, so for j outside S it keeps
        <., n_j> >= <x, n_j> >= 0 and lies in the face. Each distance is
        then the norm of x in the face's orthogonal complement: one matmul
        against the stacked complement rows, and each face's squares summed
        by _segment_sums, the body _radius_rows sums its columns with. Off
        the chamber it is only a lower bound. Where |x|^2 would leave the
        normal range, x is scaled by a power of two first and the distances
        scaled back (chamber._unit_scaled).

        size, when given, is _norm(x). From _NORM_MIN up, that norm came
        from a square sum x.x of at least _SQ_MIN, and no |x_i| exceeds it
        (sqrt(fl(a*a)) = |a|, and adding squares only raises the sum), so
        where it also _fits, _unit_scaled would leave x unscaled: its scan
        is skipped.
        """
        if not 1 <= level < self.rank:
            raise ValueError(f"lower faces are measured at levels 1..{self.rank - 1}, not {level}")
        rows, starts = self._levels[level].lower, self._levels[level].starts
        if size is not None and _NORM_MIN <= size and _fits(size, len(x)):
            w, e = x, 0
        else:
            w, e, _ = _unit_scaled(x)
        sums = _segment_sums([v * v for v in (rows @ w).tolist()], (*starts, len(rows)))
        if e:
            return np.ldexp(np.sqrt(sums), e).tolist()
        return list(map(math.sqrt, sums))


def _bound_rows(face: Face, normals: np.ndarray, gram: np.ndarray,
                tubes: TubeSpec) -> tuple[tuple[float, ...], ...]:
    """A face's rows for _reach: one per inactive wall k, the coefficients
    over all walls of b_i*d_k, each kept while its |row|_1 is at most
    _ROW_SUM_MAX (none at level 0, whose face has no inactive wall)."""
    active, rows = list(face.active), []
    for k in face.inactive:
        # P_F n_k = n_k - sum_j a_j n_j over the active walls, G_SS a = G_Sk
        row = np.zeros(len(normals))
        row[k] = 1.0
        row[active] = -np.linalg.solve(gram[np.ix_(active, active)], gram[active, k])
        rows.append(row * (tubes.b[face.level] / np.linalg.norm(row @ normals)))
    return tuple(tuple(row.tolist()) for row in rows if np.abs(row).sum() <= _ROW_SUM_MAX)


def _segment_sums(squares, bounds: tuple[int, ...]) -> list:
    """The square sum of each face's block of squares, the blocks running
    from bounds[f] to bounds[f + 1]: its first square plus the
    left-to-right chain of the rest. squares[c] is square c, a float of one
    point (lower_face_distances) or the column of a stack (_radius_rows),
    so both paths add in one order; for blocks of up to 8 squares it is the
    order in which np.add.reduceat sums them."""
    sums = []
    first = bounds[0]
    for end in bounds[1:]:
        rest = squares[first + 1] if end - first > 1 else 0.0
        for col in range(first + 2, end):
            rest = rest + squares[col]
        sums.append(squares[first] + rest)
        first = end
    return sums


def build_chain(group: ReflectionGroup, tubes: TubeSpec | None = None) -> SmoothChain:
    """Assemble the smoothing chain over the group's chamber; tubes default
    to the safe preset. Every level 1..rank-1 needs its b and c, and no
    other level may have them."""
    chamber = chamber_from_group(group)
    if tubes is None:
        tubes = default_tubes(group)
    levels = set(range(1, group.essential_rank))
    for label, given in (("b", tubes.b), ("c", tubes.c)):
        for i in sorted(levels ^ given.keys()):     # the least offending level
            what = "missing" if i in levels else "given for a level the group lacks"
            raise ValueError(f"tube parameter {label}_{i} {what}:"
                             f" b and c levels run 1..{group.essential_rank - 1}")
    return SmoothChain(
        group=group, chamber=chamber,
        stratification=strata_levels(group, chamber),
        tubes=tubes,
    )


def _radius_at(chain: SmoothChain, face: Face, x: np.ndarray,
               size: float | None = None) -> float:
    """l_i at a point of the open level-i face (no membership re-check);
    size, when given, is _norm(x), as lower_face_distances takes it.

    The lower-face distances come from SmoothChain.lower_face_distances,
    exact on the closed chamber. Every caller stays there: the feet of
    _claiming_face pass the open-face test, and eval_l points and
    wall-probe samples lie on a face (to the classification tolerance).

    The cap blend is one formula, (1 - w)*raw + w*c_i with w =
    g(raw/c_i - 1): g is 0 for raw <= c_i and 1 for raw >= 2c_i, so it
    gives raw and c_i exactly there.
    """
    i = face.level
    if i == 0:
        return chain.tubes.c0
    dists = chain.lower_face_distances(i, x, size)
    raw = chain.tubes.b[i] * softmin(dists, chain.tubes.softmin_exponent)
    cap = chain.tubes.c[i]
    w = _g0(raw / cap - 1.0)
    return (1.0 - w) * raw + w * cap


def _lower_face_distance_rows(chain: SmoothChain, i: int, points: np.ndarray) -> np.ndarray:
    """lower_face_distances at every row of an (N, n) stack, as an (N, F)
    array: one _stack_product, and each face's squares summed column by
    column (np.add.reduceat is slower on short segments)."""
    rows, starts = chain._levels[i].lower, chain._levels[i].starts
    unit, e, _ = _unit_scaled_rows(points)
    y = _stack_product(unit, rows)
    dists = np.sqrt(np.stack(_segment_sums((y * y).T, (*starts, len(rows))), axis=1))
    scaled = e != 0
    if scaled.any():
        dists[scaled] = np.ldexp(dists[scaled], e[scaled, None])
    return dists


def _radius_rows(chain: SmoothChain, i: int, feet: np.ndarray) -> np.ndarray:
    """_radius_at for every row of a stack of feet in open level-i faces."""
    if i == 0:
        return np.full(len(feet), chain.tubes.c0)
    dists = _lower_face_distance_rows(chain, i, feet)
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

    x must classify to level i; its face comes from one row of wall values
    over the simple normals, at classify's threshold. On the closed chamber
    the mirrors through x are spanned by the simple walls through x (the
    nonzero coefficients of a positive root over unit simple roots are >=
    1), so x lies on a level-i face. The simple normals are mirror normals
    up to sign, bit for bit, so the on-wall walls (|v| <= slack) are
    incident mirrors; being independent, they number at most k - i, the
    active count of a level-i face. So x lies in the closed face F exactly
    when F.active is the on-wall set and no value is below -slack.
    """
    _check_tube_level(chain, i)
    x = _as_point(x, chain.chamber.dimension)
    desc = classify(chain.group, x)
    if desc.level != i:
        raise ValueError(f"point classifies to level {desc.level}, not {i}")
    if i == 0:
        return chain.tubes.c0
    values, slack = _wall_values(chain.group, x[None], chain.chamber.simple_normals)
    if not (values < -slack[:, None]).any():
        on_wall = tuple(np.flatnonzero(np.abs(values[0]) <= slack[0]).tolist())
        for face in chain.stratification.faces_at_level(i):
            if face.active == on_wall:
                return _radius_at(chain, face, x)
    raise ValueError(f"point is not on any level-{i} chamber face")


def _reach(chain: SmoothChain, i: int, size, nearest: float | None = None):
    """Bound on |<p, n_j>| at every active wall j of a level-i face whose
    tube can hold p, where size = |p| (a float, or an array of row norms).
    nearest, given by the per-point claim test alone, is the least of the
    face's rows (_bound_rows) against p's wall values.

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

    The face's rows bound l_i further. For an inactive wall k let
    P_F n_k = n_k - sum_{j in S} a_j n_j with G_SS a = G_Sk (G the Gram
    matrix of the simple normals): the part of n_k in the span. Within the
    span, the span of the level-(i-1) face S + {k} is the hyperplane
    normal to P_F n_k, so x lies at distance |d_k| from it, where
    d_k = <x, P_F n_k>/|P_F n_k| = <p, P_F n_k>/|P_F n_k|, linear in p's
    wall values. That face is among the lower faces, so l_i <= b_i*|d_k|;
    and a foot with d_k <= 0 fails the open-face test. Row k holds the
    coefficients of b_i*d_k, and nearest = min_k b_i*d_k, so the bound
    becomes min(R_i, max(nearest, 0)).

    The bound returned is bound + 1e-9*(1 + |p| + bound). The computed wall
    values, t and l_i are each within a few ulps of the exact ones, that is
    about 1e-15*(|p| + bound); nearest is within about 1e-15*|p|*|row|_1,
    and rows with |row|_1 above _ROW_SUM_MAX are not kept (dropping a row
    only loosens the bound). All of it is far inside the margin. So a face
    with an active wall value beyond the bound would also fail the
    computed claim test (the open-face test, or t < l_i), and skipping it
    leaves the claimed face and every output bit unchanged.
    """
    tubes = chain.tubes
    if i == 0:
        bound = tubes.c0
    else:
        minimum = min if isinstance(size, float) else np.minimum
        bound = minimum(tubes.b[i] * size, 2.0 * tubes.c[i])
        if nearest is not None:
            bound = min(bound, max(nearest, 0.0))
    return bound + 1e-9 * (1.0 + size + bound)


def _point_walls(chain: SmoothChain, p: np.ndarray,
                 values: list[float] | None = None) -> tuple[float, list[float]]:
    """(|p|, the wall values <p, n_j> as floats): what _claiming_face reads
    of p at every level. values, when given, are p's wall values already
    taken (the fold's last pass). Every coordinate of p may be finite while
    |p| exceeds the largest float; the projections would then overflow, so
    such a p is refused by name."""
    size = _norm(p)
    if size == math.inf:
        raise ValueError("|p| overflows: the point's norm exceeds the largest "
                         f"float, {sys.float_info.max:.17g}")
    return size, values if values is not None else (chain.chamber.simple_normals @ p).tolist()


def _claiming_face(chain: SmoothChain, i: int, p: np.ndarray,
                   walls: tuple[float, list[float]] | None = None,
                   ) -> tuple[Face, np.ndarray, float, float] | None:
    """(face, foot, t, radius) of the first level-i tube, in faces_at_level
    order, that holds p; None when none does. walls is _point_walls(chain,
    p), taken here when not given.

    Faces with an active wall farther from p than _reach allows are skipped
    before their projection: their tubes cannot hold p. The faces left are
    tried against the tighter bound of their own rows, which _reach proves
    and applies with the same margin, 1e-9*(1 + |p| + bound), and skipped
    when the largest of their active wall values passes it. That bound is
    taken only while |p| < _NORM_SAFE, where no row's products overflow.
    """
    size, values = walls or _point_walls(chain, p)
    reach = _reach(chain, i, size)
    far = 0
    for j, w in enumerate(values):
        if w > reach or w < -reach:
            far |= 1 << j
    bounded = size < _NORM_SAFE
    level = chain._levels[i]
    for face, mask, rows in zip(level.faces, level.masks, level.rows):
        if mask & far:
            continue
        if rows and bounded:
            nearest = min(sum(map(operator.mul, row, values)) for row in rows)
            # below R_i the rows bound l_i more tightly than reach did
            if nearest < reach and \
                    max(abs(values[j]) for j in face.active) > _reach(chain, i, size, nearest):
                continue
        x = face.project_to_span(p)
        x_size = None
        if face.inactive:
            # the open-face test carries the classification fuzz: feet within
            # it of the boundary belong to lower strata, and admitting them
            # would feed (numerically) zero distances to the radius field
            x_size = _norm(x, size)
            if min((face.inactive_normals @ x).tolist()) <= ON_WALL_TOL * (1.0 + x_size):
                continue
        t = _norm(p - x, size)
        radius = _radius_at(chain, face, x, x_size)
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


def _apply_F(chain: SmoothChain, i: int, p: np.ndarray,
             walls: tuple[float, list[float]] | None = None) -> np.ndarray:
    """The tube map F_i at a float point of the right shape, for a level
    with a tube: radial reparametrization by h inside, identity outside,
    where p itself comes back. walls is as for _claiming_face."""
    claim = _claiming_face(chain, i, p, walls)
    if claim is None or claim[2] == 0.0:
        return p
    _, foot, t, radius = claim
    u = t / radius
    return foot + (radius * (u * _g0(u))) * ((p - foot) / t)


def _tube_claims(chain: SmoothChain, i: int, points: np.ndarray) -> tuple[np.ndarray, ...]:
    """Which level-i tubes hold the rows of an (N, n) stack, pair by pair:
    (rows, faces, claims, t, radius, feet).

    _reach rules out each (row, face) pair with an active wall farther
    from the row than it allows, as in _claiming_face. The pairs left are
    the candidates, in row-major order: rows indexes the stack and faces
    faces_at_level, one entry per pair, and the other arrays hold those
    pairs alone, in that order. One matmul gives each row with a candidate
    its foot on every level-i face, and each pair takes its foot from it;
    one 2-D product over the pairs' feet gives their wall values. The
    open-face test, the heights t and the radii of the feet that pass it
    are each one array operation over the pairs, the reduction over walls
    one elementwise call per column (_reduce_columns). claims marks the
    pairs whose tube holds the row; radius is 0 where the foot failed the
    open-face test. A row's first claimed pair is the face tube_coords
    picks. Every product rounds each row as _stack_product does, so a
    pair's result does not depend on the rest of the stack. At level 0,
    F = 1 and the single face has every wall active: its +inf penalty
    makes the open-face test true at every finite foot, so the foot norms
    and wall values are skipped there, as _claiming_face skips the test on
    a face with no inactive wall. Each level's active walls are built once,
    with the chain, as a 0/1 matrix: one product of the far flags with it
    counts each face's far walls.
    """
    level = chain._levels[i]
    normals = chain.chamber.simple_normals
    n_faces, (count, dim) = len(level.faces), points.shape
    # |row| <= dim*max|entry|: one bound for the stack spares the per-row scan
    size = _norms(points, dim * float(np.abs(points).max(initial=0.0)))
    far = np.abs(points @ normals.T) > _reach(chain, i, size)[:, None]
    candidate = (far @ level.active) == 0      # no active wall is far
    live = np.flatnonzero(_reduce_columns(np.logical_or, candidate))
    if not len(live):
        empty = np.zeros(0)
        return live, live, empty.astype(bool), empty, empty, np.zeros((0, dim))
    if len(live) < count:
        points, candidate, size = (np.take(a, live, axis=0) for a in (points, candidate, size))
    # each pair's index among the live rows' (row, face) feet, row-major;
    # np.take gathers rows several times faster than indexing does
    pairs = np.flatnonzero(candidate)
    pair_rows = pairs // n_faces
    faces = pairs - pair_rows * n_faces
    feet = np.take(_stack_product(points, level.projectors).reshape(-1, dim), pairs, axis=0)
    below = size.max()
    t = _norms(np.take(points, pair_rows, axis=0) - feet, below)
    if i == 0:
        radius = np.full(len(pairs), chain.tubes.c0)
        return live[pair_rows], faces, t < radius, t, radius, feet
    wall_vals = _stack_product(feet, normals) + np.take(level.penalty, faces, axis=0)
    open_face = (_reduce_columns(np.minimum, wall_vals)
                 > ON_WALL_TOL * (1.0 + _norms(feet, below)))
    radius = np.zeros(len(pairs))
    radius[open_face] = _radius_rows(chain, i, np.compress(open_face, feet, axis=0))
    return live[pair_rows], faces, open_face & (t < radius), t, radius, feet


def _first_claims(chain: SmoothChain, i: int, points: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows of an (N, n) stack that a level-i tube holds, with the
    tube tube_coords gives each, the first in faces_at_level order:
    (rows, face, t, radius, foot), rows indexing the stack. Pairs come in
    row-major order, so a row's first claim is the claimed pair whose row
    differs from the claimed pair before it."""
    rows, faces, claims, t, radius, feet = _tube_claims(chain, i, points)
    claimed = np.flatnonzero(claims)
    held = rows[claimed]
    first = np.ones(len(held), dtype=bool)
    np.not_equal(held[1:], held[:-1], out=first[1:])
    pick = claimed[first]
    return rows[pick], faces[pick], t[pick], radius[pick], np.take(feet, pick, axis=0)


def _apply_F_rows(chain: SmoothChain, i: int, points: np.ndarray) -> np.ndarray:
    """_apply_F at every row of an (N, n) stack: each row held by a tube is
    mapped in the one _first_claims gives, as _apply_F maps it; a row no
    tube holds keeps its value."""
    rows, _, height, rad, foot = _first_claims(chain, i, points)
    out = points.copy()
    # a row on its face (t == 0) stays where it is, as in _apply_F
    off_face = height > 0.0
    if off_face.any():
        if not off_face.all():
            rows, height, rad, foot = (np.compress(off_face, a, axis=0)
                                       for a in (rows, height, rad, foot))
        u = height / rad
        out[rows] = foot + (rad * _h_rows(u))[:, None] * (
            (np.take(points, rows, axis=0) - foot) / height[:, None])
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
    images = _fold_rows(chain.chamber, points)
    return _apply_partial_rows(chain, 0, images)


def _apply_partial(chain: SmoothChain, p: np.ndarray,
                   walls: tuple[float, list[float]] | None = None) -> np.ndarray:
    """The tube maps at a float point of the right shape: F_{n-1} first,
    descending to F_0 last. |p| and the wall values are taken once (or
    given, as _point_walls(chain, p)) and serve every level until one moves
    the point; when none does, p itself comes back."""
    for j in range(chain.rank - 1, -1, -1):
        walls = walls or _point_walls(chain, p)
        q = _apply_F(chain, j, p, walls)
        if q is not p:
            p, walls = q, None
    return p


def apply_G(chain: SmoothChain, p: Iterable[float]) -> np.ndarray:
    """Full composite on the closed chamber (walls first, origin last). The
    result is a new array, even where no tube moves p."""
    p = _as_point(p, chain.chamber.dimension)
    if not chain.chamber.contains(p):
        raise ValueError("point lies outside the closed chamber")
    return _apply_partial(chain, p.copy())


def apply_H(chain: SmoothChain, p: Iterable[float]) -> np.ndarray:
    """The invariant map: fold into the chamber, then smooth."""
    p = _as_point(p, chain.chamber.dimension)
    image, _, values = _reflect_into_chamber(chain.chamber, p)
    return _apply_partial(chain, image, _point_walls(chain, image, values))
