"""Fundamental chamber: folding, orbit-type classification, face lattice.

The closed chamber is the cone {p : <p, n_i> >= 0} over the simple normals.
Folding repeatedly reflects across the lowest-index violated wall, which
terminates for finite groups and accumulates a single orthogonal transform:
each step crosses a mirror the point had not crossed before, so a fold takes
at most |mirrors| steps (Humphreys, Reflection Groups and Coxeter Groups,
1.6-1.8).
Faces of the chamber are indexed by subsets of the simple normals; the level
of a face counts its dimension above the minimal stratum, so level 0 is the
essential origin (times the fixed subspace) and level == essential rank is
the open chamber.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
from typing import Iterable

import numpy as np

from .groups import GroupElement, ReflectionGroup, _require_finite

ON_WALL_TOL = 1e-9        # relative wall-incidence and membership tolerance
_RANK_TOL = 1e-9
_SQ_MIN = sys.float_info.min  # least square sum taken without rescaling
_SQ_MAX = 2.0 ** 1022         # square sums are formed only where they stay below this
_NORM_SAFE = 2.0 ** 510       # no square sum of a vector shorter than this overflows
_NORM_MIN = 2.0 ** -510       # a _norm from this up came from a square sum of at least _SQ_MIN
_FOLD_TOL = 1e-14             # relative depth below a wall that the fold still calls inside
_SPLIT_ROUNDING = _FOLD_TOL   # relative rounding of the essential split, as the fold's
_RUNAWAY = "folding did not terminate; chamber data inconsistent"


@dataclasses.dataclass(frozen=True, eq=False)
class Chamber:
    """Closed fundamental chamber cut out by inward simple normals."""

    simple_normals: np.ndarray   # (k, n), rows are inward unit normals
    witness: np.ndarray          # a point in the open chamber
    fold_steps: int              # most reflections one fold takes: |mirrors|

    def __post_init__(self) -> None:
        normals = np.array(self.simple_normals, dtype=float)
        normals.flags.writeable = False
        object.__setattr__(self, "simple_normals", normals)
        wit = np.array(self.witness, dtype=float)
        wit.flags.writeable = False
        object.__setattr__(self, "witness", wit)
        if np.min(normals @ wit) <= 0:
            raise ValueError("witness must lie strictly inside the chamber")

    @property
    def dimension(self) -> int:
        return self.simple_normals.shape[1]

    def contains(self, p: Iterable[float], tol: float = ON_WALL_TOL) -> bool:
        """Membership of p in the closed chamber, to tol relative to 1 + |p|."""
        p = np.asarray(p, dtype=float)
        scale = 1.0 + _norm(p)
        return bool(np.min(self.simple_normals @ p) >= -tol * scale)


@dataclasses.dataclass(frozen=True, eq=False)
class FoldResult:
    image: np.ndarray
    element: GroupElement
    steps: int


@dataclasses.dataclass(frozen=True)
class StratumDescriptor:
    walls_containing: tuple[int, ...]   # indices into group.mirrors
    level: int                          # 0 = minimal stratum, rank = regular
    dimension: int                      # dimension of the stratum in R^n


def chamber_from_group(group: ReflectionGroup) -> Chamber:
    """Chamber of the group's simple system, with an interior witness point."""
    normals = np.stack([h.normal for h in group.simple_system])
    rays = _edge_rays(normals)
    witness = rays.sum(axis=0)
    witness /= np.linalg.norm(witness)
    return Chamber(simple_normals=normals, witness=witness,
                   fold_steps=len(group.mirrors))


def _fits(big, dim: int):
    """Whether dim squares of entries at most big in size sum below _SQ_MAX,
    far from overflow (big a float or an array)."""
    return big < math.sqrt(_SQ_MAX / dim)


def _unit_scaled(v: np.ndarray) -> tuple[np.ndarray, int, float]:
    """(w, e, sq) with w = v * 2**-e and sq = w.w: the form in which v's
    square sum neither overflows nor leaves the normal range.

    Where v.v is a normal float, e = 0, w is v and sq is v.dot(v), the bits
    every caller had. Elsewhere e is the power-of-two exponent of max|v_i|,
    so w has its largest entry in [0.5, 1) and the scaling is exact. The sum
    is formed only where _fits holds; a larger v is scaled without it. A
    zero v has sum 0 and e = 0.
    """
    vals = v.tolist()
    big = max(max(vals), -min(vals))
    if _fits(big, len(vals)):
        sq = v.dot(v)
        if sq >= _SQ_MIN or big == 0.0:
            return v, 0, sq
    e = math.frexp(big)[1]
    w = np.ldexp(v, -e)
    return w, e, w.dot(w)


def _square_sums(v: np.ndarray) -> np.ndarray:
    """Square sums along the last axis as stacked matrix-vector products,
    which round as the per-point v.dot(v) does."""
    return np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0]


def _reduce_columns(op: np.ufunc, a: np.ndarray) -> np.ndarray:
    """op.reduce(a, axis=-1) for op np.minimum, np.maximum or
    np.logical_or, as one elementwise call per column.

    numpy reduces along a short last axis slowly: a min over the last axis
    of a (1024, 3) array took 70 us against 8 us here, and of a
    (1024, 3, 3) array 197 us against 13 us. These three operations are
    exact, so the result has the reduction's bits. The last axis must not
    be empty.
    """
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        op(out, a[..., j], out=out)
    return out


def _first_true_columns(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hit, first): whether each row of a boolean array (last axis the
    columns) holds a True, and the column of its first True, 0 where it
    holds none, as mask.argmax(axis=-1) gives."""
    hit = _reduce_columns(np.logical_or, mask)
    first = np.zeros(mask.shape[:-1], dtype=np.intp)
    for j in range(mask.shape[-1] - 1, -1, -1):
        first = np.where(mask[..., j], j, first)
    return hit, first


def _unit_scaled_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_unit_scaled along the last axis of a stack, bit for bit: e and sq
    have the shape of v.shape[:-1]."""
    big = _reduce_columns(np.maximum, np.abs(v))
    fits = _fits(big, v.shape[-1])
    if fits.all():
        sq = _square_sums(v)
        if sq.min(initial=math.inf) >= _SQ_MIN:
            return v, np.zeros(big.shape, dtype=int), sq
    else:
        sq = _square_sums(np.where(fits[..., None], v, 0.0))
    e = np.where(fits & ((sq >= _SQ_MIN) | (big == 0.0)), 0, np.frexp(big)[1])
    w = np.ldexp(v, -e[..., None])
    return w, e, _square_sums(w)


def _norm(v: np.ndarray, below: float = math.inf) -> float:
    """|v|: math.sqrt(v.dot(v)) where that sum is a normal float, otherwise
    math.hypot, which rescales by powers of two, so the norm is neither 0
    for a nonzero v nor inf for a representable one.

    A caller that knows |v| <= below, with below < _NORM_SAFE, skips the
    scan for the largest entry: the sum cannot overflow there.
    """
    if below >= _NORM_SAFE:
        vals = v.tolist()
        if not _fits(max(max(vals), -min(vals)), len(vals)):
            return math.hypot(*vals)
    sq = v.dot(v)
    return math.sqrt(sq) if sq >= _SQ_MIN else math.hypot(*v.tolist())


def _norms(v: np.ndarray, below: float = math.inf) -> np.ndarray:
    """_norm along the last axis of a stack, `below` bounding every row. In
    range the sums are einsum's, whose bits the stacked tube kernels have
    always had."""
    fits = (True if below < _NORM_SAFE
            else _fits(_reduce_columns(np.maximum, np.abs(v)), v.shape[-1]))
    safe = v if np.all(fits) else np.where(fits[..., None], v, 0.0)
    sq = np.einsum("...j,...j->...", safe, safe)
    out = np.sqrt(sq)
    redo = (sq < _SQ_MIN) | np.logical_not(fits)
    if redo.any():
        out[redo] = np.hypot.reduce(v[redo], axis=-1)
    return out


def _reflect_into_chamber(chamber: Chamber,
                          p: np.ndarray) -> tuple[np.ndarray, list[int], list[float] | None]:
    """Reflect across the lowest-index violated wall until inside.

    Returns the image, the reflection word (wall indices in the order
    applied) and the image's wall values `normals @ image` as floats, from
    the last pass, or None where the image was scaled back. Points within
    rounding distance of a wall count as inside: a
    dot product of a few ulps below zero calls for a correction smaller than
    the spacing of floats at that coordinate, so reflecting would leave the
    point bitwise unchanged and the loop would never terminate. The
    tolerance is _FOLD_TOL*|p|, relative at every scale. Where |p|^2 would
    overflow or leave the normal range the fold runs on p scaled to unit
    size by a power of two (_unit_scaled) and scales the image back:
    reflections are linear and the scaling is exact, so p takes the word of
    its unit-size copy. In the normal range no scaling is done: it could
    change only the bits of subnormal coordinates. The walls are scanned as
    Python floats, in index order, for the first one below -tol.

    Each reflection crosses one mirror, never one crossed before, so a fold
    ends within chamber.fold_steps = |mirrors| steps; needing one more
    raises RuntimeError, as chamber data that are not a simple system would.
    """
    normals = chamber.simple_normals
    cur, e, sq = _unit_scaled(np.array(p, dtype=float))
    tol = _FOLD_TOL * math.sqrt(sq)
    word: list[int] = []
    while True:
        dots = (normals @ cur).tolist()
        for i, d in enumerate(dots):
            if d < -tol:
                break
        else:
            return (np.ldexp(cur, e), word, None) if e else (cur, word, dots)
        cur = cur - (2.0 * d) * normals[i]
        word.append(i)
        if len(word) > chamber.fold_steps:
            raise RuntimeError(_RUNAWAY)


def _wall_dots(normals: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """(k, N) values <n_j, cur_r> over an (N, n) stack, row j one
    matrix-vector product over all rows (cur @ n_j). Each value rounds as
    the per-point `normals @ cur` rounds it. A one-row product is a dot,
    which rounds differently, so a lone row is evaluated twice over, as in
    _stack_product."""
    rows = np.concatenate([cur, cur]) if len(cur) == 1 else cur
    dots = np.empty((len(normals), len(rows)))
    for j, normal in enumerate(normals):
        np.matmul(rows, normal, out=dots[j])
    return dots[:, :len(cur)]


def _fold_rows(chamber: Chamber, points: np.ndarray) -> np.ndarray:
    """Fold images of every row of an (N, n) stack.

    Each row follows _reflect_into_chamber: the same lowest-index violated
    wall, the same tolerance and power-of-two scaling, the same step bound
    (chamber.fold_steps = |mirrors|, as no fold crosses a mirror twice) and
    error. The dot products are one matrix-vector product per wall
    over the rows still outside (_wall_dots), and each rounds as the
    per-point `normals @ cur` does, so each image equals the per-point
    image bit for bit. The rows still outside are kept as one compacted
    stack (np.take gathers rows several times faster than indexing does).
    A row's image is set aside once it is inside, and the images are
    written out in one scatter at the end.
    """
    normals = chamber.simple_normals
    out, e, sq = _unit_scaled_rows(np.array(points, dtype=float))
    bound = -_FOLD_TOL * np.sqrt(sq)   # a dot below this violates its wall
    rows = np.arange(len(out))
    cur = out
    done_rows, done_images = [], []
    steps = 0
    while rows.size:
        dots = _wall_dots(normals, cur)
        hit, wall = _first_true_columns((dots < bound).T)
        shift = 2.0 * dots[wall, np.arange(len(cur))]
        if not hit.all():
            inside, keep = np.flatnonzero(~hit), np.flatnonzero(hit)
            if steps:
                done_rows.append(rows[inside])
                done_images.append(np.take(cur, inside, axis=0))
            rows, bound, wall, shift = rows[keep], bound[keep], wall[keep], shift[keep]
            cur = np.take(cur, keep, axis=0)
            if not rows.size:
                break
        steps += 1
        if steps > chamber.fold_steps:
            raise RuntimeError(_RUNAWAY)
        cur = cur - shift[:, None] * np.take(normals, wall, axis=0)
    if done_rows:
        out[np.concatenate(done_rows)] = np.concatenate(done_images)
    scaled = e != 0
    if scaled.any():
        out[scaled] = np.ldexp(out[scaled], e[scaled, None])
    return out


def _as_point(p: Iterable[float], dim: int) -> np.ndarray:
    """p as a float vector, checked before any arithmetic touches it.

    Raises ValueError when the shape is not (dim,) or a coordinate is NaN
    or infinite; such points would otherwise fail deep inside a matmul or
    come back as a confident but meaningless answer.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (dim,):
        raise ValueError(f"point must have shape ({dim},), got {p.shape}")
    _require_finite(p, "point")
    return p


def fold(group: ReflectionGroup, chamber: Chamber, p: Iterable[float]) -> FoldResult:
    """Fold p into the closed chamber, recording the orthogonal transform."""
    p = _as_point(p, chamber.dimension)
    image, word, _ = _reflect_into_chamber(chamber, p)
    mat = np.eye(chamber.dimension)
    for i in word:
        n_i = chamber.simple_normals[i]
        mat = mat - 2.0 * np.outer(n_i, n_i @ mat)
    element = group.elements[group.element_index(mat)]
    return FoldResult(image=image, element=element, steps=len(word))


def _stack_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T, each row rounded as in any stack of two or more rows.

    BLAS takes a one-row product as a matrix-vector product, which rounds
    differently, so a row's bits would depend on whether other rows share
    the call. A lone row is therefore evaluated twice over.
    """
    if len(a) == 1:
        return (np.concatenate([a, a]) @ b.T)[:1]
    return a @ b.T


def _split_rows(group: ReflectionGroup, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """essential_split at every row of an (N, n) stack: (p_fixed, p_eff)."""
    basis = group.fixed_subspace
    if basis.shape[1] == 0:
        return np.zeros_like(points), points
    p_fixed = _stack_product(_stack_product(points, basis.T), basis)
    return p_fixed, points - p_fixed


def _wall_values(group: ReflectionGroup, points: np.ndarray,
                 normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, slack) over an (N, n) stack: values the (N, k) products
    <p_eff, n> with each row of the (k, n) normals, and slack each row's
    wall-incidence threshold ON_WALL_TOL*(1 + |p_eff|) +
    _SPLIT_ROUNDING*|p_fixed|. Each row rounds as it would alone
    (_stack_product).

    The second term covers the rounding p_eff = p - p_fixed inherits from
    the fixed part, a few ulps of |p_fixed|; without it a3 (1, 1, 1, 1)*1e7,
    on every mirror, sat off all but one. Where |p|^2 would overflow, both
    are p*2**-e's (_unit_scaled, e > 0), the threshold's 1 scaled with
    them, so no product or norm overflows.
    """
    w, e, _ = _unit_scaled_rows(points)
    e = np.maximum(e, 0)
    points = np.where(e[:, None] > 0, w, points)
    p_fixed, p_eff = _split_rows(group, points)
    fixed_norm = _norms(p_fixed) if group.fixed_subspace.shape[1] else 0.0
    slack = ON_WALL_TOL * (np.ldexp(1.0, -e) + _norms(p_eff)) + _SPLIT_ROUNDING * fixed_norm
    return _stack_product(p_eff, normals), slack


def _incident_rows(group: ReflectionGroup, points: np.ndarray) -> np.ndarray:
    """(N, m) mask of the mirrors through each row of an (N, n) stack:
    |<p_eff, n>| within the slack of _wall_values."""
    values, slack = _wall_values(group, points, group.mirror_normals)
    return np.abs(values) <= slack[:, None]


def _classify_rows(group: ReflectionGroup, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """classify at every row of an (N, n) stack, at ON_WALL_TOL: (incident,
    level), with incident the (N, m) mask of the mirrors through each row
    and level its stratum's level, essential_rank minus the number of
    singular values above _RANK_TOL of the row's incident mirror normals.
    The other normals are zeroed, so one SVD call covers the whole stack."""
    incident = _incident_rows(group, points)
    normals = np.where(incident[:, :, None], group.mirror_normals, 0.0)
    svals = np.linalg.svd(normals, compute_uv=False)
    return incident, group.essential_rank - np.sum(svals > _RANK_TOL, axis=1)


def classify(group: ReflectionGroup, p: Iterable[float]) -> StratumDescriptor:
    """Mirror incidences of p and the level of its orbit-type stratum: one
    row of _classify_rows.

    Incidence is relative: |<p_eff, n>| <= ON_WALL_TOL * (1 + |p_eff|),
    plus the rounding of the essential split (_wall_values). The level is
    essential_rank minus the rank of the collected normals, so the minimal
    stratum gets level 0 everywhere the group acts.

    The 1 keeps the tolerance at ON_WALL_TOL or more near 0, so a point
    with |p_eff| below about 1e-9 lies on every mirror and classifies to
    level 0: (3, 2, 1)*1e-200 on b3 is on all 9 walls. This is the
    contract, and it matches apply_H, which is flat there. |p_eff| is
    taken without overflow or underflow at any scale.
    """
    incident, level = _classify_rows(group, _as_point(p, group.dimension)[None])
    level = int(level[0])
    return StratumDescriptor(
        walls_containing=tuple(np.flatnonzero(incident[0]).tolist()),
        level=level,
        dimension=group.dimension - group.essential_rank + level,
    )


# ---------------------------------------------------------------------------
# face lattice
# ---------------------------------------------------------------------------

def _null_space_basis(rows: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis (dim, d) of the intersection of row kernels."""
    if rows.size == 0:
        return np.eye(dim)
    _, svals, vt = np.linalg.svd(rows)
    rank = int(np.sum(svals > _RANK_TOL))
    return vt[rank:].T.copy()


def _orthogonal_directions(basis: np.ndarray, rng: np.random.Generator,
                           count: int) -> np.ndarray:
    """Up to `count` random unit vectors orthogonal to the span of an
    (n, d) orthonormal basis, as (k, n) rows: each is a Gaussian draw with
    its part in the span taken off (an exact zero when d = 0). A draw left
    shorter than 1e-9 is dropped, and at most 4*count are made.

    The draws still missing are made as one block, as often as some are
    dropped, so the stream, the directions and the rng state after them are
    those of one draw per step. The batched products round as each row's
    matrix-vector products do, and _square_sums as each row's dot does."""
    n = basis.shape[0]
    out, left = [], 4 * count
    while count and left:
        v = rng.normal(size=(min(count, left), n))
        left -= len(v)
        v = v - np.matmul(basis, np.matmul(basis.T, v[:, :, None]))[:, :, 0]
        norm = np.sqrt(_square_sums(v))
        keep = norm > 1e-9
        out.append(v[keep] / norm[keep, None])
        count -= int(np.count_nonzero(keep))
    return np.concatenate(out) if out else np.empty((0, n))


def _edge_rays(normals: np.ndarray) -> np.ndarray:
    """Rays u_j of the chamber cone: <u_j, n_i> = 0 for i != j, > 0 for i = j.

    The rays live in the essential span of the simple normals; they form the
    dual basis to the normals inside that span.
    """
    k, dim = normals.shape
    q, _ = np.linalg.qr(normals.T)        # (dim, k) orthonormal essential basis
    coords = normals @ q                  # (k, k) normals in essential coords
    dual = np.linalg.inv(coords).T        # rows: dual basis coordinates
    rays = dual @ q.T                     # back to ambient, rows are rays
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    check = normals @ rays.T
    # np.allclose(check, diag(check), atol=1e-10) written out: the same
    # verdict on every finite check, but an infinite diagonal entry fails
    # (inf - inf is NaN), which np.allclose would pass as inf equal to inf
    if not np.abs(check - np.diag(np.diag(check))).max(initial=0.0) <= 1e-10:
        raise RuntimeError("edge rays failed the duality check")
    if np.min(np.diag(check)) <= 0:
        raise RuntimeError("edge ray oriented outward; chamber data inconsistent")
    return rays


@dataclasses.dataclass(frozen=True, eq=False)
class Face:
    """Closed chamber face: active walls set to equality, the rest inequalities."""

    active: tuple[int, ...]      # indices into chamber.simple_normals
    inactive: tuple[int, ...]
    level: int
    basis: np.ndarray            # (n, d) orthonormal basis of the linear span
    inactive_normals: np.ndarray  # (len(inactive), n) rows of simple_normals
    normal: np.ndarray | None    # unit sum of the active normals; None if none

    def project_to_span(self, p: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ p)


@dataclasses.dataclass(frozen=True, eq=False)
class Stratification:
    """All chamber faces, sorted by (level, active) and grouped by level;
    the per-level face tuples are built once, at creation."""

    group: ReflectionGroup
    chamber: Chamber
    faces: tuple[Face, ...]
    by_level: dict[int, tuple[Face, ...]]     # level -> faces, in faces order
    edge_rays: np.ndarray                     # (rank, n) chamber edge rays

    @property
    def rank(self) -> int:
        return self.group.essential_rank

    def faces_at_level(self, level: int) -> tuple[Face, ...]:
        return self.by_level.get(level, ())

    def interior_point(self, face: Face, radius: float = 1.0) -> np.ndarray:
        """A point in the relative interior of the face at the given scale."""
        if not face.inactive:
            return np.zeros(self.chamber.dimension)
        pt = self.edge_rays[list(face.inactive)].sum(axis=0)
        return radius * pt / np.linalg.norm(pt)


def strata_levels(group: ReflectionGroup, chamber: Chamber) -> Stratification:
    """Enumerate the chamber face lattice from subsets of the simple normals."""
    normals = chamber.simple_normals
    k, dim = normals.shape
    if k != group.essential_rank:
        raise ValueError("chamber wall count must equal the essential rank")
    faces: list[Face] = []
    for size in range(k + 1):
        for subset in itertools.combinations(range(k), size):
            inactive = tuple(j for j in range(k) if j not in subset)
            active_sum = normals[list(subset)].sum(axis=0)
            faces.append(
                Face(
                    active=subset,
                    inactive=inactive,
                    level=k - size,
                    basis=_null_space_basis(normals[list(subset)], dim),
                    inactive_normals=normals[list(inactive)],
                    normal=active_sum / np.linalg.norm(active_sum) if subset else None,
                )
            )
    faces.sort(key=lambda f: (f.level, f.active))
    by_level: dict[int, list[Face]] = {}
    for f in faces:
        by_level.setdefault(f.level, []).append(f)
    return Stratification(
        group=group,
        chamber=chamber,
        faces=tuple(faces),
        by_level={lv: tuple(fs) for lv, fs in by_level.items()},
        edge_rays=_edge_rays(normals),
    )
