"""Fundamental chamber: folding, orbit-type classification, face lattice.

The closed chamber is the cone {p : <p, n_i> >= 0} over the simple normals.
Folding repeatedly reflects across the lowest-index violated wall, which
terminates for finite groups and accumulates a single orthogonal transform.
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

from .groups import GroupElement, ReflectionGroup, essential_split

ON_WALL_TOL = 1e-9        # relative wall-incidence and membership tolerance
_RANK_TOL = 1e-9
_EXIT_MARGIN = 1e-6       # wall clearance, relative to 1 + |p|, ending dist_to_face's walk
_SQ_MIN = sys.float_info.min  # least square sum taken without rescaling
_SQ_MAX = 2.0 ** 1022         # square sums are formed only where they stay below this
_NORM_SAFE = 2.0 ** 510       # no square sum of a vector shorter than this overflows


@dataclasses.dataclass(frozen=True, eq=False)
class Chamber:
    """Closed fundamental chamber cut out by inward simple normals."""

    simple_normals: np.ndarray   # (k, n), rows are inward unit normals
    witness: np.ndarray          # a point in the open chamber

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

    def inequality_values(self, p: np.ndarray) -> np.ndarray:
        return self.simple_normals @ p

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
    return Chamber(simple_normals=normals, witness=witness)


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


def _unit_scaled_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_unit_scaled along the last axis of a stack, bit for bit: e and sq
    have the shape of v.shape[:-1]."""
    big = np.abs(v).max(axis=-1)
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
    fits = True if below < _NORM_SAFE else _fits(np.abs(v).max(axis=-1), v.shape[-1])
    safe = v if np.all(fits) else np.where(fits[..., None], v, 0.0)
    sq = np.einsum("...j,...j->...", safe, safe)
    out = np.sqrt(sq)
    redo = (sq < _SQ_MIN) | np.logical_not(fits)
    if redo.any():
        out[redo] = np.hypot.reduce(v[redo], axis=-1)
    return out


def _reflect_into_chamber(normals: np.ndarray, p: np.ndarray,
                          max_steps: int) -> tuple[np.ndarray, list[int]]:
    """Reflect across the lowest-index violated wall until inside.

    Returns the image and the reflection word (wall indices in the order
    applied). Points within rounding distance of a wall count as inside: a
    dot product of a few ulps below zero calls for a correction smaller than
    the spacing of floats at that coordinate, so reflecting would leave the
    point bitwise unchanged and the loop would never terminate. The
    tolerance is 1e-14*|p|, relative at every scale. Where |p|^2 would
    overflow or leave the normal range the fold runs on p scaled to unit
    size by a power of two (_unit_scaled) and scales the image back:
    reflections are linear and the scaling is exact, so p takes the word of
    its unit-size copy. In the normal range no scaling is done: it could
    change only the bits of subnormal coordinates. The walls are scanned as
    Python floats, in index order, for the first one below -tol.
    """
    cur, e, sq = _unit_scaled(np.array(p, dtype=float))
    tol = 1e-14 * math.sqrt(sq)
    word: list[int] = []
    while True:
        dots = normals @ cur
        for i, d in enumerate(dots.tolist()):
            if d < -tol:
                break
        else:
            return (np.ldexp(cur, e) if e else cur), word
        cur = cur - (2.0 * d) * normals[i]
        word.append(i)
        if len(word) > max_steps:
            raise RuntimeError("folding did not terminate; chamber data inconsistent")


def _fold_image(normals: np.ndarray, p: np.ndarray, max_steps: int) -> tuple[np.ndarray, int]:
    """Fold image and step count, without the group element.

    This is the entry apply_H calls; the per-layer trace in
    perfbench/tracer.py counts it by name.
    """
    image, word = _reflect_into_chamber(normals, p, max_steps)
    return image, len(word)


def _fold_rows(normals: np.ndarray, points: np.ndarray, max_steps: int) -> np.ndarray:
    """Fold images of every row of an (N, n) stack.

    Each row follows _reflect_into_chamber: the same lowest-index violated
    wall, the same tolerance and power-of-two scaling, the same step cap
    and error. Dot products are stacked matrix-vector products, which round
    as the per-point `normals @ cur` does, so each image equals the
    per-point image bit for bit. Rows leave the loop once inside.
    """
    cur, e, sq = _unit_scaled_rows(np.array(points, dtype=float))
    scaled = e != 0
    tol = 1e-14 * np.sqrt(sq)
    rows = np.arange(len(cur))
    steps = 0
    while True:
        dots = np.matmul(normals, cur[rows, :, None])[:, :, 0]
        bad = dots < -tol[rows, None]
        hit = bad.any(axis=1)
        if not hit.any():
            break
        rows, dots, bad = rows[hit], dots[hit], bad[hit]
        steps += 1
        if steps > max_steps:
            raise RuntimeError("folding did not terminate; chamber data inconsistent")
        i = bad.argmax(axis=1)
        cur[rows] -= (2.0 * dots[np.arange(rows.size), i])[:, None] * normals[i]
    if scaled.any():
        cur[scaled] = np.ldexp(cur[scaled], e[scaled, None])
    return cur


def _as_point(p: Iterable[float], dim: int) -> np.ndarray:
    """p as a float vector, checked before any arithmetic touches it.

    Raises ValueError when the shape is not (dim,) or a coordinate is NaN
    or infinite; such points would otherwise fail deep inside a matmul or
    come back as a confident but meaningless answer.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (dim,):
        raise ValueError(f"point must have shape ({dim},), got {p.shape}")
    if not all(map(math.isfinite, p.tolist())):
        raise ValueError(f"point has a non-finite coordinate: {p.tolist()}")
    return p


def fold(group: ReflectionGroup, chamber: Chamber, p: Iterable[float]) -> FoldResult:
    """Fold p into the closed chamber, recording the orthogonal transform."""
    p = _as_point(p, chamber.dimension)
    normals = chamber.simple_normals
    image, word = _reflect_into_chamber(normals, p, group.order)
    mat = np.eye(chamber.dimension)
    for i in word:
        n_i = normals[i]
        mat = mat - 2.0 * np.outer(n_i, n_i @ mat)
    element = group.elements[group.element_index(mat)]
    return FoldResult(image=image, element=element, steps=len(word))


def classify(group: ReflectionGroup, p: Iterable[float], tol: float = ON_WALL_TOL) -> StratumDescriptor:
    """Mirror incidences of p and the level of its orbit-type stratum.

    Incidence is relative: |<p_eff, n>| <= tol * (1 + |p_eff|). The level is
    essential_rank minus the rank of the collected normals, so the minimal
    stratum gets level 0 everywhere the group acts.
    """
    p = _as_point(p, group.dimension)
    _, p_eff = essential_split(group, p)
    scale = 1.0 + float(np.linalg.norm(p_eff))
    walls = tuple(
        i for i, m in enumerate(group.mirrors)
        if abs(float(m.normal @ p_eff)) <= tol * scale
    )
    if walls:
        stack = np.stack([group.mirrors[i].normal for i in walls])
        svals = np.linalg.svd(stack, compute_uv=False)
        rank = int(np.sum(svals > _RANK_TOL))
    else:
        rank = 0
    return StratumDescriptor(
        walls_containing=walls,
        level=group.essential_rank - rank,
        dimension=group.dimension - rank,
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
    if not np.allclose(check, np.diag(np.diag(check)), atol=1e-10):
        raise RuntimeError("edge rays failed the duality check")
    if np.min(np.diag(check)) <= 0:
        raise RuntimeError("edge ray oriented outward; chamber data inconsistent")
    return rays


@dataclasses.dataclass(frozen=True, eq=False)
class Face:
    """Closed chamber face: active walls set to equality, the rest inequalities.

    subfaces lists the face's own subfaces, the face itself first, in the
    order dist_to_face walks them: every subset `extra` of the inactive
    walls, by size and then lexicographically, made active as well. Each
    entry is (basis, rest_normals): the orthonormal basis of that subface's
    span, and the rows of the inactive normals not in `extra` (None when
    every inactive wall is in `extra`).
    """

    active: tuple[int, ...]      # indices into chamber.simple_normals
    inactive: tuple[int, ...]
    level: int
    basis: np.ndarray            # (n, d) orthonormal basis of the linear span
    inactive_normals: np.ndarray  # (len(inactive), n) rows of simple_normals
    subfaces: tuple[tuple[np.ndarray, np.ndarray | None], ...]

    def project_to_span(self, p: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ p)


@dataclasses.dataclass(frozen=True, eq=False)
class Stratification:
    """All chamber faces, sorted by (level, active) and grouped by level.

    Each face carries its own subface table (see Face), so distances need
    no lookup here; the per-level face tuples are built once, at creation.
    """

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

    def face_contains(self, face: Face, p: np.ndarray,
                      strict_interior: bool = False) -> bool:
        """Membership of p in the closed face (or its relative interior),
        to ON_WALL_TOL relative to 1 + |p|."""
        tol = ON_WALL_TOL * (1.0 + float(np.linalg.norm(p)))
        off_span = float(np.linalg.norm(p - face.project_to_span(p)))
        if off_span > tol:
            return False
        normals = self.chamber.simple_normals
        for j in face.inactive:
            v = float(normals[j] @ p)
            if strict_interior:
                if v <= tol:
                    return False
            elif v < -tol:
                return False
        return True

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
    subset_bases: dict[frozenset, np.ndarray] = {}
    for size in range(k + 1):
        for subset in itertools.combinations(range(k), size):
            key = frozenset(subset)
            rows = normals[list(subset)] if subset else np.zeros((0, dim))
            subset_bases[key] = _null_space_basis(rows, dim)

    faces: list[Face] = []
    for size in range(k + 1):
        for subset in itertools.combinations(range(k), size):
            active = tuple(subset)
            inactive = tuple(j for j in range(k) if j not in subset)
            subfaces = []
            for extra in itertools.chain.from_iterable(
                itertools.combinations(inactive, r) for r in range(len(inactive) + 1)
            ):
                rest = [j for j in inactive if j not in extra]
                subfaces.append((subset_bases[frozenset(active + extra)],
                                 normals[rest] if rest else None))
            faces.append(
                Face(
                    active=active,
                    inactive=inactive,
                    level=k - size,
                    basis=subset_bases[frozenset(subset)],
                    inactive_normals=normals[list(inactive)],
                    subfaces=tuple(subfaces),
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


def dist_to_face(face: Face, p: Iterable[float]) -> float:
    """Exact Euclidean distance from p to one closed face.

    The nearest point of a polyhedral cone lies in the relative interior of
    one of its subfaces, and there it is the orthogonal projection onto that
    subface's span. Walking the face's subface table (at most 2^rank
    entries, built once by strata_levels) is exact: each entry projects p
    onto its span and keeps the distance if the projection satisfies the
    walls that stay inequalities there. Only the face is read.

    Entry 0 is the face's own span. When its projection q clears every
    inactive wall by more than mu = _EXIT_MARGIN*(1 + |p|), its distance d0
    is returned without walking further, and it is the walk's result bit
    for bit. Every later entry makes some inactive wall j active, so its
    projection q' lies in the span with <q', n_j> = 0, and
    |p - q'|^2 = d0^2 + |q - q'|^2 >= d0^2 + <q, n_j>^2 > d0^2 + mu^2.
    Both distances are at most |p|, so the exact gap |p - q'| - d0 exceeds
    mu^2/(2|p|) >= 5e-13*(1 + |p|). Each computed distance is within about
    30u*(1 + |p|) = 3.3e-15*(1 + |p|) of its exact value (u = 2^-53), so the
    gap is more than 75 times their summed error and the walk's strict
    `d < best` would never replace entry 0. If p.p overflows, mu is inf and
    the walk runs.
    """
    p = np.asarray(p, dtype=float)
    size = 1.0 + math.sqrt(p.dot(p))
    best = np.inf
    for k, (basis, rest_normals) in enumerate(face.subfaces):
        q = basis @ (basis.T @ p)
        clearance = np.inf if rest_normals is None else (rest_normals @ q).min()
        if clearance < -ON_WALL_TOL * size:
            continue
        r = p - q
        d = math.sqrt(r.dot(r))
        if k == 0 and clearance > _EXIT_MARGIN * size:
            return d
        if d < best:
            best = d
    return best
