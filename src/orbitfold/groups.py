"""Finite reflection groups on R^n generated by mirrors through the origin.

A group is built from its roots. The generators' unit normals are closed
under reflection in one another, r - 2<r, n_i>n_i, each image sign-fixed:
that set is the root system up to sign, one normal per mirror, and it is
finite exactly when the group is (Humphreys, Reflection Groups and Coxeter
Groups, 1.2 and 1.5: Phi = W.Delta). The mirror arrangement, the subspace
fixed by the whole group (so callers can split points into a fixed part and
an essential part) and a simple system bounding a fundamental chamber are
read from those mirrors. The |G| elements, each with one shortest word in
the generators, are closed breadth-first only when they are read.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Iterable, Sequence

import numpy as np

UNIT_TOL = 1e-12       # generator normals must be unit length to this
MATCH_TOL = 1e-9       # entrywise tolerance identifying elements / mirrors
ORTHO_TOL = 1e-10      # orthogonality tolerance for element matrices
DEFAULT_CAP = 10_000   # closure size guard: mirrors, and elements when read
_KEY_DECIMALS = 7      # rounding used for exact-dict element lookup


class GroupClosureError(RuntimeError):
    """A closure of the generators outgrew the cap: the root closure, which
    generate_group runs, found more mirrors than the cap (an infinite group
    or mis-specified generators), or the element closure, which reading
    ReflectionGroup.elements runs, found more elements (that, or a finite
    group larger than the cap)."""


def _require_finite(arr: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first NaN or infinite entry of a 1-D array."""
    vals = arr.tolist()
    if not all(map(math.isfinite, vals)):
        i = next(i for i, x in enumerate(vals) if not math.isfinite(x))
        raise ValueError(f"{what} has a non-finite entry {vals[i]} at index {i}: {vals}")


def _as_unit_vector(v: Iterable[float]) -> np.ndarray:
    """v, or v/|v| when |v| is off 1 by more than UNIT_TOL.

    The length is taken of v scaled by the power of two 2^-e that brings
    its largest entry into [0.5, 1), so the squared sum lies in [0.25, n)
    at any finite length. The scaling is exact and commutes
    with the squares, the sum, the square root and the division, so for
    1.5e-154 < |v| < 1.3e154 the result equals the unscaled arithmetic bit
    for bit (barring entries below 2^-1022 times the largest, which turn
    subnormal when scaled).
    """
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError("normal must be a nonempty 1-D vector")
    _require_finite(arr, "normal")
    _, e = math.frexp(float(np.max(np.abs(arr))))
    scaled = np.ldexp(arr, -e)
    norm = float(np.linalg.norm(scaled))
    if norm == 0.0:
        raise ValueError("normal must be nonzero")
    # a length within UNIT_TOL of 1 has e <= 1; the test spares ldexp an overflow
    if e > 1 or abs(math.ldexp(norm, e) - 1.0) > UNIT_TOL:
        arr = scaled / norm
    arr.flags.writeable = False
    return arr


def _canonical_sign(normal: np.ndarray) -> np.ndarray:
    """Fix the sign ambiguity: first component larger than MATCH_TOL is positive."""
    for x in normal:
        if abs(x) > MATCH_TOL:
            out = normal if x > 0 else -normal
            out = np.array(out, dtype=float)
            out.flags.writeable = False
            return out
    raise ValueError("normal is numerically zero")


@dataclasses.dataclass(frozen=True, eq=False)
class Hyperplane:
    """A mirror: hyperplane through the origin with unit normal.

    Two hyperplanes are the same mirror when their normals have one
    _mirror_key: equal up to sign once rounded as element keys are, so
    normals 1e-9 to 1e-7 apart may name one mirror.
    """

    normal: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "normal", _as_unit_vector(self.normal))

    @property
    def dimension(self) -> int:
        return self.normal.size


def reflection_matrix(normal: np.ndarray) -> np.ndarray:
    n = np.asarray(normal, dtype=float)
    return np.eye(n.size) - 2.0 * np.outer(n, n)


def _check_orthogonal(mat: np.ndarray) -> None:
    """np.allclose(M M^T, I, rtol=0, atol=ORTHO_TOL) written out: the same
    verdict, NaN and inf rejected."""
    if not np.abs(mat @ mat.T - np.eye(len(mat))).max(initial=0.0) <= ORTHO_TOL:
        raise ValueError("element matrix is not orthogonal within 1e-10")


@dataclasses.dataclass(frozen=True, eq=False)
class GroupElement:
    """Orthogonal matrix plus one shortest word: in the generator indices
    for a group element, in the chamber wall indices for a fold's."""

    matrix: np.ndarray
    word: tuple[int, ...]

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=float)
        n = mat.shape[0]
        if mat.shape != (n, n):
            raise ValueError("element matrix must be square")
        _check_orthogonal(mat)
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "word", tuple(int(i) for i in self.word))

    @classmethod
    def _unchecked(cls, matrix: np.ndarray, word: tuple[int, ...]) -> "GroupElement":
        """An element whose square float matrix is known orthogonal, such as
        a product of checked ones: the matrix is frozen in place, with no
        test and no copy."""
        elem = object.__new__(cls)
        matrix.flags.writeable = False
        object.__setattr__(elem, "matrix", matrix)
        object.__setattr__(elem, "word", word)
        return elem

def _key_rounded(mats: np.ndarray) -> np.ndarray:
    # +0.0 collapses -0.0 so equal matrices can't get distinct keys
    return np.round(mats, _KEY_DECIMALS) + 0.0


def _matrix_key(mat: np.ndarray) -> bytes:
    return _key_rounded(mat).tobytes()


def _mirror_key(normal: np.ndarray) -> bytes:
    """The key of a mirror: its normal sign-fixed by _canonical_sign and
    rounded as an element's matrix is."""
    return _matrix_key(_canonical_sign(normal))


def _matrix_keys(mats: np.ndarray) -> list[bytes]:
    """_matrix_key of every matrix of an (N, n, n) stack, rounded at once."""
    flat = np.ascontiguousarray(_key_rounded(mats)).reshape(len(mats), -1)
    return flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1])))[:, 0].tolist()


def _close(found: dict, grow, cap: int, message: str) -> list:
    """Breadth-first closure: the items of `found` (by key), then each
    frontier's new images, frontier by frontier, in the order grow gives
    them. grow(frontier) returns the keys of the images of every frontier
    item under every generator, in one stacked pass, and a function that
    builds image k, called only for a key not found before. Raises
    GroupClosureError(message) when more than cap items are found."""
    frontier = list(found.values())
    while frontier:
        keys, make = grow(frontier)
        fresh = []
        for k, key in enumerate(keys):
            if key not in found:
                found[key] = make(k)
                fresh.append(found[key])
                if len(found) > cap:
                    raise GroupClosureError(message)
        frontier = fresh
    return list(found.values())


@dataclasses.dataclass(eq=False)
class ReflectionGroup:
    """A finite reflection group with its arrangement data.

    fixed_subspace is an (n, f) orthonormal basis of the subspace fixed by
    every element (f may be zero); essential_rank = n - f. mirror_normals
    stacks the mirrors' unit normals as (m, n) rows, in mirrors order.
    elements is built on first read, and cap bounds it as it bounds the
    mirrors.
    """

    dimension: int
    generators: tuple[Hyperplane, ...]
    mirrors: tuple[Hyperplane, ...]
    simple_system: tuple[Hyperplane, ...]
    fixed_subspace: np.ndarray
    essential_rank: int
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        self.mirror_normals = np.reshape([m.normal for m in self.mirrors], (-1, self.dimension))

    @functools.cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        """Breadth-first closure of the generators' reflections: the
        identity first, then each frontier element times each generator,
        the product s_i*e spelled (i, *w) for e spelled w.

        Raises GroupClosureError, naming the cap, when the closure exceeds
        cap elements.
        """
        dim, count = self.dimension, len(self.generators)
        # generate_group checked each generator; the products are built unchecked
        gen_stack = np.stack([reflection_matrix(g.normal) for g in self.generators])

        def grow(frontier):
            prods = np.matmul(gen_stack[None], np.stack([e.matrix for e in frontier])[:, None])
            prods = prods.reshape(-1, dim, dim)
            return _matrix_keys(prods), lambda k: GroupElement._unchecked(
                prods[k], (k % count,) + frontier[k // count].word)

        identity = GroupElement._unchecked(np.eye(dim), ())
        return tuple(_close({_matrix_key(identity.matrix): identity}, grow,
                            self.cap, f"group closure exceeded the cap of {self.cap} elements"))

    @functools.cached_property
    def _index(self) -> dict[bytes, int]:
        return {_matrix_key(e.matrix): i for i, e in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    def _nearest(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(index, max-norm distance) of the element nearest to each matrix
        of an (N, n, n) stack. The stack's keys are rounded at once and each
        is looked up: keys round at 1e-7 and distinct elements lie much
        farther apart, so the element a key finds is the nearest. A matrix
        whose key misses is compared with every element, one matrix at a
        time, so the scan holds O(|G|*n^2) floats however many keys miss;
        where both ways apply they find the same element."""
        elements = np.stack([e.matrix for e in self.elements])
        index = np.array([self._index.get(key, -1) for key in _matrix_keys(mats)])
        for row in np.flatnonzero(index < 0):
            index[row] = np.abs(mats[row] - elements).max(axis=(1, 2)).argmin()
        return index, np.abs(mats - elements[index]).max(axis=(1, 2))


def _generic_witness(dimension: int, mirrors: Sequence[Hyperplane]) -> np.ndarray:
    """Deterministic point off every mirror (used to pick a chamber)."""
    base = np.array([1.0 / math.sqrt(2.0 + k) for k in range(dimension)])
    normals = np.stack([m.normal for m in mirrors])
    for attempt in range(64):
        cand = base + attempt * np.array(
            [math.sin(1.0 + 3.0 * k + attempt) for k in range(dimension)]
        ) / 7.0
        cand = cand / np.linalg.norm(cand)
        if np.min(np.abs(normals @ cand)) > 1e-4:
            return cand
    raise RuntimeError("could not find a generic chamber witness")


def _simple_from_mirrors(
    mirrors: Sequence[Hyperplane],
    witness: np.ndarray,
    essential_rank: int,
    generators: Sequence[Hyperplane],
) -> tuple[Hyperplane, ...]:
    """Simple walls of the chamber containing witness.

    The unit normals, oriented toward the witness, are the positive roots.
    A positive root a is simple exactly when its reflection s_a makes one
    positive root negative, namely a itself: the length of w equals the
    number of positive roots w makes negative, and the reflections of
    length 1 are the simple ones (Humphreys, Reflection Groups and Coxeter
    Groups, 1.6-1.7). The image b - 2<b, a>a lies on the witness's far
    side when side_b < 2<a, b>side_a, side the oriented normals times the
    witness, so one (m, m) comparison counts them all; no image is formed.
    Each image is plus or minus some mirror normal, so its sign against the
    witness is as far from 0 as the on-mirror check below demands.
    """
    normals = np.stack([m.normal for m in mirrors])
    sides = normals @ witness
    if np.min(np.abs(sides)) < 1e-12:
        raise ValueError("witness lies on a mirror; cannot pick a chamber")
    oriented_arr = np.where(sides[:, None] > 0, normals, -normals)
    side = oriented_arr @ witness
    negative = side[None, :] < 2.0 * (oriented_arr @ oriented_arr.T) * side[:, None]
    simple_idx = np.flatnonzero(np.sum(negative, axis=1) == 1).tolist()

    if len(simple_idx) != essential_rank:
        raise RuntimeError(
            f"chamber has {len(simple_idx)} walls, expected essential rank {essential_rank}"
        )

    # Generator order first where generators are themselves simple walls.
    order = {_mirror_key(g.normal): k for k, g in enumerate(generators)}
    chosen = [Hyperplane(oriented_arr[i]) for i in simple_idx]
    return tuple(sorted(chosen, key=lambda h: order.get(_mirror_key(h.normal), len(order))))


def generate_group(
    normals: Sequence[Iterable[float]],
    cap: int = DEFAULT_CAP,
    witness: Iterable[float] | None = None,
) -> ReflectionGroup:
    """The group of the reflections given by `normals`, built from its roots.

    Each generator's unit normal, read off its reflection matrix, seeds the
    root closure: every root found is reflected in every generator, r -
    2<r, n_i>n_i, one stacked pass per frontier, and each image is
    sign-fixed and kept when its _mirror_key is new. The roots found are the
    mirror normals; the fixed subspace, the essential rank and the simple
    system are read from them. The elements are not built here (see
    ReflectionGroup.elements).

    `cap` bounds the number of mirrors here, and the number of elements
    when they are read. Raises GroupClosureError, naming the cap, when the
    root closure exceeds `cap` mirrors: the group is infinite or
    mis-specified.
    """
    gens = [Hyperplane(n) for n in normals]
    if not gens:
        raise ValueError("at least one generating mirror is required")
    dim = gens[0].dimension
    if any(g.dimension != dim for g in gens):
        raise ValueError("all generator normals must share one dimension")
    unique: dict[bytes, Hyperplane] = {}
    for g in gens:
        unique.setdefault(_mirror_key(g.normal), g)      # the first given wins
    gens = list(unique.values())

    seeds = []
    for g in gens:
        gmat = reflection_matrix(g.normal)
        _check_orthogonal(gmat)          # once per generator
        proj = 0.5 * (np.eye(dim) - gmat)   # n n^T; its largest column is along n
        col = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
        seeds.append(_canonical_sign(col / np.linalg.norm(col)))
    seeds = np.stack(seeds)

    def grow(frontier):
        # every frontier root reflected in every generator, sign-fixed
        roots = np.stack(frontier)
        images = roots[:, None] - 2.0 * (roots @ seeds.T)[:, :, None] * seeds[None]
        images = [_canonical_sign(v) for v in images.reshape(-1, dim)]
        return [_matrix_key(v) for v in images], images.__getitem__

    roots = _close({_matrix_key(r): r for r in seeds}, grow, cap,
                   f"root closure exceeded the cap of {cap} mirrors")
    mirrors = sorted((Hyperplane(r) for r in roots), key=lambda m: tuple(np.round(m.normal, 9)))

    _, svals, vt = np.linalg.svd(np.stack([m.normal for m in mirrors]))
    rank = int(np.sum(svals > 1e-10))
    fixed_basis = vt[rank:].T.copy() if rank < dim else np.zeros((dim, 0))
    fixed_basis.flags.writeable = False
    wit = _generic_witness(dim, mirrors) if witness is None else np.asarray(witness, dtype=float)
    return ReflectionGroup(dimension=dim, generators=tuple(gens), mirrors=tuple(mirrors),
                           simple_system=_simple_from_mirrors(mirrors, wit, rank, gens),
                           fixed_subspace=fixed_basis, essential_rank=rank, cap=cap)


def _i2_normals(m: int) -> list[np.ndarray]:
    """Simple system of the dihedral group of the regular m-gon arrangement."""
    return [
        np.array([0.0, 1.0]),
        np.array([math.sin(math.pi / m), -math.cos(math.pi / m)]),
    ]


# each preset's simple roots, with integer entries, and a witness in its chamber
_PRESET_ROOTS = {
    "A2": ([(1, -1, 0), (0, 1, -1)], (3, 2, 1)),
    "B2": ([(0, 1), (1, -1)], (2, 1)),
    "A3": ([(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)], (4, 3, 2, 1)),
    "B3": ([(1, -1, 0), (0, 1, -1), (0, 0, 1)], (3, 2, 1)),
}

PRESET_NAMES = ("I2", "A2", "B2", "A3", "B3")
_PRESET_ORDERS = {"A2": 6, "B2": 8, "A3": 24, "B3": 48}


def _preset_key(name: str, m: int | None) -> tuple[str, int | None]:
    """(key, m) of a preset name: key one of PRESET_NAMES, and m the I2
    parameter, from the argument or the name ('i2-5', 'I2(5)'); None for
    the other presets."""
    key = name.strip()
    if key.upper().startswith("I2"):
        if m is None:
            inner = key[2:].strip("()-_: ")
            if not inner:
                raise ValueError("I2 preset needs m, e.g. preset_group('I2', m=5)")
            m = int(inner)
        if m < 2:
            raise ValueError("I2(m) needs m >= 2")
        return "I2", m
    if key.upper() not in _PRESET_ROOTS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return key.upper(), None


def preset_order(name: str) -> int:
    """Order of the named preset group, read from its name alone (2m for
    I2(m), spelled 'i2-5' or 'I2(5)'), for checking the group that
    preset_group builds."""
    key, m = _preset_key(name, None)
    return 2 * m if key == "I2" else _PRESET_ORDERS[key]


def preset_group(name: str, m: int | None = None) -> ReflectionGroup:
    """Named small groups: I2(m) (pass m), A2, B2, A3, B3.

    A2 acts on R^3 and A3 on R^4 by coordinate permutations, so both have a
    one-dimensional fixed diagonal; the rest are essential.
    """
    key, m = _preset_key(name, m)
    if key == "I2":
        normals = _i2_normals(m)
        theta = math.pi / (2 * m)
        witness = np.array([math.cos(theta), math.sin(theta)])
        return generate_group(normals, witness=witness)
    roots, witness = _PRESET_ROOTS[key]
    normals = [np.array(r, dtype=float) / math.sqrt(np.dot(r, r)) for r in roots]
    return generate_group(normals, witness=np.array(witness, dtype=float))


def essential_split(group: ReflectionGroup, p: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """Split p = p_fixed + p_eff into the fixed subspace and its complement.
    p is read at unit stride, as chamber._as_point reads a point, so the
    bits do not depend on its memory layout."""
    p = np.asarray(p, dtype=float)
    if p.shape != (group.dimension,):
        raise ValueError(f"point must have shape ({group.dimension},)")
    _require_finite(p, "point")
    basis = group.fixed_subspace
    if basis.shape[1] == 0:
        return np.zeros_like(p), p.copy()
    p_fixed = basis.dot(basis.T.dot(np.ascontiguousarray(p)))
    return p_fixed, p - p_fixed
