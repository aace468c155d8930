"""Concrete group actions whose orbits become level sets of the smooth map.

Two models: real symmetric 3x3 matrices under rotation conjugation (the
section is the diagonal matrices, folded by coordinate permutations), and
the rotation group acting on R^n (the section is a line through 0, folded
by a sign flip). Eigenvalues are computed by hand-rolled cyclic Jacobi
sweeps so the model has no linear-algebra dependency to certify against
itself; the test suite cross-checks them with numpy's eigensolver. The
sweeps rotate Python floats with the symmetric update, a dozen multiplies
per rotation, because on a 3x3 matrix numpy's per-call overhead would
cost more than the arithmetic; the eigenvector frame gets determinant +1
from the parity of the sort that orders the eigenvalues. The equidistance
probe measures each sample of one orbit against the other orbit's point
at the sample's own eigenframe; by Hoffman-Wielandt that point is nearest,
so the probe needs no search.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .chamber import classify, fold
from .groups import ReflectionGroup, generate_group, preset_group
from .smoothing import SmoothChain, apply_H

JACOBI_TOL = 1e-12
_SYM_AXES = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


# ---------------------------------------------------------------------------
# symmetric 3x3 plumbing
# ---------------------------------------------------------------------------

def sym_to_matrix(v: np.ndarray) -> np.ndarray:
    """(a11, a22, a33, a12, a13, a23) -> symmetric matrix."""
    v = np.asarray(v, dtype=float)
    if v.shape != (6,):
        raise ValueError("symmetric coordinates must have shape (6,)")
    A = np.zeros((3, 3))
    for val, (i, j) in zip(v, _SYM_AXES):
        A[i, j] = val
        A[j, i] = val
    return A


def jacobi_eigensystem(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns of a
    symmetric 3x3 matrix, by cyclic Jacobi rotations.

    Each sweep zeroes the off-diagonal entries one at a time, in the order
    (0,1), (0,2), (1,2); the off-diagonal mass falls quadratically, so a
    handful of sweeps reach rounding level. Convergence is declared when
    every off-diagonal entry is below JACOBI_TOL relative to the matrix
    scale; 40 sweeps without convergence raise RuntimeError. A non-finite
    entry or an asymmetry above 1e-9 relative to the matrix scale is
    refused before any sweep, in the same pass over Python floats.

    The sweeps run on Python floats with the symmetric update (Golub & Van
    Loan, Matrix Computations, 4th ed., section 8.5.2): the rotation in the
    (p, q) plane with t = tan(theta) sets a_pp -= t*a_pq, a_qq += t*a_pq and
    a_pq = 0, rotates the remaining pair (a_rp, a_rq), and rotates columns
    p and q of V. Every rotation has determinant +1, so V does too, and
    sorting the eigenpairs multiplies det V by the sign of the sort
    permutation; an odd permutation is undone by negating the last column.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    a = A.tolist()
    for k, x in enumerate(a[0] + a[1] + a[2]):
        if not math.isfinite(x):
            raise ValueError(f"matrix entry {divmod(k, 3)} is not finite: {x}")
    lower = ((1, 0), (2, 0), (2, 1))
    if max(abs(a[i][j] - a[j][i]) for i, j in lower) > \
            1e-9 * (1.0 + max(map(abs, a[0] + a[1] + a[2]))):
        raise ValueError("matrix is not symmetric")
    for i, j in lower:
        a[i][j] = a[j][i] = 0.5 * (a[i][j] + a[j][i])
    V = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    scale = 1.0 + max(map(abs, a[0] + a[1] + a[2]))
    for _ in range(40):
        if max(abs(a[0][1]), abs(a[0][2]), abs(a[1][2])) <= JACOBI_TOL * scale:
            break
        for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            apq = a[p][q]
            if abs(apq) <= JACOBI_TOL * scale * 1e-2:
                continue
            tau = (a[q][q] - a[p][p]) / (2.0 * apq)
            t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau)) if tau != 0 else 1.0
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            arp, arq = a[r][p], a[r][q]
            a[r][p] = a[p][r] = c * arp - s * arq
            a[r][q] = a[q][r] = s * arp + c * arq
            a[p][p] -= t * apq
            a[q][q] += t * apq
            a[p][q] = a[q][p] = 0.0
            for row in V:
                vp, vq = row[p], row[q]
                row[p] = c * vp - s * vq
                row[q] = s * vp + c * vq
    else:
        raise RuntimeError("Jacobi sweeps did not converge")
    diag = (a[0][0], a[1][1], a[2][2])
    order = sorted(range(3), key=lambda i: -diag[i])
    vals = np.array([diag[i] for i in order])
    V = np.array([[row[i] for i in order] for row in V])
    if order in ([0, 2, 1], [1, 0, 2], [2, 1, 0]):     # odd permutations
        V[:, -1] = -V[:, -1]
    return vals, V


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class PolarModel:
    """An ambient group action together with its section data."""

    name: str
    ambient_dim: int
    section_dim: int
    section_map: Callable[[np.ndarray], np.ndarray]
    weyl: ReflectionGroup


def sym_eig_model() -> PolarModel:
    """Symmetric 3x3 matrices under conjugation by rotations; the section
    is the diagonal matrices and descending eigenvalues realize the fold
    into the chamber x1 >= x2 >= x3."""
    weyl = preset_group("a2")

    def section_map(p: np.ndarray) -> np.ndarray:
        A = np.asarray(p, dtype=float)
        if A.shape == (6,):
            A = sym_to_matrix(A)
        vals, _ = jacobi_eigensystem(A)
        return vals

    return PolarModel(name="sym3-eig", ambient_dim=6, section_dim=3,
                      section_map=section_map, weyl=weyl)


def radial_model(n: int) -> PolarModel:
    """Rotations of R^n; the section is a line through the origin and the
    fold is the sign flip, so the section coordinate is the norm."""
    if n < 2:
        raise ValueError("radial model needs ambient dimension >= 2")
    weyl = generate_group([np.array([1.0])])

    def section_map(p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.shape != (n,):
            raise ValueError(f"point must have shape ({n},)")
        return np.array([np.linalg.norm(p)])

    return PolarModel(name=f"radial-{n}", ambient_dim=n, section_dim=1,
                      section_map=section_map, weyl=weyl)


def model_H(model: PolarModel, chain: SmoothChain, p: np.ndarray) -> np.ndarray:
    """The smooth invariant map on the ambient space: project to the
    section, fold, then apply the smoothing composite."""
    if chain.group.dimension != model.weyl.dimension or \
            chain.group.order != model.weyl.order:
        raise ValueError("chain was not built on the model's folding group")
    return apply_H(chain, model.section_map(p))


def random_rotation(rng: np.random.Generator, n: int = 3) -> np.ndarray:
    """Haar-ish random rotation: QR of a Gaussian matrix, sign-fixed."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q = q.copy()
        q[:, 0] = -q[:, 0]
    return q


# ---------------------------------------------------------------------------
# equidistance of regular level sets
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class EquidistanceReport:
    """Distances from samples of one regular level set to another."""

    distances: tuple[float, ...]
    spread: float
    analytic: float


def _require_regular(model: PolarModel, chamber, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (model.section_dim,):
        raise ValueError(f"section value must have shape ({model.section_dim},)")
    folded = fold(model.weyl, chamber, v).image
    desc = classify(model.weyl, folded)
    if desc.walls_containing:
        raise ValueError("section value lies on a wall; level set is not regular")
    return folded


def equidistance_probe(
    model: PolarModel,
    chain: SmoothChain,
    v1: np.ndarray,
    v2: np.ndarray,
    samples: int = 10,
    seed: int = 0,
) -> EquidistanceReport:
    """Sample the level set over v1 and measure the ambient distance to the
    level set over v2; regular level sets of the fold sit at constant
    distance, so the spread of the measurements should vanish.

    On the symmetric model each sample p = Q diag(a) Q^T is measured
    against V diag(b) V^T, where V is Jacobi's eigenframe of p. Both
    spectra are sorted descending, so by the Hoffman-Wielandt inequality
    (Duke Math. J. 20, 1953) this distance is the distance from p to the
    whole orbit over v2. On the radial model the nearest point of the
    second sphere lies on the same ray. The analytic field carries the
    sorted-spectrum distance (symmetric model) or radius difference
    (radial model), computed from v1 and v2 alone.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    a = _require_regular(model, chain.chamber, v1)
    b = _require_regular(model, chain.chamber, v2)
    rng = np.random.default_rng(seed)

    if model.name.startswith("radial"):
        n = model.ambient_dim
        r1, r2 = float(a[0]), float(b[0])
        dists = []
        for _ in range(samples):
            u = rng.normal(size=n)
            u = u / np.linalg.norm(u)
            p = r1 * u
            # nearest point of the second sphere lies along the same ray
            dists.append(abs(float(np.linalg.norm(p)) - r2))
        analytic = abs(r1 - r2)
    elif model.name == "sym3-eig":
        D2 = np.diag(b)
        dists = []
        for _ in range(samples):
            Q = random_rotation(rng)
            p = Q @ np.diag(a) @ Q.T
            _, frame = jacobi_eigensystem(p)
            dists.append(float(np.linalg.norm(p - frame @ D2 @ frame.T)))
        analytic = float(np.linalg.norm(a - b))
    else:
        raise ValueError(f"no level-set sampler for model {model.name!r}")

    dists_t = tuple(dists)
    return EquidistanceReport(
        distances=dists_t,
        spread=max(dists_t) - min(dists_t),
        analytic=analytic,
    )


# ---------------------------------------------------------------------------
# wall-crossing curves of symmetric matrices
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class CrossingCurve:
    """A line of symmetric matrices crossing the repeated-eigenvalue locus
    transversally at s = 0."""

    base: np.ndarray          # matrix with a repeated eigenvalue pair
    velocity: np.ndarray      # symmetric direction, coupling the pair
    frame: np.ndarray         # rotation conjugating the whole line
    derivative_gap: float     # analytic gap of d/ds (sorted eigenvalues)

    def __call__(self, s: float) -> np.ndarray:
        Q = self.frame
        return Q @ (self.base + float(s) * self.velocity) @ Q.T


def eigen_crossing_curve(seed: int = 0, gap: float = 1.0) -> CrossingCurve:
    """Build a transversal crossing with a prescribed first-derivative gap.

    The base is diag(a, a, c); within the repeated 2x2 block the velocity
    splits the double eigenvalue at rate r = sqrt(((t11-t22)/2)^2 + t12^2)
    per unit s. Sorting swaps the two branches at s = 0, so their
    derivatives jump by +2r and -2r and the sorted-spectrum derivative
    vector jumps by 2*sqrt(2)*r in norm. The velocity is rescaled so that
    norm equals the requested gap.
    """
    if gap <= 0:
        raise ValueError("gap must be positive")
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 1.5)
    c = a - rng.uniform(1.0, 2.0)
    base = np.diag([a, a, c])
    T = rng.normal(size=(3, 3))
    T = 0.5 * (T + T.T)
    r = float(np.hypot(0.5 * (T[0, 0] - T[1, 1]), T[0, 1]))
    while r < 1e-3:      # resample a degenerate coupling
        T = rng.normal(size=(3, 3))
        T = 0.5 * (T + T.T)
        r = float(np.hypot(0.5 * (T[0, 0] - T[1, 1]), T[0, 1]))
    T = T * (gap / (2.0 * np.sqrt(2.0) * r))
    return CrossingCurve(
        base=base,
        velocity=T,
        frame=random_rotation(rng),
        derivative_gap=gap,
    )
