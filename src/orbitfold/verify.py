"""Invariant checks behind the `verify` command and the acceptance suite.

Each check returns CheckResult records: an invariant name, the measured
value, the threshold it is held to, and whether it passed. Checks never
raise on a failed invariant — they report — so a verification run always
produces the complete list.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .calculus import (
    DECAY_SLOPE,
    DEFAULT_OFFSETS,
    ProbeReport,
    _evaluate,
    _jacobian_stencils,
    _least_resolved_slope,
    _line_stencils,
    _run_stencils,
    _wall_reports,
    growth_bound_check,
    origin_line_probe,
)
from .chamber import Chamber, _fold_rows, classify, fold
from .groups import ReflectionGroup, essential_split, reflection_matrix
from .smoothing import (
    SmoothChain,
    SmoothProfile,
    _apply_F_rows,
    _apply_G_rows,
    _apply_H_rows,
    _radius_at,
    apply_G,
    apply_H,
    eval_h,
    tube_coords,
)

PRESET_ORDERS = {"i2-3": 6, "i2-4": 8, "a2": 6, "b2": 8, "a3": 24, "b3": 48}


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status:4s} {self.name}: value={self.value:.6g} threshold={self.threshold:.6g}"


def _result(name: str, value: float, threshold: float, *, mode: str = "max",
            detail: str = "") -> CheckResult:
    """mode 'max': pass when value <= threshold; 'min': value >= threshold."""
    passed = value <= threshold if mode == "max" else value >= threshold
    return CheckResult(name=name, value=float(value), threshold=float(threshold),
                       passed=bool(passed), detail=detail)


# ---------------------------------------------------------------------------
# 1: group closure
# ---------------------------------------------------------------------------

def check_closure(group: ReflectionGroup,
                  expected_order: int | None = None) -> list[CheckResult]:
    out = []
    if expected_order is not None:
        out.append(CheckResult(
            name="group order", value=float(group.order),
            threshold=float(expected_order),
            passed=group.order == expected_order))
    mats = np.stack([e.matrix for e in group.elements])

    def nearest(moved: np.ndarray) -> float:
        """Largest max-norm distance from a stack of matrices to the group."""
        return float(np.abs(moved[:, None] - mats).max(axis=(2, 3)).min(axis=1).max())

    worst = max(nearest(a @ mats) for a in mats)
    out.append(_result("closure under products", worst, 1e-9))
    reflections = np.stack([reflection_matrix(m.normal) for m in group.mirrors])
    conj = max(nearest(e @ reflections @ e.T) for e in mats)
    out.append(_result("mirror conjugation closed", conj, 1e-9))
    return out


# ---------------------------------------------------------------------------
# 2: fold correctness
# ---------------------------------------------------------------------------

def check_fold(group: ReflectionGroup, chamber: Chamber, count: int = 1000,
               seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    mats = np.stack([e.matrix for e in group.elements])
    worst_violation = 0.0       # chamber inequality shortfall
    worst_orbit = 0.0           # distance to the nearest true translate
    images = np.empty((count, group.dimension))
    orbits = np.empty((count, len(mats), group.dimension))
    for k in range(count):
        p = rng.normal(scale=2.0, size=group.dimension)
        image = fold(group, chamber, p).image
        worst_violation = max(worst_violation,
                              -float(np.min(chamber.inequality_values(image))))
        translates = mats @ p
        worst_orbit = max(worst_orbit,
                          float(np.min(np.linalg.norm(translates - image, axis=1))))
        images[k], orbits[k] = image, translates
    # every orbit as one stack, fed ROW_CAP rows at a time; each orbit holds
    # its p, so the public fold and the stacked one are checked against
    # each other too
    folded = _evaluate(lambda rows: _fold_rows(chamber.simple_normals, rows, group.order),
                       orbits.reshape(-1, group.dimension))
    spread = np.linalg.norm(folded.reshape(orbits.shape) - images[:, None], axis=2)
    worst_invariance = float(np.max(spread, initial=0.0))   # fold's spread over an orbit
    return [
        _result("fold image in chamber", worst_violation, 1e-12),
        _result("fold image on orbit", worst_orbit, 1e-12),
        _result("fold orbit invariance", worst_invariance, 1e-10),
    ]


# ---------------------------------------------------------------------------
# 3: profile properties
# ---------------------------------------------------------------------------

def _flat_derivatives(prof: SmoothProfile) -> list[float]:
    """h^(1), ..., h^(4) at t = 1e-3 by central differences of step 5e-5,
    all from one stacked evaluation of h."""
    base, steps = np.array([[1e-3]]), np.array([5e-5])
    h_rows = lambda rows: np.array([[eval_h(prof, t)] for t in rows[:, 0].tolist()])
    derivatives = _run_stencils(h_rows, [_line_stencils(base, np.eye(1), order, steps)
                                         for order in (1, 2, 3, 4)])
    return [float(d[0, 0, 0]) for d in derivatives]


def check_profile() -> list[CheckResult]:
    prof = SmoothProfile()
    out = []

    ts = np.linspace(1.0, 3.0, 200)
    tail = max(abs(eval_h(prof, float(t)) - float(t)) for t in ts)
    out.append(_result("linear tail h(t)=t for t>=1", tail, 1e-15))

    out.append(_result("symmetry value h(1/2)=1/4",
                       abs(eval_h(prof, 0.5) - 0.25), 0.0))

    worst_fd = max(abs(d) for d in _flat_derivatives(prof))
    out.append(_result("derivatives vanish at t=1e-3 (orders 1-4)",
                       worst_fd, 1e-8))

    grid = np.linspace(2.0 / 1000, 2.0, 1000)
    min_slope = min(eval_h(prof, float(t), order=1) for t in grid)
    out.append(_result("h' positive on (0,2]", min_slope, 0.0, mode="min",
                       detail="minimum of h' over the grid; must stay above 0"))

    mono_grid = np.linspace(0.2 / 200, 0.2, 200)
    for order in range(5):
        vals = [eval_h(prof, float(t), order=order) for t in mono_grid]
        min_diff = min(b - a for a, b in zip(vals, vals[1:]))
        out.append(_result(
            f"h^({order}) nondecreasing on (0,0.2]", min_diff, -1e-12,
            mode="min",
            detail="smallest consecutive difference over the grid"))
    return out


# ---------------------------------------------------------------------------
# shared sampling helpers
# ---------------------------------------------------------------------------

def sample_face_point(chain: SmoothChain, face, rng: np.random.Generator,
                      radius_range: tuple[float, float] = (0.5, 2.0)) -> np.ndarray:
    """Random point in the relative interior of a face (positive edge-ray
    combination at a random scale). A face with no inactive walls is the
    minimal stratum; its point is the origin."""
    if not face.inactive:
        return np.zeros(chain.group.dimension)
    rays = chain.stratification.edge_rays[list(face.inactive)]
    weights = rng.uniform(0.2, 1.8, size=len(rays))
    x = weights @ rays
    x = x / np.linalg.norm(x)
    return float(rng.uniform(*radius_range)) * x


def sample_regular_margin_point(chain: SmoothChain,
                                rng: np.random.Generator) -> np.ndarray:
    """Regular chamber point staying a definite fraction inside every tube
    it meets: tube height fraction >= 0.3 at each level it enters and
    essential norm >= 0.3*c0, so derivative information is not squeezed
    through the flat throat of the profile."""
    for _ in range(500):
        p = rng.normal(scale=1.5, size=chain.group.dimension)
        q = fold(chain.group, chain.chamber, p).image
        desc = classify(chain.group, q)
        if desc.walls_containing:
            continue
        _, q_eff = essential_split(chain.group, q)
        if float(np.linalg.norm(q_eff)) < 0.3 * chain.tubes.c0:
            continue
        ok = True
        for i in range(1, chain.rank):
            coords = tube_coords(chain, i, q)
            if coords is not None and coords.t < 0.3 * coords.radius:
                ok = False
                break
        if ok:
            return q
    raise RuntimeError("could not sample a regular point with tube margins")


# ---------------------------------------------------------------------------
# 4: flatness at strata
# ---------------------------------------------------------------------------

def check_flatness(chain: SmoothChain, points_per_level: int = 50,
                   seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for level in range(1, chain.rank):
        faces = chain.stratification.faces_at_level(level)
        bases, normals, steps = [], [], []
        for j in range(points_per_level):
            face = faces[j % len(faces)]
            x = sample_face_point(chain, face, rng, radius_range=(1.0, 2.0))
            if classify(chain.group, x).level != level:
                continue
            radius = _radius_at(chain, face, x)
            if radius < 0.15:
                # Order-3 stencil noise is ~eps*|x|/step**3, so narrow tubes
                # (deep-level faces) cannot resolve 1e-6 at any step.  Faces
                # are rays, and the tube radius grows linearly along them
                # below the caps, so slide the sample outward until the tube
                # is wide enough to measure through.
                x = x * (0.15 / radius)
                radius = _radius_at(chain, face, x)
            v = chain.chamber.simple_normals[list(face.active)].sum(axis=0)
            v = v / np.linalg.norm(v)
            bases.append(x + (1e-3 * radius) * v)
            normals.append(v)
            # Step must stay well above the rounding blowup of the
            # order-3 stencil (~eps/step**3) while keeping the whole
            # stencil (heights up to 0.025*radius) where the profile is
            # still nearly flat: h(0.025) ~ 5e-15, so the profile adds
            # at most ~1e-7 to the order-3 difference at radius 0.15.
            # 0.012*radius satisfies both.
            steps.append(0.012 * radius)
        if not bases:
            continue
        fn = lambda points: _apply_F_rows(chain, level, points)
        # orders 1-3 at every sample of the level share one evaluation
        stencils = [_line_stencils(np.array(bases), np.array(normals)[:, None], order,
                                   np.asarray(steps))
                    for order in (1, 2, 3)]
        for derivatives in _run_stencils(fn, stencils):
            for d in derivatives:
                worst = max(worst, float(np.linalg.norm(d)))
        checked += len(bases)
    return _result("flat normal derivatives at strata", worst, 1e-6,
                   detail=f"max over {checked} points, orders 1-3")


# ---------------------------------------------------------------------------
# 5: smoothness across walls and at the origin
# ---------------------------------------------------------------------------

def _wall_probes(chain: SmoothChain, points: int, seed: int,
                 offsets: Sequence[float] = DEFAULT_OFFSETS,
                 orders: Sequence[int] = (1, 2)) -> list[ProbeReport]:
    """Wall-jump probes of H at seeded points of the codimension-one faces,
    cycling through the faces; a sample not on exactly one wall is skipped,
    and a kept one is probed across that wall. All probes share one stacked
    evaluation of H and one of the fold."""
    rng = np.random.default_rng(seed)
    faces = chain.stratification.faces_at_level(chain.rank - 1)
    samples = []
    for j in range(points):
        face = faces[j % len(faces)]
        x = sample_face_point(chain, face, rng, radius_range=(1.0, 2.0))
        walls = classify(chain.group, x).walls_containing
        if len(walls) == 1:
            samples.append((x, face, walls[0]))
    return _wall_reports(chain, lambda rows: _apply_H_rows(chain, rows), samples,
                         offsets, orders)


def _decay_results(reports: Sequence[ProbeReport], name: str,
                   unresolved_note: str) -> list[CheckResult]:
    """Orders 1 and 2: the least resolved decay slope (inf when none
    resolves) against DECAY_SLOPE, noting how many reports were unresolved."""
    out = []
    for order in (1, 2):
        n_unres = sum(not r.resolved(order) for r in reports)
        out.append(_result(
            f"{name} (order {order})", _least_resolved_slope(reports, order),
            DECAY_SLOPE, mode="min",
            detail=f"{n_unres} {unresolved_note}" if n_unres else ""))
    return out


def check_wall_smoothness(chain: SmoothChain, points: int = 20,
                          seed: int = 0) -> list[CheckResult]:
    reports = _wall_probes(chain, points, seed)
    control_slope = max((abs(r.control_slopes[1]) for r in reports),
                        default=-math.inf)
    control_jump = min((r.control_jumps[1][0] for r in reports),
                       default=math.inf)
    out = _decay_results(reports, "wall jump decay slope",
                         "probes already below resolution")
    out.append(_result("fold control slope stays flat",
                       control_slope, 0.1))
    out.append(_result("fold control jump stays large",
                       control_jump, 0.5, mode="min"))
    return out


def check_origin_smoothness(chain: SmoothChain, lines: int = 20,
                            seed: int = 0) -> list[CheckResult]:
    reports = origin_line_probe(chain, lambda points: _apply_H_rows(chain, points),
                                count=lines, seed=seed)
    return _decay_results(
        reports, "origin line jump decay",
        "lines already below resolution (antipodal symmetry makes even "
        "orders exact)")


# ---------------------------------------------------------------------------
# 6: injectivity / regularity / wall preservation
# ---------------------------------------------------------------------------

def check_injectivity(chain: SmoothChain, pairs: int = 1000,
                      seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = math.inf
    done = 0
    while done < pairs:
        p = fold(chain.group, chain.chamber,
                 rng.normal(scale=2.0, size=chain.group.dimension)).image
        q = fold(chain.group, chain.chamber,
                 rng.normal(scale=2.0, size=chain.group.dimension)).image
        if float(np.linalg.norm(p - q)) < 1e-4:
            continue
        sep = float(np.linalg.norm(apply_G(chain, p) - apply_G(chain, q)))
        worst = min(worst, sep)
        done += 1
    return _result("separated points stay separated", worst, 1e-8,
                   mode="min", detail=f"min image separation over {pairs} pairs")


def check_regular_jacobian(chain: SmoothChain, points: int = 1000,
                           seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    samples = np.reshape([sample_regular_margin_point(chain, rng) for _ in range(points)],
                         (points, chain.group.dimension))
    steps = [1e-5 * (1.0 + float(np.linalg.norm(p))) for p in samples]
    jacobians = _run_stencils(lambda rows: _apply_G_rows(chain, rows),
                              [_jacobian_stencils(samples, steps)])[0]
    worst = min((abs(float(np.linalg.det(J))) for J in jacobians), default=math.inf)
    return _result("Jacobian determinant bounded away from zero",
                   worst, 1e-6, mode="min",
                   detail=f"min |det DG| over {points} margin-sampled points")


def check_wall_preservation(chain: SmoothChain, points: int = 1000,
                            seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    strat = chain.stratification
    singular_faces = [f for f in strat.faces if 0 < f.level < chain.rank] or \
                     [f for f in strat.faces if f.level == 0]
    worst = 0.0
    for j in range(points):
        face = singular_faces[j % len(singular_faces)]
        if not face.inactive:
            continue
        x = sample_face_point(chain, face, rng)
        walls = classify(chain.group, x).walls_containing
        image = apply_G(chain, x)
        scale = 1.0 + float(np.linalg.norm(image))
        for w in walls:
            dev = abs(float(chain.group.mirrors[w].normal @ image)) / scale
            worst = max(worst, dev)
        if classify(chain.group, image).walls_containing != walls:
            worst = max(worst, 1.0)
    return _result("wall sets preserved by the composite", worst, 1e-9,
                   detail=f"max relative wall deviation over {points} points")


# ---------------------------------------------------------------------------
# 7: derivative growth bounds
# ---------------------------------------------------------------------------

def check_growth(chain: SmoothChain) -> list[CheckResult]:
    out = []
    for level in range(chain.rank):
        rep = growth_bound_check(chain, level)
        for order in (1, 2):
            out.append(_result(
                f"derivative growth exponent (level {level}, order {order})",
                rep.exponents[order], rep.limits[order]))
    return out


# ---------------------------------------------------------------------------
# 9: identity tail
# ---------------------------------------------------------------------------

def check_identity_tail(chain: SmoothChain, count: int = 1000,
                        seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    accepted = 0
    tries = 0
    while accepted < count and tries < 100 * count:
        tries += 1
        p = rng.normal(scale=3.0, size=chain.group.dimension)
        image = fold(chain.group, chain.chamber, p).image
        _, eff = essential_split(chain.group, image)
        if float(np.linalg.norm(eff)) < chain.tubes.c0:
            continue
        if any(tube_coords(chain, i, image) is not None
               for i in range(1, chain.rank)):
            continue
        accepted += 1
        worst = max(worst, float(np.max(np.abs(apply_H(chain, p) - image))))
    return _result("identity outside all tubes", worst, 1e-12,
                   detail=f"max |H - fold| over {accepted} tail points")


# ---------------------------------------------------------------------------
# assembly for one configured group
# ---------------------------------------------------------------------------

def run_verification(chain: SmoothChain, count: int = 200, seed: int = 0,
                     expected_order: int | None = None) -> list[CheckResult]:
    """Group-scoped verification: every check that applies to a single
    chain, at a sample size suitable for a command-line run."""
    results = []
    results += check_closure(chain.group, expected_order)
    results += check_fold(chain.group, chain.chamber, count=count, seed=seed)
    results += check_profile()
    results.append(check_flatness(chain, points_per_level=min(count, 50),
                                  seed=seed))
    results += check_wall_smoothness(chain, points=min(count, 20), seed=seed)
    results += check_origin_smoothness(chain, lines=min(count, 20), seed=seed)
    results.append(check_injectivity(chain, pairs=count, seed=seed))
    results.append(check_regular_jacobian(chain, points=count, seed=seed))
    results.append(check_wall_preservation(chain, points=count, seed=seed))
    results += check_growth(chain)
    results.append(check_identity_tail(chain, count=count, seed=seed))
    return results
