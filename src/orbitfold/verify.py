"""Invariant checks behind the `verify` command and the acceptance suite.

Each check returns CheckResult records: an invariant name, the measured
value, the threshold it is held to, and whether it passed. Checks never
raise on a failed invariant — they report — so a verification run always
produces the complete list; a ValueError that a broken map raises inside
a check becomes that check's FAIL line in run_verification.

Each check makes one stacked evaluation: its samples are drawn first, in
the order a point-at-a-time loop would draw them, and then folded,
classified, tested against the tubes and mapped as (N, n) stacks through
the row kernels. check_fold is where the public scalar fold is checked
against the stacked one.

The flatness check, the wall probes and the wall-preservation check draw
their face points through one sampler, _face_samples, which takes every
draw of a check's samples from one rng block, in the order a
point-at-a-time loop drew them; the flatness check steps off each face
along its Face.normal. The wall probes fold their stencil points once:
the fold is the control, and H is the smoothing of its images.
check_profile takes each of its grids (h on [1, 3], h' on (0, 2] and
h^(0..4) on (0, 0.2]) as one stack of profile jets, and holds the h of
the stacked tube map, which every FD check runs, to those jets on the h'
grid. check_closure compares the group's order with the one its caller
expects; `orbitfold verify` reads that from the preset name
(groups.preset_order), in any spelling preset_group accepts. It rounds
its stacks of products and conjugated reflections once to element keys,
and measures each matrix against the one element its key finds, with
one dict lookup; if some key finds none, against every element.

What is still evaluated one point at a time: check_fold's public folds,
kept so that they are checked, and the tube radius _radius_at, taken per
sample by check_flatness, calculus._wall_reports, growth_bound_check and
validate_tubes.
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
    _axis_stencils,
    _evaluate,
    _least_resolved_slope,
    _run_stencils,
    _shared_line_stencils,
    _wall_reports,
    growth_bound_check,
    origin_line_probe,
)
from .chamber import (
    Chamber,
    _classify_rows,
    _fold_rows,
    _incident_rows,
    _split_rows,
    _square_sums,
    _stack_product,
    fold,
)
from .groups import ReflectionGroup, _matrix_keys, reflection_matrix
from .smoothing import (
    SmoothChain,
    _apply_F_rows,
    _apply_G_rows,
    _apply_H_rows,
    _apply_partial_rows,
    _first_claims,
    _g0,
    _h_derivatives,
    _h_rows,
    _radius_at,
)

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
    reflections = np.stack([reflection_matrix(m.normal) for m in group.mirrors])
    products = np.matmul(mats[:, None], mats[None])
    conjugates = mats[:, None] @ reflections[None] @ mats.transpose(0, 2, 1)[:, None]
    out.append(_result("closure under products", _distance_to_group(group, mats, products),
                       1e-9))
    out.append(_result("mirror conjugation closed",
                       _distance_to_group(group, mats, conjugates), 1e-9))
    return out


def _distance_to_group(group: ReflectionGroup, mats: np.ndarray, moved: np.ndarray) -> float:
    """Largest max-norm distance from a (k, m, n, n) stack of matrices to
    the elements mats of the group. Each matrix is looked up by its element
    key, and its distance is the one to the element found: keys round at
    1e-7 and distinct elements lie much farther apart, so that element is
    the nearest. When some key finds no element, each block moved[i] is
    compared with every element instead; max and min are exact, so both
    ways give the same bits where both apply."""
    flat = moved.reshape(-1, *mats.shape[1:])
    found = [group._index.get(key) for key in _matrix_keys(flat)]
    if None in found:
        return max(float(np.abs(block[:, None] - mats).max(axis=(2, 3)).min(axis=1).max())
                   for block in moved)
    return float(np.abs(flat - mats[found]).max())


# ---------------------------------------------------------------------------
# 2: fold correctness
# ---------------------------------------------------------------------------

def check_fold(group: ReflectionGroup, chamber: Chamber, count: int = 1000,
               seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    mats = np.stack([e.matrix for e in group.elements])
    # the draws of `count` points one at a time, as one block
    points = rng.normal(scale=2.0, size=(count, group.dimension))
    images = np.array([fold(group, chamber, p).image for p in points]).reshape(points.shape)
    # chamber inequality shortfall, and distance to the nearest true translate
    shortfall = -np.matmul(chamber.simple_normals, images[:, :, None])[:, :, 0].min(axis=1)
    orbits = np.matmul(mats[None], points[:, None, :, None])[..., 0]
    distances = np.linalg.norm(orbits - images[:, None], axis=2).min(axis=1)
    worst_violation = float(np.max(shortfall, initial=0.0))
    worst_orbit = float(np.max(distances, initial=0.0))
    # every orbit as one stack (2,400 rows on a3 and 4,800 on b3 at count
    # 100), fed ROW_CAP rows at a time; each orbit holds its p, so the
    # public fold and the stacked one are checked against each other too
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

def _flat_derivatives() -> list[float]:
    """h^(1), ..., h^(4) at t = 1e-3 by central differences of step 5e-5,
    all from one evaluation of h at the 5 points the stencils share."""
    base, steps = np.array([[1e-3]]), np.array([5e-5])
    h_rows = lambda rows: _h_derivatives(rows[:, 0], 0).T
    derivatives, = _run_stencils(h_rows, [_shared_line_stencils(base, np.eye(1),
                                                                (1, 2, 3, 4), steps)])
    return [float(d[0, 0, 0]) for d in derivatives]


def check_profile() -> list[CheckResult]:
    out = []

    ts = np.linspace(1.0, 3.0, 200)
    tail = float(np.abs(_h_derivatives(ts, 0)[0] - ts).max())
    out.append(_result("linear tail h(t)=t for t>=1", tail, 1e-15))

    out.append(_result("symmetry value h(1/2)=1/4",
                       abs(0.5 * _g0(0.5) - 0.25), 0.0))

    worst_fd = max(abs(d) for d in _flat_derivatives())
    out.append(_result("derivatives vanish at t=1e-3 (orders 1-4)",
                       worst_fd, 1e-8))

    grid = np.linspace(2.0 / 1000, 2.0, 1000)
    h, slope = _h_derivatives(grid, 1)
    out.append(_result("h' positive on (0,2]", float(slope.min()), 0.0, mode="min",
                       detail="minimum of h' over the grid; must stay above 0"))
    out.append(_result("stacked h equals its jet on (0,2]",
                       float(np.abs(_h_rows(grid) - h).max()), 0.0))

    # h^(0..4) at each grid point from one jet
    jets = _h_derivatives(np.linspace(0.2 / 200, 0.2, 200), 4)
    for order in range(5):
        min_diff = float(np.diff(jets[order]).min())
        out.append(_result(
            f"h^({order}) nondecreasing on (0,0.2]", min_diff, -1e-12,
            mode="min",
            detail="smallest consecutive difference over the grid"))
    return out


# ---------------------------------------------------------------------------
# shared sampling helpers
# ---------------------------------------------------------------------------

def _face_samples(chain: SmoothChain, faces, count: int, rng: np.random.Generator,
                  radius_range: tuple[float, float]) -> tuple[list, np.ndarray]:
    """(faces drawn, (count, n) stack of points): sample j is a random point
    in the relative interior of faces[j % len(faces)], a positive
    combination of its edge rays, normalised and scaled by a random radius
    in radius_range. A face with no inactive walls is the minimal stratum;
    its sample is the origin, and it draws nothing.

    Every sample's draws come from one rng.random block, in the order a
    point-at-a-time loop drew them (its k weights in [0.2, 1.8), then its
    radius), scaled as rng.uniform scales them, so the points and the rng
    state after them are that loop's. The samples on faces with k inactive
    walls combine their rays in one batched matmul, whose (1, k) @ (k, n)
    products round as each w @ rays does.
    """
    drawn = [faces[j % len(faces)] for j in range(count)]
    sizes = np.array([len(face.inactive) for face in drawn], dtype=int)
    ends = np.cumsum(sizes + (sizes > 0))     # one past each sample's last draw
    u = rng.random(int(ends[-1]) if count else 0)
    low, high = radius_range
    edge_rays = chain.stratification.edge_rays
    points = np.zeros((count, chain.group.dimension))
    for k in sorted(set(sizes.tolist()) - {0}):
        rows = np.flatnonzero(sizes == k)
        weights = 0.2 + (1.8 - 0.2) * u[(ends[rows] - k - 1)[:, None] + np.arange(k)]
        rays = edge_rays[[list(drawn[j].inactive) for j in rows.tolist()]]
        x = np.matmul(weights[:, None, :], rays)[:, 0]
        x = x / np.sqrt(_square_sums(x))[:, None]
        points[rows] = (low + (high - low) * u[ends[rows] - 1])[:, None] * x
    return drawn, points


def _essential_norms(chain: SmoothChain, points: np.ndarray) -> np.ndarray:
    """|p_eff| of every row of a stack, rounded as np.linalg.norm rounds one."""
    return np.sqrt(_square_sums(_split_rows(chain.group, points)[1]))


def _fold_gaussians(chain: SmoothChain, rng: np.random.Generator, scale: float,
                    rows: int) -> np.ndarray:
    """Fold images of `rows` Gaussian rows: the stream of `rows` draws of
    one point each, folded as one stack."""
    points = rng.normal(scale=scale, size=(rows, chain.group.dimension))
    return _fold_rows(chain.chamber.simple_normals, points, chain.group.order)


def _separated_pairs(chain: SmoothChain, rng: np.random.Generator,
                     pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """(firsts, seconds): `pairs` pairs of fold images of Gaussian points
    at least 1e-4 apart. The Gaussians are drawn `pairs` pairs at a time,
    pair k as rows 2k and 2k + 1, and the first pairs accepted are kept in
    draw order: the pairs that drawing one point at a time would give."""
    dim = chain.group.dimension
    firsts, seconds = np.empty((0, dim)), np.empty((0, dim))
    while len(firsts) < pairs:
        block = _fold_gaussians(chain, rng, 2.0, 2 * pairs)
        p, q = block[0::2], block[1::2]
        apart = np.flatnonzero(np.sqrt(_square_sums(p - q)) >= 1e-4)[:pairs - len(firsts)]
        firsts = np.concatenate([firsts, p[apart]])
        seconds = np.concatenate([seconds, q[apart]])
    return firsts, seconds


def _tail_points(chain: SmoothChain, rng: np.random.Generator, count: int) -> np.ndarray:
    """Fold images of up to `count` Gaussian points whose image lies
    outside every tube: essential norm >= c0 and held by no tube of levels
    1..rank-1. At most 100*count points are drawn, `count` rows at a time,
    and the first accepted are kept in draw order, as drawing one point at
    a time would keep them."""
    images = np.empty((0, chain.group.dimension))
    tries = 0
    while len(images) < count and tries < 100 * count:
        image = _fold_gaussians(chain, rng, 3.0, min(count, 100 * count - tries))
        tries += len(image)
        tail = _essential_norms(chain, image) >= chain.tubes.c0
        for i in range(1, chain.rank):
            tail[_first_claims(chain, i, image)[0]] = False
        keep = np.flatnonzero(tail)[:count - len(images)]
        images = np.concatenate([images, image[keep]])
    return images


def _regular_margin_points(chain: SmoothChain, rng: np.random.Generator,
                           count: int) -> np.ndarray:
    """`count` regular chamber points staying a definite fraction inside
    every tube they meet: tube height fraction >= 0.3 at each level they
    enter and essential norm >= 0.3*c0, so derivative information is not
    squeezed through the flat throat of the profile.

    Gaussians are drawn and tested `count` rows at a time, and the first
    rows accepted are kept in draw order: the points that drawing one at a
    time would give. 500 rejections in a row raise RuntimeError, as 500
    failed tries for one point did.
    """
    kept: list[np.ndarray] = []
    misses = 0
    while len(kept) < count:
        q = _fold_gaussians(chain, rng, 1.5, count)
        ok = ~_incident_rows(chain.group, q).any(axis=1)
        ok &= _essential_norms(chain, q) >= 0.3 * chain.tubes.c0
        for i in range(1, chain.rank):
            held, _, t, radius, _ = _first_claims(chain, i, q)
            ok[held] &= t >= 0.3 * radius
        for row, good in zip(q, ok.tolist()):
            if good:
                kept.append(row)
                misses = 0
                if len(kept) == count:
                    break
            else:
                misses += 1
                if misses == 500:
                    raise RuntimeError("could not sample a regular point with tube margins")
    return np.reshape(kept, (count, chain.group.dimension))


# ---------------------------------------------------------------------------
# 4: flatness at strata
# ---------------------------------------------------------------------------

def check_flatness(chain: SmoothChain, points_per_level: int = 50,
                   seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for level in range(1, chain.rank):
        drawn, xs = _face_samples(chain, chain.stratification.faces_at_level(level),
                                  points_per_level, rng, (1.0, 2.0))
        bases, normals, steps = [], [], []
        for face, x, x_level in zip(drawn, xs, _classify_rows(chain.group, xs)[1].tolist()):
            if x_level != level:
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
            bases.append(x + (1e-3 * radius) * face.normal)
            normals.append(face.normal)
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
        # orders 1-3 at every sample of the level share one evaluation of
        # the 5 points each sample's stencils share
        derivatives, = _run_stencils(fn, [_shared_line_stencils(
            np.array(bases), np.array(normals)[:, None], (1, 2, 3), np.asarray(steps))])
        worst = max(worst, float(np.sqrt(_square_sums(np.stack(derivatives))).max()))
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
    and a kept one is probed across that wall. Every probe's stencil points
    are folded in one stack, which is the control, and the smoothing maps
    those images in one more, which gives H."""
    rng = np.random.default_rng(seed)
    drawn, xs = _face_samples(chain, chain.stratification.faces_at_level(chain.rank - 1),
                              points, rng, (1.0, 2.0))
    incident, _ = _classify_rows(chain.group, xs)
    samples = [(x, face, int(walls.argmax()))
               for x, face, walls in zip(xs, drawn, incident) if walls.sum() == 1]
    return _wall_reports(chain, lambda rows: _apply_partial_rows(chain, 0, rows), samples,
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
    firsts, seconds = _separated_pairs(chain, np.random.default_rng(seed), pairs)
    images = _apply_G_rows(chain, np.concatenate([firsts, seconds]))
    worst = np.sqrt(_square_sums(images[:pairs] - images[pairs:])).min(initial=math.inf)
    return _result("separated points stay separated", worst, 1e-8,
                   mode="min", detail=f"min image separation over {pairs} pairs")


def check_regular_jacobian(chain: SmoothChain, points: int = 1000,
                           seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    samples = _regular_margin_points(chain, rng, points)
    steps = 1e-5 * (1.0 + np.sqrt(_square_sums(samples)))
    (jacobians,), = _run_stencils(lambda rows: _apply_G_rows(chain, rows),
                                  [_axis_stencils(samples, steps, (1,))])
    worst = float(np.abs(np.linalg.det(jacobians)).min(initial=math.inf))
    return _result("Jacobian determinant bounded away from zero",
                   worst, 1e-6, mode="min",
                   detail=f"min |det DG| over {points} margin-sampled points")


def check_wall_preservation(chain: SmoothChain, points: int = 1000,
                            seed: int = 0) -> CheckResult:
    group, strat = chain.group, chain.stratification
    singular_faces = [f for f in strat.faces if 0 < f.level < chain.rank] or \
                     [f for f in strat.faces if f.level == 0]
    drawn, xs = _face_samples(chain, singular_faces, points, np.random.default_rng(seed),
                              (0.5, 2.0))
    # a face with no inactive wall samples only the origin; its rows are dropped
    xs = xs[[bool(face.inactive) for face in drawn]]
    walls = _incident_rows(group, xs)
    images = _apply_G_rows(chain, xs)
    scale = 1.0 + np.sqrt(_square_sums(images))
    deviation = np.abs(_stack_product(images, group.mirror_normals)) / scale[:, None]
    worst = float(deviation[walls].max(initial=0.0))
    if (_incident_rows(group, images) != walls).any():
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
    images = _tail_points(chain, np.random.default_rng(seed), count)
    # H is the smoothing of the fold images _tail_points already took
    worst = float(np.abs(_apply_partial_rows(chain, 0, images) - images).max(initial=0.0))
    return _result("identity outside all tubes", worst, 1e-12,
                   detail=f"max |H - fold| over {len(images)} tail points")


# ---------------------------------------------------------------------------
# assembly for one configured group
# ---------------------------------------------------------------------------

def _reported(check, *args) -> list[CheckResult]:
    """check(*args) as a list; a ValueError from it (an image outside the
    closed chamber, say) is one FAIL line "<check> raised", value nan."""
    try:
        out = check(*args)
    except ValueError as exc:
        return [CheckResult(f"{check.__name__} raised", math.nan, math.nan, False, str(exc))]
    return out if isinstance(out, list) else [out]


def run_verification(chain: SmoothChain, count: int = 200, seed: int = 0,
                     expected_order: int | None = None) -> list[CheckResult]:
    """Group-scoped verification: every check that applies to a single
    chain, at a sample size suitable for a command-line run; a check that
    raises a ValueError gives one FAIL line (_reported)."""
    runs = [(check_closure, chain.group, expected_order),
            (check_fold, chain.group, chain.chamber, count, seed), (check_profile,),
            (check_flatness, chain, min(count, 50), seed),
            (check_wall_smoothness, chain, min(count, 20), seed),
            (check_origin_smoothness, chain, min(count, 20), seed),
            (check_injectivity, chain, count, seed), (check_regular_jacobian, chain, count, seed),
            (check_wall_preservation, chain, count, seed), (check_growth, chain),
            (check_identity_tail, chain, count, seed)]
    return [result for check, *args in runs for result in _reported(check, *args)]
