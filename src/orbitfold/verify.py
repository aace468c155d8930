"""Invariant checks behind the `verify` command and the acceptance suite.

Each check returns CheckResult records: an invariant name, the measured
value, the threshold it is held to, and whether it passed. Checks never
raise on a failed invariant — they report — so a verification run always
produces the complete list; a ValueError that a broken map raises inside
a check becomes that check's FAIL line in run_verification.

Each check makes one stacked evaluation: its samples are drawn first, in
the order a point-at-a-time loop would draw them, and then folded,
classified, tested against the tubes and mapped as (N, n) stacks through
the row kernels. Every stack a check maps goes through calculus._evaluate,
which caps the rows of one call. check_fold is where the scalar fold
loop, which fold and apply_H run, is checked against the stacked one; it
takes the images alone, not fold's element, which nothing in verify
reads. The Gaussian samplers of check_identity_tail and
check_regular_jacobian draw and test 2*count rows at a time: every preset
accepts 0.64 to 0.96 of its draws (4,000 draws, seed 1), so one block
mostly serves, and a second block's fold and tube tests, a fixed cost
paid for a handful of points, are rare.

The flatness check, the wall probes, the wall-preservation check and the
tube check draw their face points through one sampler, _face_samples,
which takes every draw of a check's samples from one rng block, in the
order a point-at-a-time loop drew them; the flatness check steps off each
face along its Face.normal, and the tube check along random normals, to
heights set by the stacked _radius_rows. The wall probes fold their
stencil points once: the fold is the control, and H is the smoothing of
its images. The wall and origin probes' reports come from
calculus._probe_reports, which checks each probe's offsets once and fits
every decay slope of a check, jumps and controls, in one stack;
check_growth's exponents come from the same fit.
check_profile takes each of its grids (h on [1, 3], h' on (0, 2] and
h^(0..4) on (0, 0.2]) as one stack of profile jets, and holds the h of
the stacked tube map, which every FD check runs, to those jets on the h'
grid. check_closure compares the group's order with the one its caller
expects; `orbitfold verify` reads that from the preset name
(groups.preset_order), in any spelling preset_group accepts. It
certifies the element list S from the generators (Humphreys, Reflection
Groups and Coxeter Groups, 1.5-1.7): the word () is the identity; each
generator s_i times each element lies in S, so S holds every word in
the generators; and the element with word (i, *w) is s_i times the
element with word w, so S holds nothing else. "closure under products"
reads the worst distance of the |G|*rank products s_i*e to S, at least
1.0 when a word fails; "mirror conjugation closed" reads that of the
|G|*|mirrors| conjugated reflections. ReflectionGroup._nearest finds
the element of each by its key, and scans every element only for a
matrix whose key misses.

What is still evaluated one point at a time: check_fold's scalar fold
images, kept so that they are checked, and the tube radius _radius_at,
taken per sample by check_flatness, calculus._wall_reports and
growth_bound_check. The stacked _radius_rows of the
tube kernels would move their values: on 1,600 face points of
_face_samples (800 per level, seed 0, |x| in [1, 2]) it differs from
_radius_at in the last bit at 334 points on a3 and 211 on b3, up to
1.4e-15 relative, and on i2-5, a2 and b2 at none. Two roundings differ:
the lower-face coordinates, one matrix-vector product per point against
one gemm over the stack, and softmin's powers, Python's ** per point
against np.power, which rounds x**4 differently at 10,646 of 200,000
uniform x in (0.01, 1).
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
    _largest_control_slope,
    _least_resolved_slope,
    _run_stencils,
    _shared_line_stencils,
    _wall_reports,
    growth_bound_check,
    origin_line_probe,
)
from .chamber import (
    ON_WALL_TOL,
    _SPLIT_ROUNDING,
    Chamber,
    _classify_rows,
    _fold_rows,
    _incident_rows,
    _orthogonal_directions,
    _reflect_into_chamber,
    _split_rows,
    _square_sums,
    _stack_product,
)
from .groups import ReflectionGroup, reflection_matrix
from .smoothing import (
    SmoothChain,
    TubeConfigError,
    _apply_F_rows,
    _apply_G_rows,
    _apply_H_rows,
    _apply_partial_rows,
    _first_claims,
    _g0,
    _h_derivatives,
    _h_rows,
    _radius_at,
    _radius_rows,
    _tube_claims,
    minimal_wall_angle,
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
    n, rank = group.dimension, len(group.generators)
    mats = np.stack([e.matrix for e in group.elements])
    gens = np.stack([reflection_matrix(g.normal) for g in group.generators])
    reflections = np.stack([reflection_matrix(m.normal) for m in group.mirrors])
    # s_i e for every element e and generator s_i, in row e*rank + i
    found, gaps = group._nearest(np.matmul(gens[None], mats[:, None]).reshape(-1, n, n))
    # the word () is I, and the word (i, *w) is s_i times the word w
    words = {e.word: k for k, e in enumerate(group.elements)}
    spelled = () in words and np.abs(mats[words[()]] - np.eye(n)).max() <= 1e-9 and all(
        e.word[0] in range(rank) and e.word[1:] in words
        and found[words[e.word[1:]] * rank + e.word[0]] == k
        for k, e in enumerate(group.elements) if e.word)
    worst = float(gaps.max()) if spelled else max(float(gaps.max()), 1.0)
    conjugates = mats[:, None] @ reflections[None] @ mats.transpose(0, 2, 1)[:, None]
    out.append(_result("closure under products", worst, 1e-9))
    out.append(_result("mirror conjugation closed",
                       float(group._nearest(conjugates.reshape(-1, n, n))[1].max()), 1e-9))
    return out


# ---------------------------------------------------------------------------
# 2: fold correctness
# ---------------------------------------------------------------------------

def check_fold(group: ReflectionGroup, chamber: Chamber, count: int = 1000,
               seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    mats = np.stack([e.matrix for e in group.elements])
    # the draws of `count` points one at a time, as one block
    points = rng.normal(scale=2.0, size=(count, group.dimension))
    # the images of the scalar fold loop that fold and apply_H run; fold's
    # element is not built, as nothing here reads it
    images = np.array([_reflect_into_chamber(chamber, p)[0] for p in points]).reshape(points.shape)
    # chamber inequality shortfall, and distance to the nearest true translate
    shortfall = -np.matmul(chamber.simple_normals, images[:, :, None])[:, :, 0].min(axis=1)
    orbits = np.matmul(mats[None], points[:, None, :, None])[..., 0]
    distances = np.linalg.norm(orbits - images[:, None], axis=2).min(axis=1)
    worst_violation = float(np.max(shortfall, initial=0.0))
    worst_orbit = float(np.max(distances, initial=0.0))
    # every orbit as one stack (2,400 rows on a3 and 4,800 on b3 at count
    # 100), fed ROW_CAP rows at a time; each orbit holds its p, so the
    # scalar fold and the stacked one are checked against each other too
    folded = _evaluate(lambda rows: _fold_rows(chamber, rows),
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
    return _fold_rows(chain.chamber, points)


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
    1..rank-1. At most 100*count points are drawn, 2*count rows at a time
    (the module docstring says why), and the first accepted are kept in
    draw order, as drawing one point at a time would keep them. The rows
    of a block after the last one kept are drawn and dropped, so the rng
    may end further on than that loop left it; no caller reads it after."""
    images = np.empty((0, chain.group.dimension))
    tries = 0
    while len(images) < count and tries < 100 * count:
        image = _fold_gaussians(chain, rng, 3.0, min(2 * count, 100 * count - tries))
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

    Gaussians are drawn and tested 2*count rows at a time (the module
    docstring says why), and the first rows accepted are kept in draw
    order: the points that drawing one at a time would give. 500 rejections
    in a row, counted in draw order, raise RuntimeError, as 500 failed tries
    for one point did.
    """
    kept: list[np.ndarray] = []
    misses = 0
    while len(kept) < count:
        q = _fold_gaussians(chain, rng, 1.5, 2 * count)
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
    incident = _incident_rows(chain.group, xs)
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
    # only reports whose control resolves count, and none resolving fails
    n_unres = sum(not r.control_resolved(1) for r in reports)
    control_slope = _largest_control_slope(reports, 1)
    control_jump = min((r.control_jumps[1][0] for r in reports),
                       default=math.inf)
    out = _decay_results(reports, "wall jump decay slope",
                         "probes already below resolution")
    out.append(_result("fold control slope stays flat", control_slope, 0.1,
                       detail=f"{n_unres} control reports below resolution" if n_unres else ""))
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
    images = _evaluate(lambda rows: _apply_G_rows(chain, rows),
                       np.concatenate([firsts, seconds]))
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
    images = _evaluate(lambda rows: _apply_G_rows(chain, rows), xs)
    scale = 1.0 + np.sqrt(_square_sums(images))
    deviation = np.abs(_stack_product(images, group.mirror_normals)) / scale[:, None]
    worst = float(deviation[walls].max(initial=0.0))
    # judged on the essential part alone, with x's split rounding: classify's
    # floor ON_WALL_TOL*1 puts images squeezed to 1e-13 on every wall
    img_eff = _split_rows(group, images)[1]
    slack = (ON_WALL_TOL * np.sqrt(_square_sums(img_eff))
             + _SPLIT_ROUNDING * np.sqrt(_square_sums(xs)))
    on_walls = np.abs(_stack_product(img_eff, group.mirror_normals)) <= slack[:, None]
    if (on_walls != walls).any():
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
# 8: tube geometry
# ---------------------------------------------------------------------------

def _slope_margins(chain: SmoothChain) -> tuple[float | None, tuple[int, int] | None,
                                                 dict[int, float]]:
    """(theta_min, the mirror pair at it, {i: sin(theta_min)/4 - b_i} over
    the tube levels). With fewer than two mirrors there is no angle, and the
    rank is at most 1, so there are no tube levels either."""
    if len(chain.group.mirrors) < 2:
        return None, None, {}
    theta, pair = minimal_wall_angle(chain.group)
    bound = math.sin(theta) / 4.0
    return theta, pair, {i: bound - b_i for i, b_i in chain.tubes.b.items()}


def _tube_lines(chain: SmoothChain, seed: int) -> tuple[list[CheckResult], int]:
    """check_tubes' lines, and the number of tube points they read."""
    theta, pair, margins = _slope_margins(chain)
    excess, slope_at = -math.inf, "no tube levels"
    if margins:
        level = min(margins, key=margins.get)     # the first with the least margin
        excess = -margins[level]
        slope_at = (f"slope b_{level} = {chain.tubes.b[level]:g}"
                    f" {'exceeds' if excess > 1e-12 else 'is within'} sin(theta_min)/4 ="
                    f" {math.sin(theta) / 4.0:.6g} set by mirror pair {pair}")
    rng = np.random.default_rng(seed)
    heights = np.array([0.25, 0.6, 0.95])
    dim = chain.group.dimension
    overlaps, overlap_at, drift, drift_at, checked = 0, "", 0.0, "", 0
    for level in range(1, chain.rank):
        faces = chain.stratification.faces_at_level(level)
        drawn, xs = _face_samples(chain, faces, 3 * len(faces), rng, (0.3, 3.0))
        dirs = [_orthogonal_directions(face.basis, rng, 4) for face in drawn]
        # sample s gives x_s + (height*l_i(x_s))*v for each direction v, then
        # each height
        points = np.concatenate([(x + (heights * r)[:, None] * d[:, None, :]).reshape(-1, dim)
                                 for x, r, d in zip(xs, _radius_rows(chain, level, xs), dirs)])
        sample = np.repeat(np.arange(len(xs)), [len(heights) * len(d) for d in dirs])
        # every point of the level against every level face, in one pass;
        # the pairs come in sampling order
        rows, pair_faces, claims, _, _, feet = _tube_claims(chain, level, points)
        home = sample[rows] % len(faces)         # the face the pair's point was drawn on
        other = np.flatnonzero(claims & (pair_faces != home))
        if other.size and not overlap_at:
            k = other[0]
            overlap_at = (f"tubes overlap at level {level}: faces {faces[home[k]].active}"
                          f" and {faces[pair_faces[k]].active} both contain {points[rows[k]]}")
        overlaps += len(set(rows[other].tolist()))
        # a point its own tube does not hold fell past a face edge; harmless
        own = np.flatnonzero(claims & (pair_faces == home))
        bases = xs[sample[rows[own]]]
        moved = np.sqrt(_square_sums(feet[own] - bases)) / (1.0 + np.sqrt(_square_sums(bases)))
        if moved.size and (not drift_at or moved.max() > drift):
            j = int(moved.argmax())
            k, drift = own[j], float(moved[j])
            drift_at = (f"largest foot drift at level {level}: tube point {points[rows[k]]}"
                        f" of face {faces[home[k]].active}")
        checked += len(points)
    return [_result("tube slope within sin(theta_min)/4", excess, 1e-12, detail=slope_at),
            _result("same-level tubes disjoint", overlaps, 0.0, detail=overlap_at or (
                f"none of {checked} tube points held by another face's tube")),
            _result("tube feet unique", drift, 1e-9,
                    detail=drift_at or "no tube point held by its own tube")], checked


def check_tubes(chain: SmoothChain, seed: int = 0) -> list[CheckResult]:
    """Tube geometry as three lines: the slope bound b_i <= sin(theta_min)/4,
    same-level tubes disjoint, and each tube point's foot the face point x
    it was built over. The points are 36 per face of levels 1..rank-1: 3
    samples x of _face_samples at radii in [0.3, 3), each moved along 4
    random normals v to x + (height*l_i(x))*v, heights 0.25, 0.6 and 0.95.
    Each level's points meet its tubes in one _tube_claims pass."""
    return _tube_lines(chain, seed)[0]


def validate_tubes(chain: SmoothChain) -> list[CheckResult]:
    """check_tubes at seed 0: its lines when all pass, or TubeConfigError
    with the detail of the first line that fails."""
    lines, _ = _tube_lines(chain, 0)
    for line in lines:
        if not line.passed:
            raise TubeConfigError(line.detail)
    return lines


# ---------------------------------------------------------------------------
# 9: identity tail
# ---------------------------------------------------------------------------

def check_identity_tail(chain: SmoothChain, count: int = 1000,
                        seed: int = 0) -> CheckResult:
    images = _tail_points(chain, np.random.default_rng(seed), count)
    # H is the smoothing of the fold images _tail_points already took
    smoothed = _evaluate(lambda rows: _apply_partial_rows(chain, 0, rows), images)
    worst = float(np.abs(smoothed - images).max(initial=0.0))
    return _result("identity outside all tubes", worst, 1e-12,
                   detail=f"max |H - fold| over {len(images)} tail points")


# ---------------------------------------------------------------------------
# assembly for one configured group
# ---------------------------------------------------------------------------

def _reported(check, *args) -> list[CheckResult]:
    """check(*args) as a list. A ValueError from it (an image outside the
    closed chamber, say), a RuntimeError (a sampler that finds no point)
    or an ArithmeticError (a stencil step whose power overflows) is one
    FAIL line "<check> raised", value nan; its detail is the ValueError's
    message, or the other error's type and message."""
    try:
        out = check(*args)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        detail = str(exc) if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
        return [CheckResult(f"{check.__name__} raised", math.nan, math.nan, False, detail)]
    return out if isinstance(out, list) else [out]


def run_verification(chain: SmoothChain, count: int = 200, seed: int = 0,
                     expected_order: int | None = None) -> list[CheckResult]:
    """Group-scoped verification: every check that applies to a single
    chain, at a sample size suitable for a command-line run, the tube
    geometry first; a check that raises gives one FAIL line (_reported)."""
    runs = [(check_tubes, chain, seed), (check_closure, chain.group, expected_order),
            (check_fold, chain.group, chain.chamber, count, seed), (check_profile,),
            (check_flatness, chain, min(count, 50), seed),
            (check_wall_smoothness, chain, min(count, 20), seed),
            (check_origin_smoothness, chain, min(count, 20), seed),
            (check_injectivity, chain, count, seed), (check_regular_jacobian, chain, count, seed),
            (check_wall_preservation, chain, count, seed), (check_growth, chain),
            (check_identity_tail, chain, count, seed)]
    return [result for check, *args in runs for result in _reported(check, *args)]
