"""The three workloads. Each returns a `Result`; run.py prints it.

A workload runs in two modes. Untraced, it times its operation in a loop
for the given number of seconds and reports the end-to-end metrics. The
loop runs whole passes over the inputs (a verify is one pass) under a
`hostspeed.Sampler`, and each figure is the median over passes of that
pass's figure read at nominal host speed: wall time less the time spent in
the reference kernel, times the pass's scale factor. Traced,
it does a fixed amount of work once untraced and once under the span
recorder, so per-layer counts repeat exactly for a seed and the difference
of the two wall times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

import hostspeed
import inputs
from tracer import Recorder, Spans, layer_metrics

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
VERIFY_COUNT = 100
VERIFY_MIN_REPS = 3
MAP_POINTS = 2000
MIN_PASSES = 3
MAP_CHECK_STEP = 4
MAP_REL_TOL = 1e-9
# Known defect: above this scale apply_H raises (softmin's d**-k underflows)
# or, once |p|**2 overflows, folds nothing and breaks invariance. Failures
# there are counted but do not make the run incorrect; below it they do.
KNOWN_OVERFLOW = 1e80
TAIL_REL_TOL = 1e-12
POLAR_BASES = 200
POLAR_CONJUGATES = 8
POLAR_CHECK_BASES = 64
POLAR_TOL = 1e-9
TRACE_POINTS = 400
TRACE_BASES = 40
# errors the package raises for an input it cannot map; a failed operation
RAISED = (ValueError, RuntimeError, FloatingPointError)
CHECK_NAMES = ["check_closure", "check_fold", "check_profile", "check_flatness",
               "check_wall_smoothness", "check_origin_smoothness",
               "check_injectivity", "check_regular_jacobian",
               "check_wall_preservation", "check_growth", "check_identity_tail"]


@dataclasses.dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict = dataclasses.field(default_factory=dict)
    report: list = dataclasses.field(default_factory=list)   # (name, value, unit)
    notes: list = dataclasses.field(default_factory=list)

    def fail(self, note: str, wrong: bool = False) -> None:
        """Count one failed operation; `wrong` makes the run incorrect."""
        self.failed += 1
        if wrong:
            self.correct = False
        if len(self.notes) < 20:
            self.notes.append(note)


def setup_seconds(src: Path, preset: str) -> float:
    """Median, over fresh interpreters, of import + chain build + tube check,
    each read at nominal host speed."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), preset],
                             env=env, capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tail(samples_s: list[float], q: float) -> float:
    """Percentile in microseconds, or NaN without 10 samples past it."""
    if len(samples_s) * (1.0 - q) < 10:
        return math.nan
    return float(np.quantile(np.asarray(samples_s), q)) * 1e6


@dataclasses.dataclass
class Passes:
    """Per-call latencies (s) of successful calls, grouped by pass, with
    each pass's wall time (s) and host scale factor."""
    lat: list = dataclasses.field(default_factory=list)
    wall_s: list = dataclasses.field(default_factory=list)
    scale: list = dataclasses.field(default_factory=list)
    errors: int = 0

    def ops_per_s(self, scaled: bool = True) -> float:
        """Median over passes of successful calls per second."""
        return statistics.median(
            len(l) / (w * (k if scaled else 1.0))
            for l, w, k in zip(self.lat, self.wall_s, self.scale))

    def p50_s(self, scaled: bool = True) -> float:
        """Median over passes of the pass's median call latency."""
        return statistics.median(
            float(np.median(l)) * (k if scaled else 1.0)
            for l, k in zip(self.lat, self.scale))

    def pooled_scaled(self) -> list[float]:
        return [t * k for l, k in zip(self.lat, self.scale) for t in l]


def _timed_passes(items, call, seconds: float) -> Passes:
    """Whole passes over `items` until `seconds` of wall time have gone by,
    at least MIN_PASSES of them, under a host speed sampler."""
    gc.collect()
    out = Passes()
    clock = time.perf_counter
    stop = clock() + seconds
    with hostspeed.Sampler() as host:
        while len(out.lat) < MIN_PASSES or clock() < stop:
            lat = []
            start, spent = clock(), host.spent
            for item in items:
                t0, s0 = clock(), host.spent
                try:
                    call(item)
                except RAISED:
                    out.errors += 1
                else:
                    lat.append(clock() - t0 - (host.spent - s0))
            end = clock()
            out.wall_s.append(end - start - (host.spent - spent))
            out.scale.append(host.scale(start, end))
            out.lat.append(lat)
    return out


def _pass_report(plural: str, single: str, p: Passes) -> list:
    """Report lines of a timed loop: scaled figures, then raw ones."""
    return [(f"{plural}_per_s", p.ops_per_s(), "1/s"),
            (f"{single}_p50_us", p.p50_s() * 1e6, "us"),
            (f"{single}_p99_us", _tail(p.pooled_scaled(), 0.99), "us"),
            (f"{plural}_per_s_raw", p.ops_per_s(scaled=False), "1/s"),
            (f"{single}_p50_us_raw", p.p50_s(scaled=False) * 1e6, "us"),
            (f"{single}_host_scale", statistics.median(p.scale), "ratio"),
            (f"{single}_samples", sum(map(len, p.lat)), "count"),
            (f"{single}_passes", len(p.lat), "count")]


def _warm(items, call) -> None:
    for item in items:
        try:
            call(item)
        except RAISED:
            pass


def _traced(work, tmp: Path, res: Result) -> None:
    """Run `work(recorder)` once untraced and once traced; `work` tags each
    operation by setting `recorder.op`."""
    gc.collect()
    t0 = time.perf_counter()
    work(types.SimpleNamespace(op=-1))
    plain = time.perf_counter() - t0
    rec = Recorder()
    rec.install()
    try:
        gc.collect()
        t0 = time.perf_counter()
        work(rec)
        traced = time.perf_counter() - t0
    finally:
        rec.uninstall()
    path = tmp / "spans.npz"
    rec.write(str(path))
    res.metrics.update(layer_metrics(Spans(str(path)), CHECK_NAMES))
    res.metrics["trace.overhead_s"] = traced - plain
    res.metrics["trace.overhead_ratio"] = (traced - plain) / plain


def _end_to_end(src: Path, preset: str, res: Result, ops_per_s: float,
                op_s: float) -> dict:
    return {"setup_s": setup_seconds(src, preset), "peak_rss_mb": peak_rss_mb(),
            "ok_ratio": 1.0 - res.failed / res.attempted,
            "ops_per_s": ops_per_s, "op_p50_ms": op_s * 1e3}


# ---------------------------------------------------------------------------
# verify-a3
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class VerifyRun:
    wall_s: float           # less the time spent in the reference kernel
    scale: float            # host scale factor over the run, 1 untimed
    text: str | None        # the --out JSON, None when the command failed
    summary: str = ""       # last line printed, or why the command failed
    rc: int = -1


def _verify_once(cli, config: Path, out: Path, host=None) -> VerifyRun:
    """One `orbitfold verify`, timed against `host`, a hostspeed.Sampler."""
    buf = io.StringIO()
    spent = host.spent if host else 0.0
    w0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["verify", "--config", str(config), "--out", str(out)])
    except Exception as exc:    # any crash of the command fails the whole op
        rc, crash = -1, f"verify raised {type(exc).__name__}: {exc}"
    else:
        crash = "" if rc in (0, 1) else f"verify exited {rc}"
    w1 = time.perf_counter()
    run = VerifyRun(w1 - w0 - ((host.spent - spent) if host else 0.0),
                    host.scale(w0, w1) if host else 1.0, None, crash, rc)
    if not crash:
        run.text = out.read_text()
        run.summary = buf.getvalue().strip().splitlines()[-1]
    return run


def _score_verify(runs: list[VerifyRun], res: Result) -> None:
    """Each check of each run is one operation; a failed command fails as
    many operations as a completed run has checks."""
    done = [r for r in runs if r.text is not None]
    n_checks = len(json.loads(done[0].text)["checks"]) if done else 1
    for run in runs:
        if run.text is None:
            res.attempted += n_checks
            res.failed += n_checks
            res.notes.append(run.summary)
            continue
        checks = json.loads(run.text)["checks"]
        res.attempted += len(checks)
        for c in checks:
            if not c["passed"]:
                res.fail(f"FAIL {c['name']}")
        passed = sum(c["passed"] for c in checks)
        if (run.summary != f"{passed}/{len(checks)} checks passed"
                or (run.rc == 0) != (passed == len(checks))):
            res.correct = False
            res.notes.append(f"text summary {run.summary!r} disagrees with the JSON")
    if len(done) != len(runs) or len({r.text for r in runs}) != 1:
        res.correct = False
        res.notes.append("verify --out differs between repeats of one config")


def verify_a3(seed: int, seconds: float, tmp: Path, trace: bool, src: Path) -> Result:
    import orbitfold as of
    from orbitfold import cli

    res = Result()
    config = tmp / "a3.ini"
    config.write_text(inputs.a3_config(seed, VERIFY_COUNT))
    # warm-up: imports and first calls; a whole verify would cost ~10 s
    chain = of.build_chain(of.preset_group("a3"))
    of.validate_tubes(chain)
    _warm(np.random.default_rng([seed, 4]).normal(size=(50, 3)),
          lambda p: of.apply_H(chain, p))

    if trace:
        runs = []

        def work(rec):
            rec.op = 0
            runs.append(_verify_once(cli, config, tmp / f"v{len(runs)}.json"))

        _traced(work, tmp, res)
        _score_verify(runs, res)
        return res

    runs = []
    stop = time.perf_counter() + seconds
    with hostspeed.Sampler() as host:
        # start a verify only if a typical one still ends before the deadline
        while len(runs) < VERIFY_MIN_REPS or time.perf_counter() + statistics.median(
                r.wall_s for r in runs) <= stop:
            runs.append(_verify_once(cli, config, tmp / "verify.json", host))
    _score_verify(runs, res)
    verify_s = statistics.median(r.wall_s * r.scale for r in runs)
    res.metrics = _end_to_end(src, "a3", res, 1.0 / verify_s, verify_s)
    res.report = [("verify_s", verify_s, "s"),
                  ("verify_s_raw", statistics.median(r.wall_s for r in runs), "s"),
                  ("verify_host_scale", statistics.median(r.scale for r in runs), "ratio"),
                  ("verify_runs", len(runs), "count")]
    return res


# ---------------------------------------------------------------------------
# map-b3
# ---------------------------------------------------------------------------

def _check_b3(chain, pts, idx, res: Result) -> None:
    """H finite, H(g.p) = H(p), and H = fold image on the identity tail."""
    from orbitfold import apply_H, essential_split, fold
    from orbitfold.smoothing import tube_coords

    rng = np.random.default_rng(0)
    group = inputs.signed_permutations()
    for i in idx:
        p = pts[i]
        res.attempted += 1
        g = group[rng.integers(len(group))]
        scale = max(1.0, float(np.max(np.abs(p))))
        wrong = scale <= KNOWN_OVERFLOW
        try:
            h = apply_H(chain, p)
            hg = apply_H(chain, g @ p)
        except RAISED as exc:
            res.fail(f"point {i} max|p_i|={scale:.3g}: {type(exc).__name__}: {exc}", wrong)
            continue
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(hg))):
            res.fail(f"point {i} max|p_i|={scale:.3g}: non-finite H", wrong)
            continue
        if float(np.max(np.abs(h - hg))) > MAP_REL_TOL * scale:
            res.fail(f"point {i} max|p_i|={scale:.3g}: H(g.p) != H(p) by "
                     f"{np.max(np.abs(h - hg)):.3g}", wrong)
            continue
        image = fold(chain.group, chain.chamber, p).image
        _, eff = essential_split(chain.group, image)
        if float(np.linalg.norm(eff)) < chain.tubes.c0 or any(
                tube_coords(chain, lv, image) is not None for lv in range(1, chain.rank)):
            continue
        if float(np.max(np.abs(h - image))) > TAIL_REL_TOL * scale:
            res.fail(f"point {i} max|p_i|={scale:.3g}: H != fold on the identity tail", wrong)


def map_b3(seed: int, seconds: float, tmp: Path, trace: bool, src: Path) -> Result:
    import orbitfold as of

    res = Result()
    chain = of.build_chain(of.preset_group("b3"))
    of.validate_tubes(chain)
    pts, kinds = inputs.b3_points(seed, MAP_POINTS)
    order = np.random.default_rng([seed, 1]).permutation(len(pts))
    scattered = [pts[i] for i in order]
    group, chamber = chain.group, chain.chamber
    # calls go through the package namespace, where the recorder wraps them
    h_call = lambda p: of.apply_H(chain, p)
    f_call = lambda p: of.fold(group, chamber, p)
    _warm(scattered[:200], h_call)
    _warm(scattered[:200], f_call)
    _check_b3(chain, pts, inputs.check_subsample(kinds, MAP_CHECK_STEP), res)

    if trace:
        few = scattered[:TRACE_POINTS]

        def work(rec):
            of.validate_tubes(of.build_chain(of.preset_group("b3")))
            for k, p in enumerate(few):
                rec.op = k
                _warm([p], h_call)
                f_call(p)

        _traced(work, tmp, res)
        return res

    hp = _timed_passes(scattered, h_call, 0.75 * seconds)
    fp = _timed_passes(scattered, f_call, 0.25 * seconds)
    res.metrics = _end_to_end(src, "b3", res, hp.ops_per_s(), hp.p50_s())
    res.report = (_pass_report("points", "point", hp)
                  + [("point_raised", hp.errors, "count")]
                  + _pass_report("fold_points", "fold", fp))
    return res


# ---------------------------------------------------------------------------
# polar-a2
# ---------------------------------------------------------------------------

def _check_polar(model, chain, mats, res: Result) -> None:
    from orbitfold import model_H

    per = POLAR_CONJUGATES + 1
    for b in range(POLAR_CHECK_BASES):
        group = mats[b * per:(b + 1) * per]
        try:
            base = model_H(model, chain, group[0])
        except RAISED as exc:
            res.attempted += POLAR_CONJUGATES
            res.failed += POLAR_CONJUGATES
            res.notes.append(f"base {b}: {type(exc).__name__}: {exc}")
            continue
        for k, m in enumerate(group[1:]):
            res.attempted += 1
            try:
                moved = model_H(model, chain, m)
            except RAISED as exc:
                res.fail(f"base {b} conjugate {k}: {type(exc).__name__}: {exc}")
                continue
            dev = float(np.max(np.abs(moved - base)))
            if not dev <= POLAR_TOL:
                res.fail(f"base {b} conjugate {k}: invariance residual {dev:.3g}", wrong=True)


def polar_a2(seed: int, seconds: float, tmp: Path, trace: bool, src: Path) -> Result:
    import orbitfold as of

    res = Result()
    model = of.sym_eig_model()
    chain = of.build_chain(model.weyl)
    of.validate_tubes(chain)
    mats = inputs.sym3_matrices(seed, POLAR_BASES, POLAR_CONJUGATES)
    call = lambda m: of.model_H(model, chain, m)
    _warm(mats[:100], call)
    _check_polar(model, chain, mats, res)

    if trace:
        few = mats[:TRACE_BASES * (POLAR_CONJUGATES + 1)]

        def work(rec):
            of.validate_tubes(of.build_chain(of.sym_eig_model().weyl))
            for k, m in enumerate(few):
                rec.op = k
                call(m)

        _traced(work, tmp, res)
        return res

    mp = _timed_passes(mats, call, seconds)
    res.metrics = _end_to_end(src, "a2", res, mp.ops_per_s(), mp.p50_s())
    res.report = _pass_report("matrices", "matrix", mp)
    return res


WORKLOADS = {"verify-a3": verify_a3, "map-b3": map_b3, "polar-a2": polar_a2}
