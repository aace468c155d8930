"""Self-test of the benchmark's traced run. Takes one to two minutes.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--seed N]

1. Two traced runs of each workload with the same seed must report the
   same per-layer counts, the same verdict and the same attempted/failed.
2. Counts that a counting pass established for the current package:
   a generic b3 apply_H makes 1 fold_image, 3 apply_F, 15 dist_to_face and
   6 softmin calls; one a3 verify at count 100 and sampling seed 0 makes
   16,500 apply_H, 24,700 fold_image, 600 fd_hessian and 715 fd_jacobian
   calls, and 277,072 dist_to_face calls outside validate_tubes.
Exits 1 and names each mismatch when one is found.
"""

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", ".map_evals", ".per_apply_H", ".steps_mean",
                  ".claimed_ratio", ".spans")
GENERIC_B3 = {"chamber.fold_image": 1, "smoothing.apply_F": 3,
              "chamber.dist_to_face": 15, "smoothing.softmin": 6}
VERIFY_A3 = {"smoothing.apply_H": 16500, "chamber.fold_image": 24700,
             "chamber.dist_to_face": 277072, "calculus.fd_hessian": 600,
             "calculus.fd_jacobian": 715}


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(COUNT_SUFFIXES)}


def _trace(work):
    from tracer import Recorder, Spans

    rec = Recorder()
    rec.install()
    try:
        work(rec)
    finally:
        rec.uninstall()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        rec.write(f"{tmp}/spans.npz")
        return Spans(f"{tmp}/spans.npz")


def generic_b3_counts(problems: list) -> None:
    """Per-point span counts of apply_H on the generic b3 points."""
    import orbitfold as of

    import inputs

    chain = of.build_chain(of.preset_group("b3"))
    pts, kinds = inputs.b3_points(0, 200)

    def work(rec):
        for k, p in enumerate(pts[kinds == 0]):
            rec.op = k
            of.apply_H(chain, p)

    spans = _trace(work)
    n_ops = int(spans.op.max()) + 1
    per_op = [np.bincount(spans.op[spans.prefix(name)], minlength=n_ops)
              for name in GENERIC_B3]
    modal, seen = Counter(zip(*(map(int, c) for c in per_op))).most_common(1)[0]
    want = tuple(GENERIC_B3.values())
    print(f"generic b3 apply_H: {dict(zip(GENERIC_B3, modal))} on {seen}/{n_ops} points")
    if modal != want:
        problems.append(f"generic b3 apply_H counts {modal}, expected {want}")


def verify_a3_counts(problems: list) -> None:
    """Span counts of one a3 verify at count 100, sampling seed 0."""
    from orbitfold import cli

    import inputs

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        config = Path(tmp) / "a3.ini"
        config.write_text(inputs.a3_config(0, 100))
        with contextlib.redirect_stdout(io.StringIO()):
            spans = _trace(lambda rec: cli.main(
                ["verify", "--config", str(config), "--out", f"{tmp}/out.json"]))
    got = {name: spans.calls(name) for name in VERIFY_A3}
    dist = spans.ids("chamber.dist_to_face")
    got["chamber.dist_to_face"] = int(np.count_nonzero(
        dist & ~spans.under(spans.ids("smoothing.validate_tubes"))))
    print("verify-a3:", got)
    for name, want in VERIFY_A3.items():
        if got[name] != want:
            problems.append(f"verify-a3 {name} = {got[name]}, expected {want}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    problems: list[str] = []
    generic_b3_counts(problems)
    verify_a3_counts(problems)
    for workload in ("map-b3", "polar-a2", "verify-a3"):
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        for key in ("correct", "attempted", "failed"):
            if first[key] != second[key]:
                problems.append(f"{workload} {key}: {first[key]} then {second[key]}")
        a, b = counts(first), counts(second)
        diff = sorted(k for k in a if a[k] != b[k])
        print(f"{workload}: {len(a)} counts, {len(diff)} differ between two runs")
        problems += [f"{workload} {k}: {a[k]} then {b[k]}" for k in diff]
    for p in problems:
        print("MISMATCH", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
