"""orbitfold benchmark: one workload, one seed, one JSON line of results.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-a3 --seed 1 --seconds 20 --trace 0

Workloads, metrics and units are declared in BENCHMARK.json next to this
directory. With --trace 0 the last line of output carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run.
Lines before it are a readable report. Inputs and outputs go to a temporary
directory inside the checkout, removed on exit. The package is imported
from src/ of the checkout; without it the run exits 2 and prints no result.
"""

import os

# one thread for every BLAS the package may load; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "orbitfold" / "__init__.py").is_file():
        sys.stderr.write(f"no package source at {SRC / 'orbitfold'}; nothing to measure\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        res = WORKLOADS[args.workload](args.seed, args.seconds, Path(tmp),
                                       bool(args.trace), SRC)

    for name, value, unit in res.report:
        print(f"{args.workload:10s} {name:24s} {value:14.6g} {unit}")
    for note in res.notes:
        print(f"{args.workload:10s} note: {note}")
    metrics = {}
    for m in declared:
        value = res.metrics[m["name"]]
        if not math.isfinite(value):
            raise ValueError(f"metric {m['name']} is not finite: {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:10s} {m['name']:40s} {value:14.6g} {m['unit']}")
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
