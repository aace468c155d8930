"""Report how far apart the numbers are in two command-line snapshots.

    python3 tools/ulp_diff.py SNAP_A SNAP_B

SNAP_A and SNAP_B are directories written by tools/cli_snapshot.py. Each
line of a file is cut into numeric tokens and the text between them. For
every file that differs, one line gives the number of numeric tokens that
differ, the worst difference in ulps (units in the last place of a double)
and the worst difference relative to max(1, |x|), x the value in SNAP_A.
The exit status is 0 when only numeric tokens differ, and 1 when a file is
missing on one side, line counts differ or any non-numeric text differs.
There is no tolerance: the script only reports.
"""

from __future__ import annotations

import argparse
import math
import re
import struct
import sys
from pathlib import Path

NUMBER = re.compile(
    r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
    r"|(?<![A-Za-z_])[-+]?(?:inf|nan|Infinity|NaN)(?![A-Za-z_]))")


def _ordinal(x: float) -> int:
    """Integer whose order matches the order of the doubles, so that the
    distance of two ordinals counts the doubles between them."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def ulps(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    return float(abs(_ordinal(a) - _ordinal(b)))


def compare(text_a: str, text_b: str) -> tuple[int, float, float, str | None]:
    """(tokens differing, worst ulps, worst relative difference, first
    structural difference or None) of two snapshot files."""
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    if len(lines_a) != len(lines_b):
        return 0, 0.0, 0.0, f"{len(lines_a)} lines against {len(lines_b)}"
    count, worst_ulps, worst_rel = 0, 0.0, 0.0
    for k, (la, lb) in enumerate(zip(lines_a, lines_b), 1):
        if la == lb:
            continue
        # re.split with one group alternates text, number, text, ...
        parts_a, parts_b = NUMBER.split(la), NUMBER.split(lb)
        if len(parts_a) != len(parts_b) or parts_a[0::2] != parts_b[0::2]:
            return count, worst_ulps, worst_rel, f"line {k}: text differs"
        for sa, sb in zip(parts_a[1::2], parts_b[1::2]):
            if sa == sb:
                continue
            a, b = float(sa), float(sb)
            count += 1
            worst_ulps = max(worst_ulps, ulps(a, b))
            rel = abs(a - b) / max(1.0, abs(a))
            worst_rel = max(worst_rel, rel if not math.isnan(rel) else math.inf)
    return count, worst_ulps, worst_rel, None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("snap_a", type=Path)
    parser.add_argument("snap_b", type=Path)
    args = parser.parse_args(argv)
    files_a = {p.relative_to(args.snap_a) for p in args.snap_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(args.snap_b) for p in args.snap_b.rglob("*") if p.is_file()}
    status = 0
    for rel in sorted(files_a ^ files_b):
        side = args.snap_a if rel in files_a else args.snap_b
        print(f"{rel}: only in {side}")
        status = 1
    differing = 0
    for rel in sorted(files_a & files_b):
        text_a = (args.snap_a / rel).read_text()
        text_b = (args.snap_b / rel).read_text()
        if text_a == text_b:
            continue
        differing += 1
        count, worst_ulps, worst_rel, structural = compare(text_a, text_b)
        line = (f"{rel}: {count} numeric tokens differ, worst {worst_ulps:.0f} ulp, "
                f"{worst_rel:.3g} relative to max(1, |x|)")
        if structural is not None:
            line += f"; not numeric only ({structural})"
            status = 1
        print(line)
    print(f"{differing} of {len(files_a & files_b)} shared files differ")
    return status


if __name__ == "__main__":
    sys.exit(main())
