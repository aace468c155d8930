"""Host speed reference, for timing on a shared machine.

On a shared host the CPU speed a process gets drifts, by up to 1.7x within
minutes, as other tenants come and go; a workload timed before and after
such a change reads differently with no change to the program. To take
that out, a fixed reference kernel that does not touch the package is
timed every PERIOD_S seconds from a timer signal while a workload is
measured. A measured interval, less the time spent in the reference
kernel, is multiplied by REF_NOMINAL_S / (median reference time inside the
interval): it then reads in seconds of a host at nominal speed. A change
to the package cannot move the reference, so it moves the scaled figure
as it moves the raw one.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# a typical reference time on a 2-vCPU Intel Xeon at 2.1 GHz, between the
# 1.2 ms it takes when the host is quiet and the 2.1 ms when it is busy
REF_NOMINAL_S = 1.5e-3
_ROUNDS = 400
_M = np.array([[0.8, -0.3, 0.1], [0.2, 0.9, -0.4], [-0.1, 0.5, 0.7]])


def reference() -> float:
    """Fixed work shaped like the package's own: interpreter-bound Python
    around small numpy calls (3x3 products, norms, scalar conversions)."""
    v = np.ones(3)
    acc = 0.0
    for i in range(_ROUNDS):
        w = _M @ v
        n = float(np.sqrt(w @ w))
        v = w / n
        acc += min(n, abs(float(v[0])), 1.0)
        acc += len({"i": i, "acc": acc})
    return acc


class Sampler:
    """Times `reference()` every PERIOD_S seconds while in its `with` block.

    `spent` is the total time spent in the reference kernel, to subtract
    from any interval measured meanwhile; `scale(t0, t1)` is the factor
    that reads a raw interval [t0, t1] at nominal host speed.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.ref: list[float] = []
        self.spent = 0.0
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.ref.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._tick(None, None)      # so that `scale` always has a sample
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, t0: float, t1: float) -> float:
        """REF_NOMINAL_S over the median reference time in [t0, t1], or
        over the nearest sample when none fell inside."""
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_right(self.at, t1)
        window = self.ref[i:j] or [self.ref[min(i, len(self.ref) - 1)]]
        return REF_NOMINAL_S / statistics.median(window)


def scale_now(repeats: int = 21) -> float:
    """The scale factor from `repeats` reference runs made now."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return REF_NOMINAL_S / statistics.median(times)
