"""Machine-speed calibration for timings taken on a shared, noisy machine.

On a virtual machine shared with other tenants' jobs, the speed at which
this process executes Python bytecode drifts by up to a factor of two within
a few seconds.  A fixed exact-arithmetic kernel (Fraction products and sums,
tuple keys, dict updates: the operations the calculator spends its time in) is
timed every INTERVAL_S from a SIGALRM handler, which runs between bytecodes
of the main thread, also in the middle of a long problem.  An interval's
calibrated duration is its wall time, less the time spent in the handler,
times REFERENCE_KERNEL_S / (mean kernel time of the samples taken during the
interval, or of the nearest sample before and after it when none was).  A
calibrated second is the time the work takes at the reference speed, the
speed at which the kernel takes REFERENCE_KERNEL_S; the raw wall-clock
figures are printed beside the calibrated ones.

The kernel never touches jkcalc, so a change to the program moves the
calibrated times and leaves the scale alone.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# kernel duration at the reference speed (a typical phase of a shared 2-vCPU
# Xeon virtual machine at 2.0 GHz running CPython 3.11); it only fixes the
# unit of calibrated seconds
REFERENCE_KERNEL_S = 0.0004
INTERVAL_S = 0.1
_KERNEL_REPEATS = 3


def kernel() -> Fraction:
    """Fixed exact-arithmetic work, independent of the program under test."""
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 60):
        f = Fraction(i, i + 7)
        acc += f * f - Fraction(1, i)
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i
    return acc


def sample() -> float:
    """Median duration of a few kernel runs, in seconds."""
    runs = []
    for _ in range(_KERNEL_REPEATS):
        t0 = time.perf_counter()
        kernel()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


class SpeedSampler:
    """Kernel samples taken on a timer while the benchmark runs.

    Use as a context manager; `mark()` before and after a piece of work and
    `measure(start, end)` afterwards gives its (wall, calibrated) seconds.
    """

    def __init__(self):
        self.durations: list[float] = []
        self.spent = 0.0            # seconds spent inside the handler
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.durations.append(sample())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._handler(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._handler(None, None)     # the sample after the last interval

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.spent, len(self.durations)

    def measure(self, start, end) -> tuple[float, float]:
        """(wall seconds without sampling, calibrated seconds) between two marks;
        call after the sampler has stopped, so the next sample exists."""
        wall = (end[0] - start[0]) - (end[1] - start[1])
        inside = self.durations[start[2]:end[2]]
        if not inside:
            inside = self.durations[max(start[2] - 1, 0):end[2] + 1]
        return wall, wall * REFERENCE_KERNEL_S / (sum(inside) / len(inside))
