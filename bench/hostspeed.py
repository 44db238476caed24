"""The host's speed, sampled while the ops run.

The benchmark's host is shared.  Its speed flips between a fast and a slow
mode (about 1.7x apart) several times a second, and the share of slow time
drifts over minutes while the program does not change.  The kernel below is
a fixed piece of scalar Python float math, like the inner loops of
pupilcover, that does not touch pupilcover at all.  ``Sampler`` times it
every ``INTERVAL_S`` seconds from a SIGALRM handler, so the samples fall
inside the ops, spread evenly over time.  An op's time multiplied by its
samples' mean of ``REFERENCE_S / kernel time`` is the op's time at the
reference speed (bench/README.md): a change of the program moves it, and a
change of the host's speed mostly does not.

    python3 bench/hostspeed.py      # prints the kernel's times, to recalibrate
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

#: Kernel time on the reference host in its fast mode, in seconds.
REFERENCE_S = 0.0020

#: Seconds between two samples.
INTERVAL_S = 0.05

_STEPS = 1400


def kernel() -> float:
    """Newton steps on the distance to three circles, as in a triple solve."""
    cx = (0.0, 1.0, 0.3)
    cy = (0.0, 0.2, 0.9)
    cr = (0.1, 0.15, 0.05)
    x, y, acc = 0.4, 0.4, 0.0
    for i in range(_STEPS):
        d = [math.hypot(x - cx[k], y - cy[k]) - cr[k] for k in range(3)]
        gx = (x - cx[0]) / (d[0] + cr[0]) - (x - cx[1]) / (d[1] + cr[1])
        gy = (y - cy[0]) / (d[0] + cr[0]) - (y - cy[2]) / (d[2] + cr[2])
        f1, f2 = d[0] - d[1], d[0] - d[2]
        det = gx * gy + 1e-3
        x -= 0.1 * f1 / det
        y -= 0.1 * f2 / det
        if not (-2.0 < x < 2.0 and -2.0 < y < 2.0):
            x, y = 0.4 + 1e-4 * (i % 7), 0.4 - 1e-4 * (i % 5)
        acc += math.atan2(f2, f1 + 1.0)
    return acc


class Sampler:
    """Times the kernel every INTERVAL_S seconds while active.  ``speeds``
    holds REFERENCE_S / kernel time per sample, and ``spent`` the seconds
    spent sampling, which the caller takes off the ops' times.  With
    ``periodic`` false it takes only the first sample."""

    def __init__(self, periodic: bool = True):
        self.periodic = periodic
        self.speeds: list[float] = []
        self.spent = 0.0
        self._previous = None

    def sample(self, *_):
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.speeds.append(REFERENCE_S / (t1 - t0))
        self.spent += perf_counter() - t0

    def __enter__(self):
        self.sample()
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, first: int) -> float:
        """Mean speed over the samples from index ``first - 1`` on: the one
        taken last before an op started and those taken during it."""
        window = self.speeds[max(first - 1, 0):]
        return math.fsum(window) / len(window)


if __name__ == "__main__":
    import statistics

    times = []
    for _ in range(500):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    q = statistics.quantiles(times, n=10)
    print(f"kernel over {len(times)} calls: min {min(times):.6f} s, p10 {q[0]:.6f} s, "
          f"median {statistics.median(times):.6f} s, p90 {q[-1]:.6f} s")
