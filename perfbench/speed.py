"""CPU-speed sampling, so that timings do not move with the load on the host.

On a shared host the same code runs up to twice as slow in some minutes as in
others, with the process's CPU time slowing down just as much: other tenants'
work on the same physical cores lowers the rate at which this process's
instructions retire.  A wall time alone then measures the neighbours.

While a `SpeedProbe` is entered, a SIGALRM handler runs every `PERIOD_S` and
times `probe_loop`, a fixed pure-Python loop.  The block's normalised time is
its wall time, less the handler's own time, times the mean over the samples
of `NOMINAL_S / sample`: the time the block would have taken on a CPU that
runs the loop in `NOMINAL_S`.  Because the samples are spread evenly over the
block, a slow stretch of the host slows the loop and the block together, and
the ratio cancels it.  Python runs the handler between bytecodes, so a sample
that falls due inside one long C call is taken when that call returns.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.002
# The loop's time on an uncontended core of the machine the benchmark was
# built on (Intel Xeon, 2.1 GHz, Python 3.11); it only sets the scale.
NOMINAL_S = 10e-6


def probe_loop():
    total = 0
    for i in range(250):
        total += i * i
    return total


class SpeedProbe:
    """Context manager: wall time and CPU-speed samples of the enclosed block."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.wall = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self):
        """Mean of NOMINAL_S / sample; None for a block too short to be sampled."""
        if not self.samples:
            return None
        return statistics.fmean(NOMINAL_S / s for s in self.samples)

    def normalised(self, fallback_speed=1.0):
        """The block's time at the nominal CPU speed."""
        speed = self.speed()
        return (self.wall - self.spent) * (fallback_speed if speed is None else speed)


def normalised_total(probes):
    """Sum of the blocks' normalised times.

    A block too short to be sampled takes the mean speed of the others.
    """
    speeds = [NOMINAL_S / s for p in probes for s in p.samples]
    fallback = statistics.fmean(speeds) if speeds else 1.0
    return sum(p.normalised(fallback) for p in probes)
