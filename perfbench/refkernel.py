"""Reference kernel: how fast this machine runs right now.

The kernel mixes what nash spends its time on: a Python-level loop over
columns of a fixed 500 x 1000 matrix (the engine's coordinate pass) and a
``logsumexp`` reduction over a 1000 x 20 matrix (the EM and posterior steps
of the mixture priors).  Each run takes the next 125 columns, so successive
runs stream through the whole matrix as a coordinate pass does, and a slower
memory system slows the kernel as it slows the program.  It deliberately
does not import nash.

On a shared host the speed of a core changes from one second to the next,
so one kernel timing before and one after a several-second operation says
little about the speed during it.  ``Sampler`` therefore runs the kernel
every 0.1 s *inside* the operation, from a timer signal handled in the same
thread, and subtracts the kernel's wall time from the operation's.  A sample
is the kernel's thread CPU time, so waiting for the interpreter lock while
the program's own threads run does not count as a slow machine.  An interval
is then reported as ``t * R_NOMINAL_S / mean(samples)``: seconds on a machine
that runs the kernel in ``R_NOMINAL_S``.  Bursts of kernel runs before and
after each interval warm the kernel up and serve a run that samples nothing
inside (the traced run).
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.special import logsumexp

# Mean kernel time inside operations on the 2-core Xeon (2.1 GHz, OpenBLAS
# single-threaded) the benchmark was written on; see README.md.  A constant,
# so scaled figures compare across commits.
R_NOMINAL_S = 0.00140

PERIOD_S = 0.1
BURST = 10  # kernel runs right before and right after each interval
_WINDOW = 125


class ReferenceKernel:
    """Fixed inputs plus a timer for one run of the kernel."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240516)
        self._a = np.asfortranarray(rng.standard_normal((500, 1000)))
        self._l = rng.standard_normal((1000, 20))
        self._offset = 0

    def run(self) -> float:
        a = self._a
        lo = self._offset
        self._offset = (lo + _WINDOW) % a.shape[1]
        r = a[:, lo].copy()
        for j in range(lo, lo + _WINDOW):
            x = a[:, j]
            r = r - x * (float(x @ r) / (100.0 * a.shape[0]))
        return float(logsumexp(self._l + r[:20], axis=1).sum())

    def time(self) -> tuple[float, float]:
        """Wall seconds and thread CPU seconds of one kernel run."""
        wall, cpu = time.perf_counter(), time.thread_time()
        self.run()
        return time.perf_counter() - wall, time.thread_time() - cpu


class Interval:
    """One measured interval: wall time without the kernel's, and the kernel samples."""

    def __init__(self) -> None:
        self.inside: list[float] = []  # thread CPU seconds of each kernel run inside
        self.around: list[float] = []  # ... and of the bursts before and after
        self.kernel_wall = 0.0  # wall seconds the kernel took inside
        self.wall = 0.0

    @property
    def seconds(self) -> float:
        """Raw seconds of the measured work alone."""
        return self.wall - self.kernel_wall

    @classmethod
    def from_child(cls, wall: float, report: dict) -> "Interval":
        """The interval of a child process that sampled itself (see child.py)."""
        interval = cls()
        interval.inside = report["inside"]
        interval.around = report["around"]
        interval.wall = wall
        interval.kernel_wall = report["kernel_wall"]
        return interval


class Sampler:
    """Times intervals while sampling the reference kernel inside and around them."""

    def __init__(self, kernel: ReferenceKernel, period: float | None = PERIOD_S):
        self.kernel = kernel
        self.period = period
        self._current: Interval | None = None

    def _sample(self, *_signal_args) -> None:
        interval = self._current
        if interval is not None:
            wall, cpu = self.kernel.time()
            interval.inside.append(cpu)
            interval.kernel_wall += wall

    def _burst(self) -> list[float]:
        return [self.kernel.time()[1] for _ in range(BURST)]

    def measure(self, work):
        """Run ``work()``; return its result and the ``Interval`` it took."""
        interval = Interval()
        interval.around += self._burst()
        if self.period is not None:
            previous = signal.signal(signal.SIGALRM, self._sample)
            self._current = interval
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        started = time.perf_counter()
        try:
            result = work()
        finally:
            if self.period is not None:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            interval.wall = time.perf_counter() - started
            if self.period is not None:
                self._current = None
                signal.signal(signal.SIGALRM, previous)
            interval.around += self._burst()
        return result, interval
