"""The host's speed, sampled while a pass runs, so pass times stay comparable.

On a shared host the speed of one core drifts by tens of percent within
seconds and between minutes (see README.md), so a raw pass time measures the
host as much as the program.  :class:`Sampler` interrupts the pass with a
timer signal every ``PERIOD_S`` seconds and times a fixed reference kernel
there.  A pass time divided by the kernel's duration at that moment, averaged
over the pass, no longer depends on how fast the host was.

The kernel is the benchmark's own code, never the program's, so a change to
the program cannot move it.  It is the kind of work that bounds the
workloads: interpreted Python and numpy calls on tiny arrays, dispatch-bound
as the solver's right-hand side and the Euler step's per-step overhead are.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1  # one sample every 100 ms of wall time
_X0 = np.array([0.3, 0.7])
_M = np.array([[0.9, 0.1], [0.2, 0.8]])


def _step(x, k: float):
    return _M @ x * k + np.exp(-x)


def reference_kernel() -> float:
    """A fixed mix of interpreter and tiny-array numpy work, about 1 ms."""
    s = 0.0
    for i in range(3000):
        s += (i * 0.5) % 7.0
    x = _X0
    for _ in range(150):
        x = np.minimum(_step(x, 0.5), 1.0)
    return s + float(x[0])


class Sampler:
    """Times the reference kernel on every timer tick while the block runs.

    ``spent`` is the time the samples took; the caller subtracts it from the
    pass time.  Samples run between two Python bytecodes of the main thread,
    so a long C call only delays one.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalized(self, elapsed: float) -> float:
        """``elapsed`` less the sampling, in durations of the reference kernel.

        The samples are evenly spaced in time, so the mean of their inverse
        is the host's mean speed over the block.
        """
        if not self.samples:
            raise RuntimeError("no host-speed sample was taken; the pass was too short")
        return (elapsed - self.spent) * statistics.fmean(1.0 / s for s in self.samples)

    def kernel_ms(self) -> float:
        """Median duration of the reference kernel over the block."""
        return statistics.median(self.samples) * 1e3
