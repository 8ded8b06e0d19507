"""Machine-speed calibration for the end-to-end times.

The CPU this benchmark runs on is shared, and its speed swings by a third
within seconds, which swamps the run-to-run differences of the program.  The
end-to-end times are therefore reported at nominal speed: a wall time is
multiplied by ``NOMINAL_S`` over the mean time of a small fixed kernel
sampled while, or right around, that work ran.  The kernel does the kind of
work the engine does -- ``Fraction`` arithmetic and dict updates -- and uses
nothing from ``loopmoments``, so a change to the program never changes it.
"""

import signal
import statistics
import time
from fractions import Fraction

# The kernel's median time on a 2-vCPU KVM guest (Intel Xeon, AVX-512) with
# CPython 3.11; it only sets the scale of the reported times.
NOMINAL_S = 0.004
INTERVAL_S = 0.1


def kernel_seconds() -> float:
    start = time.perf_counter()
    acc = Fraction(0)
    table: dict[tuple[int, int], Fraction] = {}
    for k in range(1, 400):
        acc += Fraction(k % 97 + 1, k % 89 + 2)
        key = (k % 50, k % 7)
        table[key] = table.get(key, Fraction(0)) + acc
    return time.perf_counter() - start


class Sampler:
    """While active, times the kernel every ``INTERVAL_S`` from a SIGALRM
    handler, so the samples are spread evenly over the work being measured;
    ``spent`` is the time the samples took out of that work."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # work shorter than one interval
            self.samples.append(kernel_seconds())

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - start

    def scale(self) -> float:
        """Factor that brings a wall time measured meanwhile to nominal speed."""
        return NOMINAL_S / statistics.mean(self.samples)
