"""Measure how fast this machine runs right now, alongside the program.

On a shared machine the same computation swings by up to 2x for tens of
seconds, in CPU time as well as wall time.  ``SpeedProbe`` runs a small
fixed kernel from a SIGALRM handler every ``INTERVAL_S`` of wall time, also
in the middle of a long command, and records how long the kernel took.  A
command's CPU time, minus the handler's own time, scaled by
``REFERENCE_S / (mean kernel time around the command)``, is its time at one
fixed reference speed.

The kernel is a sparse polynomial product with Fraction coefficients
(tuple-keyed dicts, small big-int gcds), the same kind of work as the
package's exact layers, so it slows down with them.  It shares no code with
``fricke``, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import random
import signal
from fractions import Fraction
from time import perf_counter, process_time

# kernel CPU time at the reference speed (the fast state of the 2-CPU
# machine the benchmark was written on)
REFERENCE_S = 0.005
INTERVAL_S = 0.1
# samples this far before and after a command also count for it, so a
# command shorter than the interval still gets several
MARGIN_S = 0.5

_rng = random.Random(20071021)


def _sparse(terms: int) -> dict:
    return {tuple(_rng.randint(0, 4) for _ in range(5)):
            Fraction(_rng.randint(-99, 99), _rng.randint(1, 30)) for _ in range(terms)}


_LEFT, _RIGHT = _sparse(70), _sparse(14)


def kernel_seconds() -> float:
    """CPU seconds of one sparse product."""
    start = process_time()
    out: dict = {}
    for ea, ca in _LEFT.items():
        for eb, cb in _RIGHT.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return process_time() - start


class SpeedProbe:
    """Samples the kernel on a wall-clock timer while active (a context manager).

    ``spent`` is the CPU time the handler used, for subtracting from a
    command's CPU time; ``busy`` holds the handler's wall intervals, for
    subtracting from spans.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.kernels: list[float] = []
        self.busy: list[tuple[float, float]] = []
        self.spent = 0.0
        self._previous = None

    def sample(self, *_) -> None:
        start = perf_counter()
        took = kernel_seconds()
        self.starts.append(start)
        self.kernels.append(took)
        self.busy.append((start, perf_counter()))
        self.spent += took

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def kernel_around(self, start: float, end: float) -> float:
        """Mean kernel time of the samples taken from start - MARGIN_S to end + MARGIN_S."""
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        window = self.kernels[lo:hi] or self.kernels
        return sum(window) / len(window)

    def busy_within(self, start: float, end: float) -> float:
        """Wall seconds the handler ran inside [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        total = 0.0
        for begin, finish in self.busy[max(lo - 1, 0):]:
            if begin >= end:
                break
            total += max(0.0, min(finish, end) - max(begin, start))
        return total
