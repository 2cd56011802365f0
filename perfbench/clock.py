"""Wall times scaled to a reference CPU speed.

On a shared host the speed of a pure-Python loop drifts by up to 1.6x over
tens of seconds, and every CPU-bound timing of the benchmark drifts with it
(measured: a fixed interpreter loop and a decider pass rise and fall
together).  Medians within a run remove short bursts but not a slow phase
that covers the whole run.  So each timed item (a decider pass, a session,
a set-up process) is bracketed by a fixed reference loop, and its time is
multiplied by REFERENCE_S over the mean reference time at its two ends:
seconds at the reference speed.  The loop does not touch the package, so a
change to the package moves the scaled times in the same proportion as the
unscaled ones, which run.py prints beside them.
"""

from __future__ import annotations

import statistics
import time

# the reference loop's median time on an uncontended 2-vCPU Xeon container
# with CPython 3.11, so scaled times read as seconds on that machine
REFERENCE_S = 0.02
_LOOP = 200_000


def reference_time() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


class SpeedScale:
    """Scale factors for timed items, from reference timings at both ends of each."""

    def __init__(self):
        self._last = self._reference()

    @staticmethod
    def _reference() -> float:
        return statistics.median(reference_time() for _ in range(3))

    def factor(self) -> float:
        """Multiply the time of the item run since the previous call by this."""
        now = self._reference()
        out = REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        return out
