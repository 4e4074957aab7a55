"""Host speed, measured by a fixed reference loop sampled while the work runs.

The machines the benchmark runs on are shared, and their speed drifts: a
fixed batch of grs operations, timed back to back for 90 s on a 2-vCPU VM,
took from 0.90 s to 1.48 s.  The reference loop below exercises what grs
spends its time on (dicts keyed by exponent tuples, big-integer products
and quotients, ``Fraction`` sums) and does not touch grs.  While work runs,
a SIGALRM timer runs it every INTERVAL_S of wall time, with the garbage
collector off so that the heap grs leaves behind does not change its cost.
The mean speed of those samples is the host's mean speed over the work, and
a time measured meanwhile (less the time the samples took) is reported as
the time the same work takes on a host where the loop takes REFERENCE_S.
Work that grs adds or removes scales these times one to one; only the
host's drift divides out.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

# the loop's time at the host speed the benchmark reports in (about the
# fast end of a 2.1 GHz vCPU running Python 3.11)
REFERENCE_S = 0.005
INTERVAL_S = 0.1


def reference_loop() -> int:
    terms: dict = {}
    acc = Fraction(0)
    for i in range(1, 7000):
        key = (i % 37, i % 11, i % 5)
        terms[key] = terms.get(key, 0) + (i * 1234567891234567) ** 3 // (i + 7)
        if i % 20 == 0:
            acc += Fraction(i, i + 3)
    return len(terms) + acc.denominator % 7


class HostClock:
    """Reference-loop samples, and the wall time they took (``spent``)."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_loop()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.spent += time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    @contextlib.contextmanager
    def running(self):
        """Sample every INTERVAL_S of wall time while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, since: int = 0) -> float:
        """Mean host speed of the samples since the mark ``since``, relative to
        the reference speed: a measured time times this is a reference time."""
        return REFERENCE_S * statistics.fmean(1 / c for c in self.samples[since:])
