"""Machine speed, sampled while the jobs run, to scale their times.

On a shared machine the speed of one core drifts by 15-30% within a
minute.  The drift comes from contention for the core, not for CPU time
(process time drifts just the same), and a multi-second job sees several
swings.  ``SpeedProbe`` therefore times a short fixed loop from a SIGALRM
handler every ``PERIOD_S`` of wall time, during the jobs themselves.  A
job's time is its wall time minus the handler's, scaled by
``REF_S / (mean loop time while the job ran)``: seconds at the speed of
the machine the benchmark was defined on.  A job too short to contain a
sample is scaled by the two samples before it.  On the same runs, the mean
tracked multi-second jobs better than the median, and scaling each sweep
job on its own better than scaling a whole pass.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import List

PERIOD_S = 0.04
# mean loop time on the machine the benchmark was defined on
# (2 vCPU x86_64 Linux, CPython 3.11.7)
REF_S = 0.00105

# The loop is a frozen copy of the library's innermost pattern: the
# bilinear extension of a sparse composition table, tuple keys, Fraction
# coefficients.  Of the loops tried it tracked the jobs best: over 200 s,
# the spread of block medians fell from 18-22% raw to 3-4% scaled, where a
# plain dict-of-tuples loop left 7-8%.  It never imports the library, so
# no change there can move it.
_TABLE = {((i, "a"), (j, "b")): {(i + j, "c"): Fraction(1 + i * j % 3, 1 + (i + j) % 2)}
          for i in range(12) for j in range(12)}
_LEFT = {(i, "a"): Fraction(i + 1, 2) for i in range(12)}
_RIGHT = {(j, "b"): Fraction(1, j + 1) for j in range(12)}


class SpeedProbe:
    """Context manager; inside it, ``samples`` grows by one loop time
    every ``PERIOD_S`` seconds and ``paused`` sums the handler's time."""

    def __init__(self):
        self.samples: List[float] = []
        self.paused = 0.0
        self._old_handler = None

    @staticmethod
    def _loop() -> dict:
        # the collector is held off so that the loop frees all it made and
        # leaves the job's garbage collection where it was
        enabled = gc.isenabled()
        gc.disable()
        out: dict = {}
        for gk, gv in _LEFT.items():
            for fk, fv in _RIGHT.items():
                entry = _TABLE.get((gk, fk))
                if not entry:
                    continue
                c = gv * fv
                for k2, c2 in entry.items():
                    t = out.get(k2, 0) + c * c2
                    if t == 0:
                        out.pop(k2, None)
                    else:
                        out[k2] = t
        if enabled:
            gc.enable()
        return out

    def _sample(self, _signum=None, _frame=None) -> None:
        t0 = time.perf_counter()
        self._loop()
        self.samples.append(time.perf_counter() - t0)
        self.paused += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._sample()
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def mark(self):
        """A point in time, for ``since``."""
        return time.perf_counter(), self.paused, len(self.samples)

    def since(self, mark):
        """(raw, scaled) seconds of work since ``mark``, handler excluded;
        scaled by the mean sample since ``mark``, or of the last two."""
        t0, paused0, first = mark
        raw = time.perf_counter() - t0 - (self.paused - paused0)
        during = self.samples[first:] or self.samples[-2:]
        return raw, raw * REF_S / statistics.fmean(during)

    def scale(self, first: int = 0) -> float:
        """REF_S over the mean sample from index ``first`` on."""
        return REF_S / statistics.fmean(self.samples[first:])
