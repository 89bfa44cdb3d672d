"""Machine-speed yardstick for the timed metrics.

The benchmark shares its machine, and the speed one process gets drifts by
tens of percent, switching within fractions of a second.  ``loop_ms`` times
a fixed pure-Python loop that does not touch prefdist.  ``Probe`` samples it
before, during (on SIGPROF, every ``PROBE_EVERY_S`` of CPU time) and after
an op, and scales the op's wall time, minus the time spent in probes, by
``REFERENCE_MS`` over the mean sample: the result reads as milliseconds on a
machine where the loop takes ``REFERENCE_MS``.  The raw wall times are kept
in the run record.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_MS = 0.5
PROBE_EVERY_S = 0.02
_LOOPS = 3_000
_EDGE_LOOPS = 10  # loops per sample at the edges of an op


def loop_ms() -> float:
    """Wall milliseconds of a fixed loop of float, modulo and dict work."""
    start = time.perf_counter_ns()
    table: dict[int, float] = {}
    total = 0.0
    for i in range(_LOOPS):
        total += (i % 7) * 0.5
        table[i & 1023] = total
    return (time.perf_counter_ns() - start) / 1e6


def yardstick_ms() -> float:
    """Mean of several loops: a steadier sample where there is time for one."""
    return statistics.fmean(loop_ms() for _ in range(_EDGE_LOOPS))


def scale(wall_ms: float, samples: list[float]) -> float:
    """``wall_ms`` at the reference speed, given loop samples taken over it."""
    return wall_ms * REFERENCE_MS / statistics.fmean(samples)


class Probe:
    """Speed samples around and inside consecutive ops of one process.

    ``start`` and ``stop`` bracket an op; the sample after one op is the
    sample before the next.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_ns = 0
        self._edge = yardstick_ms()
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self.samples.append(loop_ms())
        self.spent_ns += time.perf_counter_ns() - start

    def start(self) -> None:
        self.samples = [self._edge]
        self.spent_ns = 0
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._edge = yardstick_ms()
        self.samples.append(self._edge)
