"""Host timings normalized to a reference host.

The hosts this benchmark runs on change speed by tens of percent over a
few seconds (frequency scaling, neighbours on shared cores), which
swamps the ~10% changes the benchmark has to see.  Every timing is
therefore bracketed by two samples of a fixed interpreter loop, and
also reported as the time the same work would take on a reference host
whose loop runs at :data:`REFERENCE_SPEED`: ``seconds * speed /
REFERENCE_SPEED``.  The loop and the simulator are both interpreter
bound, so the ratio cancels most of the drift.
"""

from __future__ import annotations

import time

#: Iterations of one calibration sample (a few milliseconds).
CALIBRATION_ITERATIONS = 50_000

#: Calibration speed, in iterations per second, of the reference host.
REFERENCE_SPEED = 8.0e6


def calibration_speed() -> float:
    """Iterations per second of the fixed calibration loop, right now."""
    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        table[i & 255] = i
        total += len(table) ^ i
    return CALIBRATION_ITERATIONS / (time.perf_counter() - start)


class Timed:
    """Context manager: wall seconds, and seconds on the reference host.

    >>> with Timed() as timing:
    ...     pass
    >>> timing.seconds >= 0 and timing.normalized >= 0
    True
    """

    def __enter__(self) -> "Timed":
        self._speed = calibration_speed()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start
        speed = (self._speed + calibration_speed()) / 2
        self.normalized = self.seconds * speed / REFERENCE_SPEED
