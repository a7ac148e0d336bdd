"""Statistics primitives used by every model component.

The paper reports rates (K references/second), ratios (miss rate, bus
load) and categorical breakdowns (MBus writes that did / did not
receive MShared, victim writes).  These classes gather exactly those,
with support for *measurement windows*: Table 2 spans "several minutes
of execution", excluding start-up, so counters can be snapshotted at a
warm-up boundary and rates computed over the remaining interval.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError


class Counter:
    """A monotonically increasing event counter with window snapshots."""

    __slots__ = ("name", "_total", "_mark")

    def __init__(self, name: str) -> None:
        self.name = name
        self._total = 0
        self._mark = 0

    def add(self, n: int = 1) -> None:
        """Count ``n`` more events."""
        self._total += n

    @property
    def total(self) -> int:
        """Events counted since construction."""
        return self._total

    @property
    def windowed(self) -> int:
        """Events counted since the last :meth:`mark`."""
        return self._total - self._mark

    def mark(self) -> None:
        """Start a measurement window at the current count."""
        self._mark = self._total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self._total})"


class Utilization:
    """Tracks the busy fraction of a resource (e.g. MBus load L).

    Busy intervals are accumulated as ``[start, end)`` cycles;
    :meth:`load` divides by the measurement window.
    """

    __slots__ = ("name", "_busy", "_mark_busy", "_window_start")

    def __init__(self, name: str) -> None:
        self.name = name
        self._busy = 0
        self._mark_busy = 0
        self._window_start = 0

    def add_busy(self, cycles: int) -> None:
        """Record ``cycles`` of busy time."""
        if cycles < 0:
            raise ConfigurationError(f"negative busy time {cycles}")
        self._busy += cycles

    @property
    def busy_total(self) -> int:
        """Total busy cycles since construction."""
        return self._busy

    def mark(self, now: int) -> None:
        """Open a measurement window at time ``now``."""
        self._mark_busy = self._busy
        self._window_start = now

    def load(self, now: int) -> float:
        """Busy fraction over the open window ending at ``now``.

        Raises :class:`ConfigurationError` if ``now`` precedes the
        window start (a window opened in the caller's future); an
        empty window (``now == start``) is legitimately load 0.0.
        """
        elapsed = now - self._window_start
        if elapsed < 0:
            raise ConfigurationError(
                f"load({self.name}) queried at {now}, before the window "
                f"opened at {self._window_start}")
        if elapsed == 0:
            return 0.0
        return (self._busy - self._mark_busy) / elapsed


class Histogram:
    """A bounded-bucket latency histogram with p50/p95/max readouts.

    Buckets are defined by inclusive upper ``bounds`` plus an implicit
    overflow bucket, so memory stays O(len(bounds)) no matter how many
    values are recorded — the shape hardware latency counters have.
    Used for distributions the mean hides: span stages (arbitration
    wait, transfer) in :mod:`repro.observatory.spans` and request
    turnarounds in :mod:`repro.causal.assemble`, both built from
    telemetry on demand, and per-class request latency in
    :mod:`repro.serving.workload`.

    >>> h = Histogram("wait", bounds=(0, 2, 4, 8))
    >>> for v in (0, 0, 1, 3, 9):
    ...     h.record(v)
    >>> h.p50, h.p95, h.max
    (2, 9, 9)
    """

    DEFAULT_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

    __slots__ = ("name", "bounds", "counts", "_count", "_sum", "_max")

    def __init__(self, name: str,
                 bounds: Optional[Sequence[int]] = None) -> None:
        self.name = name
        bounds = tuple(bounds if bounds is not None else self.DEFAULT_BOUNDS)
        if not bounds or any(later <= earlier
                             for later, earlier in zip(bounds[1:], bounds)):
            raise ConfigurationError(
                f"histogram bounds must be non-empty and strictly "
                f"increasing, got {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0
        self._max = 0

    def record(self, value: int, n: int = 1) -> None:
        """Record ``n`` observations of ``value``."""
        if value < 0:
            raise ConfigurationError(f"negative latency {value}")
        self.counts[bisect_left(self.bounds, value)] += n
        self._count += n
        self._sum += value * n
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        """Total observations recorded."""
        return self._count

    @property
    def mean(self) -> float:
        """Exact mean of the recorded values."""
        return self._sum / self._count if self._count else 0.0

    @property
    def max(self) -> int:
        """Exact maximum recorded value."""
        return self._max

    def percentile(self, p: float) -> int:
        """Upper bound of the bucket containing the p-th percentile.

        The overflow bucket reports the exact maximum.  Returns 0 on an
        empty histogram.
        """
        if not 0 <= p <= 100:
            raise ConfigurationError(f"percentile {p} outside [0, 100]")
        if self._count == 0:
            return 0
        target = max(1, -(-self._count * p // 100))  # ceil
        cumulative = 0
        for bound, count in zip(self.bounds, self.counts):
            cumulative += count
            if cumulative >= target:
                return bound
        return self._max

    @property
    def p50(self) -> int:
        return self.percentile(50)

    @property
    def p95(self) -> int:
        return self.percentile(95)

    @property
    def p99(self) -> int:
        return self.percentile(99)

    def to_dict(self) -> Dict[str, float]:
        """Summary snapshot (for JSON export and reports)."""
        return {"count": self._count, "mean": self.mean, "p50": self.p50,
                "p95": self.p95, "p99": self.p99, "max": self._max}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Histogram({self.name}: n={self._count} p50={self.p50} "
                f"p95={self.p95} max={self._max})")


class StatSet:
    """A named bag of counters, created lazily.

    >>> stats = StatSet("cache0")
    >>> stats.incr("read_hit")
    >>> stats["read_hit"].total
    1

    Hot callers (caches, CPUs, the bus) pre-create their counters with
    :meth:`counter` and call ``Counter.add`` directly, skipping the
    per-event dict lookup here.
    """

    __slots__ = ("name", "_counters", "_warned_missing")

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._warned_missing: set = set()

    def counter(self, key: str) -> Counter:
        """Return (creating if needed) the counter named ``key``."""
        counter = self._counters.get(key)
        if counter is None:
            counter = Counter(f"{self.name}.{key}")
            self._counters[key] = counter
        return counter

    def incr(self, key: str, n: int = 1) -> None:
        """Add ``n`` to the counter named ``key``."""
        self.counter(key).add(n)

    def __getitem__(self, key: str) -> Counter:
        return self.counter(key)

    def __contains__(self, key: str) -> bool:
        return key in self._counters

    def get_windowed(self, key: str, default: int = 0) -> int:
        """Window value of ``key``, or ``default`` with a one-time warning.

        Metric collection reads counters by name; a renamed counter
        would otherwise silently zero a report column (a Table 2 entry
        reading 0 looks plausible).  The first miss of each key on this
        StatSet raises a :class:`RuntimeWarning` so the rename is
        visible, then the default is returned.  Counters that were
        created but never incremented are present and do not warn.
        """
        counter = self._counters.get(key)
        if counter is not None:
            return counter.windowed
        if key not in self._warned_missing:
            self._warned_missing.add(key)
            warnings.warn(
                f"StatSet {self.name!r} has no counter {key!r}; "
                f"reporting default {default} (renamed counter?)",
                RuntimeWarning, stacklevel=2)
        return default

    def mark_all(self) -> None:
        """Open a measurement window on every existing counter."""
        for counter in self._counters.values():
            counter.mark()

    def items(self) -> Iterator[Tuple[str, Counter]]:
        """Iterate (key, counter) pairs in insertion order."""
        return iter(self._counters.items())

    def totals(self) -> Dict[str, int]:
        """Snapshot of all counter totals."""
        return {key: c.total for key, c in self._counters.items()}

    def windowed(self) -> Dict[str, int]:
        """Snapshot of all counter window values."""
        return {key: c.windowed for key, c in self._counters.items()}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={c.total}" for k, c in self._counters.items())
        return f"StatSet({self.name}: {inner})"


def ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    """Safe division used throughout metric reporting."""
    if denominator == 0:
        return default
    return numerator / denominator
