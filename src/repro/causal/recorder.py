"""The always-on flight recorder: a bounded causal event ring.

A :class:`FlightRecorder` keeps the *recent causal history* of a run —
scheduler dispatches, wakes, RPC spans, DMA bursts, faults — in a ring
buffer sized for a crash report, not a full trace.  Two constraints
shape it:

- **Off-by-default byte-identical.**  Attaching nothing changes
  nothing: all instrumentation rides the existing probe layer, whose
  disabled path is one attribute test.  ``detach()`` restores the
  inert probes, and tests pin that a run with an attached-then-
  detached recorder produces byte-identical metrics.
- **≤2 % overhead when on.**  In own-hub mode the recorder subscribes
  only to the names the event catalogue declares for the low-rate
  categories (``sched``, ``rpc``, ``dma``, ``machine``, ``faults``),
  and the hub buffers nothing (``max_events=0``), so demand alone keeps
  the per-bus-op and per-cache-transition hot paths dark; events flow
  straight into the ring.  The bench overhead gate measures this mode.

When something goes wrong (``DeadlockError``, invariant violation,
unrecovered fault), :func:`repro.causal.crash.capture_crash` drains
the ring into the deterministic crash report that
``firefly-sim postmortem`` renders.
"""

from __future__ import annotations

from typing import List, Optional

from repro.telemetry.catalog import CATEGORY_EVENTS
from repro.telemetry.probe import NULL_PROBE, TelemetryEvent, TelemetryHub
from repro.telemetry.sampler import RingBuffer

LOW_RATE_CATEGORIES = frozenset(
    {"sched", "rpc", "dma", "machine", "faults"})
"""Categories cheap enough to record always-on.  ``bus`` and ``cache``
emit per transaction/transition and stay dark in recorder mode."""

DEFAULT_CAPACITY = 4096
"""Ring capacity: enough recent history to explain a crash."""


class FlightRecorder:
    """Bounded ring of recent causal events over a kernel or machine.

    Two modes:

    - ``FlightRecorder(subject)`` builds its own streaming hub,
      attaches the subject's probes and subscribes to the events of
      :data:`LOW_RATE_CATEGORIES` only — the always-on configuration.
    - ``FlightRecorder(subject, hub=existing)`` rides along on a hub
      someone else attached (e.g. the chaos engine's span tracer),
      adding only a subscriber — no probe slots are touched, so it
      cannot conflict with other instrumentation.
    """

    def __init__(self, subject, capacity: int = DEFAULT_CAPACITY,
                 hub: Optional[TelemetryHub] = None) -> None:
        self.subject = subject
        machine = getattr(subject, "machine", subject)
        self.machine = machine
        self.kernel = subject if hasattr(subject, "scheduler") else None
        self.sim = machine.sim
        self.owns_hub = hub is None
        if hub is None:
            from repro.telemetry.instrument import (attach_kernel,
                                                    attach_machine)
            hub = TelemetryHub(self.sim, max_events=0)
            if self.kernel is not None:
                attach_kernel(hub, self.kernel)
            else:
                attach_machine(hub, machine)
        self.hub = hub
        self.ring: RingBuffer = RingBuffer(capacity)
        self.recorded = 0
        self._attached = True
        if self.owns_hub:
            # No catalogued name is a prefix of another, so each event
            # reaches the ring once.
            for name in sorted({name for category in LOW_RATE_CATEGORIES
                                for name in CATEGORY_EVENTS[category]}):
                hub.subscribe(self._on_event, prefix=name)
        else:
            hub.subscribe(self._on_event)

    # -- intake --------------------------------------------------------

    def _on_event(self, event: TelemetryEvent) -> None:
        self.recorded += 1
        self.ring.append(event)

    # -- readouts ------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events that aged out of the ring."""
        return self.ring.dropped

    def events(self) -> List[TelemetryEvent]:
        """Retained events, oldest first."""
        return list(self.ring)

    def recent(self, count: Optional[int] = None) -> List[dict]:
        """The last ``count`` retained events as plain dicts."""
        events = self.events()
        if count is not None:
            events = events[-count:]
        return [e.to_dict() for e in events]

    # -- teardown ------------------------------------------------------

    def detach(self) -> None:
        """Unsubscribe; in own-hub mode also restore the inert probes.

        After detach the subject is byte-identical to one that never
        saw a recorder (the off-by-default guarantee).
        """
        if not self._attached:
            return
        self._attached = False
        self.hub.unsubscribe(self._on_event)
        if not self.owns_hub:
            return
        machine = self.machine
        machine.probe = NULL_PROBE
        machine.mbus.probe = NULL_PROBE
        for cache in machine.caches:
            cache.probe = NULL_PROBE
        if machine.qbus is not None:
            machine.qbus.probe = NULL_PROBE
        if self.kernel is not None:
            self.kernel.probe = NULL_PROBE
            self.kernel.scheduler.probe = NULL_PROBE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "own-hub" if self.owns_hub else "ride-along"
        return (f"<FlightRecorder {mode} kept={len(self.ring)} "
                f"recorded={self.recorded} dropped={self.dropped}>")
