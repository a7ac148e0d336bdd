"""MBus timing diagrams, rendered from the bus's ``bus.op`` events.

The paper's Figure 4 shows the four-cycle layout of an MBus operation:

====== =========================================================
Cycle  Activity
====== =========================================================
1      Arbitration; winner drives address + operation bit
2      Write data (MWrite); snoopers probe their tag stores
3      Snoopers that hold the line assert ``MShared``
4      Read data driven — by memory, or by the sharing caches
       (memory inhibited) when ``MShared`` was asserted
====== =========================================================

Every tenure the bus model executes is recorded once, as a ``bus.op``
telemetry event (:mod:`repro.telemetry.catalog`): its time is the
grant, and its args name the operation, address, initiator and the
``MShared`` / cache-supply responses.  :func:`signal_events` expands
one such event into the per-cycle signals above, and
:class:`TimingDiagram` renders a run of them as the same kind of
waveform picture the figure shows — this is how the Figure 4 benchmark
regenerates the artifact from the live bus model's own record rather
than from a hard-coded drawing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.types import BusOp
from repro.telemetry.probe import TelemetryEvent


@dataclass(frozen=True)
class SignalEvent:
    """One signal assertion at an absolute bus cycle."""

    cycle: int
    signal: str
    detail: str = ""


def signal_events(op_event: TelemetryEvent) -> List[SignalEvent]:
    """The per-cycle signals of the tenure one ``bus.op`` event records."""
    args = dict(op_event.args)
    op = BusOp(args["op"])
    start = op_event.time
    events = [SignalEvent(start, "Arbitrate",
                          f"requester {args['initiator']} wins"),
              SignalEvent(start, "Address", f"{op.value} {args['address']:#x}")]
    if op.carries_write_data:
        events.append(SignalEvent(start + 1, "WriteData", "initiator drives"))
    events.append(SignalEvent(start + 1, "TagProbe", "snoopers probe tags"))
    if args["shared"]:
        events.append(SignalEvent(start + 2, "MShared", "asserted by sharer(s)"))
    if op.returns_data:
        source = ("cache(s); memory inhibited" if args["cache_supplied"]
                  else "memory")
        events.append(SignalEvent(start + 3, "ReadData", source))
    return events


class TimingDiagram:
    """Renders ``bus.op`` events as an ASCII waveform.

    ``events`` are ``bus.op`` events in emission order, e.g.
    ``hub.events_named("bus.op")`` from a buffering hub on the bus
    probe.  One column per bus cycle, one row per signal, matching
    Figure 4's presentation.  Example output for an MRead answered by
    a sharer::

        cycle       |  0 |  1 |  2 |  3 |
        Arbitrate   | ## |    |    |    |
        Address     | ## |    |    |    |
        WriteData   |    |    |    |    |
        TagProbe    |    | ## |    |    |
        MShared     |    |    | ## |    |
        ReadData    |    |    |    | ## |
    """

    SIGNAL_ORDER = ["Arbitrate", "Address", "WriteData", "TagProbe",
                    "MShared", "ReadData"]

    def __init__(self, events: Sequence[TelemetryEvent]) -> None:
        self.events = list(events)

    def render(self, first: int = 0, count: Optional[int] = None) -> str:
        """Render operations ``[first, first+count)`` as one diagram."""
        ops = self.events[first:]
        if count is not None:
            ops = ops[:count]
        if not ops:
            return "(no transactions traced)"
        start = ops[0].time
        end = max(op.time + op.duration for op in ops)
        width = end - start
        active: Dict[str, set] = {sig: set() for sig in self.SIGNAL_ORDER}
        for op in ops:
            for event in signal_events(op):
                active[event.signal].add(event.cycle - start)
        label_w = max(len(s) for s in self.SIGNAL_ORDER) + 2
        lines = []
        header = "cycle".ljust(label_w) + "|" + "|".join(
            f"{start + c:>3} " for c in range(width)) + "|"
        lines.append(header)
        for signal in self.SIGNAL_ORDER:
            cells = "|".join(" ## " if c in active[signal] else "    "
                             for c in range(width))
            lines.append(signal.ljust(label_w) + "|" + cells + "|")
        summary = []
        for op in ops:
            args = dict(op.args)
            shared = " (MShared)" if args["shared"] else ""
            summary.append(f"{args['op']}@{op.time}{shared}")
        lines.append(f"operations: {', '.join(summary)}")
        return "\n".join(lines)
