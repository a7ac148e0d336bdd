"""Structured event telemetry: probes, the hub, and subscribers.

The paper's evaluation was read off hardware event counters and a
logic analyser; the simulator equivalent is a telemetry bus.  Model
components own a :class:`Probe` (by default the inert
:data:`NULL_PROBE`) and emit typed, timestamped events through it —
``bus.op``, ``cache.transition``, ``sched.migrate``, ``dma.burst``,
``rpc.turnaround`` — which a :class:`TelemetryHub` collects and fans
out to subscribers.

The design constraint is the *disabled* path: instrumentation sits on
hot simulator paths (every bus transaction, every cache miss), so when
nothing is listening an emit site must cost one attribute load and one
branch::

    if self.probe.active:
        self.probe.complete("bus.op", "bus", start, cycles, op=op.value)

``NULL_PROBE.active`` is permanently ``False``, and a hub's probe is
live only while someone reads its category: the hub buffers events, or
a subscriber's prefix matches a name the event catalogue
(:mod:`repro.telemetry.catalog`) declares for it.  No event object is
ever allocated unless someone asked for it.

Event taxonomy and exporters are documented in ``docs/TELEMETRY.md``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.common.errors import ConfigurationError
from repro.telemetry.catalog import CATEGORY_EVENTS, COMPLETE, INSTANT


class TelemetryEvent:
    """One emitted event: a name, a timestamp, a track, and arguments.

    ``track`` names the timeline row the event belongs to (``bus``,
    ``cpu3``, ``cache0``, ``qbus``, ``rpc`` …); exporters map tracks to
    Chrome-trace threads.  ``duration`` is zero for instants.
    """

    __slots__ = ("name", "time", "track", "phase", "duration", "args")

    def __init__(self, name: str, time: int, track: str,
                 phase: str = INSTANT, duration: int = 0,
                 args: Tuple[Tuple[str, Any], ...] = ()) -> None:
        self.name = name
        self.time = time
        self.track = track
        self.phase = phase
        self.duration = duration
        self.args = args

    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict view (the JSONL exporter's record body)."""
        return {"name": self.name, "time": self.time, "track": self.track,
                "phase": self.phase, "duration": self.duration,
                "args": dict(self.args)}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = " ".join(f"{k}={v}" for k, v in self.args)
        return (f"<{self.name}@{self.time} {self.track} "
                f"{self.phase} {inner}>".replace(" >", ">"))


class _NullProbe:
    """The probe every component starts with: inert, allocation-free."""

    __slots__ = ()
    active = False

    def instant(self, name: str, track: str, **args) -> None:
        """Discard (the guarding ``if probe.active`` makes this dead)."""

    def instant_at(self, name: str, track: str, time: int, **args) -> None:
        """Discard."""

    def complete(self, name: str, track: str, start: int, duration: int,
                 **args) -> None:
        """Discard."""


NULL_PROBE = _NullProbe()
"""Module-level inert probe; components default their ``probe`` to it."""


class Probe:
    """A component's handle for emitting events into a hub.

    ``active`` says whether anyone reads the probe's category (see
    :meth:`TelemetryHub.probe_active`); emit sites must guard on it so
    the unread path allocates nothing.  ``routes`` maps each event name
    the catalogue declares for the category to the subscribers that
    receive it; the hub keeps both current.
    """

    __slots__ = ("category", "hub", "active", "track_prefix", "routes")

    def __init__(self, category: str, hub: "TelemetryHub",
                 track_prefix: str = "") -> None:
        self.category = category
        self.hub = hub
        self.track_prefix = track_prefix
        self.active = hub.probe_active(category)
        self.routes = hub.routes(category)

    def instant(self, name: str, track: str, **args) -> None:
        """Emit a point event stamped at the hub's current time."""
        hub = self.hub
        if self.track_prefix:
            track = self.track_prefix + track
        hub.record(TelemetryEvent(name, hub.now(), track, INSTANT, 0,
                                  tuple(args.items())), self)

    def instant_at(self, name: str, track: str, time: int, **args) -> None:
        """Emit a point event at an explicit (earlier) timestamp."""
        if self.track_prefix:
            track = self.track_prefix + track
        self.hub.record(TelemetryEvent(name, time, track, INSTANT, 0,
                                       tuple(args.items())), self)

    def complete(self, name: str, track: str, start: int, duration: int,
                 **args) -> None:
        """Emit a duration event covering ``[start, start+duration)``."""
        if self.track_prefix:
            track = self.track_prefix + track
        self.hub.record(TelemetryEvent(name, start, track, COMPLETE,
                                       duration, tuple(args.items())), self)


Subscriber = Callable[[TelemetryEvent], None]


class TelemetryHub:
    """The central registry: hands out probes, buffers and fans out events.

    Parameters
    ----------
    sim:
        The event kernel whose clock stamps events (anything with a
        ``now`` attribute works).
    max_events:
        Buffer bound; events beyond it are counted in ``dropped``
        rather than stored, so a runaway run cannot exhaust memory.
        ``0`` makes a *streaming* hub: it stores nothing, and its probes
        are live only for categories some subscriber reads.
    """

    def __init__(self, sim, max_events: int = 500_000) -> None:
        self.sim = sim
        self.max_events = max_events
        self.events: List[TelemetryEvent] = []
        self.emitted = 0
        self.dropped = 0
        self._probes: Dict[Tuple[str, str], Probe] = {}
        self._subscribers: List[Tuple[str, Subscriber]] = []
        self._routes: Dict[str, Dict[str, Tuple[Subscriber, ...]]] = {}
        self._reroute()

    # -- registry ------------------------------------------------------

    def probe(self, category: str, track_prefix: str = "") -> Probe:
        """Return (creating if needed) the probe for ``category``.

        ``track_prefix`` is prepended to every track the probe emits on
        (e.g. ``"m1."`` turns ``cpu0`` into ``m1.cpu0``), letting one hub
        collect several machines onto disjoint timeline rows.
        """
        key = (category, track_prefix)
        probe = self._probes.get(key)
        if probe is None:
            probe = Probe(category, self, track_prefix)
            self._probes[key] = probe
        return probe

    def probe_active(self, category: str) -> bool:
        """Whether a probe of ``category`` should currently be live.

        It is when someone reads it: the hub buffers events, or a
        subscriber's prefix matches a name the catalogue declares for
        the category.  Subscribing and unsubscribing re-evaluate every
        handed-out probe.
        """
        return self.max_events > 0 or any(self.routes(category).values())

    def routes(self, category: str) -> Dict[str, Tuple[Subscriber, ...]]:
        """Catalogued event name -> subscribers, for one probe category."""
        return self._routes.get(category, {})

    def _reroute(self) -> None:
        """Rebuild the per-category routes, then refresh every probe."""
        subscribers = self._subscribers
        self._routes = {
            category: {name: tuple(fn for prefix, fn in subscribers
                                   if name.startswith(prefix))
                        for name in names}
            for category, names in CATEGORY_EVENTS.items()}
        for (category, _prefix), probe in self._probes.items():
            probe.active = self.probe_active(category)
            probe.routes = self.routes(category)

    # -- event flow ----------------------------------------------------

    def now(self) -> int:
        """The current simulation time."""
        return self.sim.now

    def record(self, event: TelemetryEvent, probe: Probe) -> None:
        """Buffer one event from ``probe`` and deliver it to subscribers.

        Raises :class:`ConfigurationError` when the catalogue does not
        declare the event's name for the probe's category: a subscriber
        relying on a wrong entry would otherwise silently miss events
        once that probe goes dark.
        """
        try:
            subscribers = probe.routes[event.name]
        except KeyError:
            raise ConfigurationError(
                f"telemetry event {event.name!r} is not catalogued for "
                f"probe category {probe.category!r}; declare it in "
                f"repro.telemetry.catalog") from None
        self.emitted += 1
        if len(self.events) < self.max_events:
            self.events.append(event)
        else:
            self.dropped += 1
        for fn in subscribers:
            fn(event)

    def subscribe(self, fn: Subscriber, prefix: str = "") -> Subscriber:
        """Call ``fn(event)`` for every event whose name has ``prefix``.

        Probes of every category with a catalogued name under ``prefix``
        go live.
        """
        self._subscribers.append((prefix, fn))
        self._reroute()
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        """Remove every subscription of ``fn`` (no-op if absent).

        Subscriptions match by equality, so a bound method fetched anew
        (``self._on_event``) still finds its own.  On a streaming hub,
        probes no remaining subscriber reads go dark.
        """
        self._subscribers = [(p, f) for p, f in self._subscribers
                             if f != fn]
        self._reroute()

    # -- queries -------------------------------------------------------

    def events_named(self, prefix: str) -> List[TelemetryEvent]:
        """All buffered events whose name starts with ``prefix``."""
        return [e for e in self.events if e.name.startswith(prefix)]

    def tracks(self) -> List[str]:
        """Track names in first-appearance order."""
        seen: Dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.track, None)
        return list(seen)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TelemetryHub events={len(self.events)} "
                f"dropped={self.dropped}>")
