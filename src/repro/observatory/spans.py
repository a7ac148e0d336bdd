"""Transaction-level span tracing with streaming percentile analytics.

The paper's Table 2 shows *averages*; what the authors read off their
logic analyser between those averages were *distributions* — how long
an individual MBus transaction queued for the arbiter, how long a miss
stalled a processor, which stage of the miss dominated.  This module
rebuilds that view from the telemetry stream:

- every ``bus.op`` event is a bus span whose ``request enqueue →
  arbitration wait → bus cycles`` decomposition (plus the supply
  source: ``memory``, ``cache``-to-cache, or ``none`` for writes and
  invalidates) streams into per-kind and per-CPU histograms, and is
  kept in a :class:`~repro.causal.assemble.BusOpLedger`;
- every ``cache.transition`` duration event (a miss or a write-through
  episode) becomes a :class:`CacheSpan` whose stall time is split into
  ``arb_wait`` / ``transfer`` / ``other`` by the ledger's overlap with
  the episode — the critical-path attribution for cache misses, and
  the same arithmetic the request tracer uses for its bus segments;
- all latencies stream into bounded-bucket
  :class:`~repro.common.stats.Histogram` objects (p50/p95/p99, exact
  mean and max, O(buckets) memory), per span kind and per CPU.

The tracer is a hub *subscriber*: it costs nothing unless constructed,
and the instrumented components keep their one-branch disabled path
(see ``docs/OBSERVATORY.md`` for the span model and its one
approximation around concurrent DMA).

>>> from repro.common.events import Simulator
>>> from repro.telemetry.probe import TelemetryHub
>>> hub = TelemetryHub(Simulator())
>>> tracer = SpanTracer(hub)
>>> probe = hub.probe("bus")
>>> probe.complete("bus.op", "bus", 10, 4, op="MRead", initiator=1,
...                wait=6, cache_supplied=False, victim=False)
>>> tracer.kind_stats["bus.MRead"].total.count
1
>>> tracer.kind_stats["bus.MRead"].wait.mean
6.0
>>> tracer.kind_stats["bus.MRead"].supply_counts
{'memory': 1}
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.causal.assemble import BusOpLedger, track_index
from repro.common.stats import Histogram
from repro.telemetry.probe import COMPLETE, TelemetryEvent, TelemetryHub

#: Histogram bucket bounds for span latencies (cycles).  Bus waits are
#: usually < 32 cycles; a pathological convoy on a saturated bus can
#: reach thousands, hence the wide tail.
LATENCY_BOUNDS = (0, 1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128,
                  192, 256, 384, 512, 1024, 2048, 4096)

#: Critical-path stage names, in report order.
STAGES = ("arb_wait", "transfer", "other")


class CacheSpan:
    """One cache episode (miss or write-through) with stage attribution.

    ``stages`` maps :data:`STAGES` to cycles; the three entries sum
    exactly to ``duration``.  ``wait`` and ``transfer`` are the
    episode's share of its CPU's bus ops (clipped and unioned, so they
    never exceed ``duration``); ``other`` is the rest — protocol
    overhead between and around the bus ops.
    """

    __slots__ = ("kind", "cpu", "start", "duration", "stages")

    def __init__(self, kind: str, cpu: int, start: int, duration: int,
                 wait: int, transfer: int) -> None:
        self.kind = kind
        self.cpu = cpu
        self.start = start
        self.duration = duration
        self.stages = {"arb_wait": wait, "transfer": transfer,
                       "other": duration - wait - transfer}

    @property
    def dominant_stage(self) -> str:
        """The stage contributing the most cycles (ties: report order)."""
        return max(STAGES, key=lambda s: self.stages[s])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = " ".join(f"{k}={v}" for k, v in self.stages.items())
        return f"<CacheSpan {self.kind} cpu{self.cpu} {self.duration}cy {inner}>"


class SpanKindStats:
    """Streaming percentile histograms for one span kind."""

    __slots__ = ("kind", "total", "wait", "transfer", "supply_counts")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.total = Histogram(f"{kind}.total", LATENCY_BOUNDS)
        self.wait = Histogram(f"{kind}.wait", LATENCY_BOUNDS)
        self.transfer = Histogram(f"{kind}.transfer", LATENCY_BOUNDS)
        self.supply_counts: Dict[str, int] = {}

    def record(self, wait: int, transfer: int, supply: str) -> None:
        self.total.record(wait + transfer)
        self.wait.record(wait)
        self.transfer.record(transfer)
        self.supply_counts[supply] = self.supply_counts.get(supply, 0) + 1

    def to_dict(self) -> Dict:
        return {"total": self.total.to_dict(), "wait": self.wait.to_dict(),
                "transfer": self.transfer.to_dict(),
                "supply": dict(self.supply_counts)}


class CpuSpanStats:
    """Per-CPU latency distributions plus critical-path attribution."""

    __slots__ = ("cpu", "bus_total", "miss_total", "stage_cycles",
                 "dominant_counts", "spans")

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.bus_total = Histogram(f"cpu{cpu}.bus_op", LATENCY_BOUNDS)
        self.miss_total = Histogram(f"cpu{cpu}.miss", LATENCY_BOUNDS)
        self.stage_cycles = {stage: 0 for stage in STAGES}
        self.dominant_counts = {stage: 0 for stage in STAGES}
        self.spans = 0

    def record_cache(self, span: CacheSpan) -> None:
        self.spans += 1
        self.miss_total.record(span.duration)
        for stage in STAGES:
            self.stage_cycles[stage] += span.stages[stage]
        self.dominant_counts[span.dominant_stage] += 1

    def stage_fractions(self) -> Dict[str, float]:
        """Fraction of total stall cycles attributed to each stage."""
        total = sum(self.stage_cycles.values())
        if total <= 0:
            return {stage: 0.0 for stage in STAGES}
        return {stage: self.stage_cycles[stage] / total for stage in STAGES}

    def to_dict(self) -> Dict:
        return {"bus_op": self.bus_total.to_dict(),
                "miss": self.miss_total.to_dict(),
                "stage_cycles": dict(self.stage_cycles),
                "stage_fractions": self.stage_fractions(),
                "dominant_counts": dict(self.dominant_counts)}


class SpanTracer:
    """Builds spans from a live telemetry hub and aggregates percentiles.

    Subscribe-and-forget: construct with a hub whose probes are active,
    run the simulation, then read ``kind_stats`` / ``cpu_stats`` or
    call :meth:`summary` / :meth:`render`.  Call :meth:`close` to
    detach (e.g. before a second differently-configured tracer).

    ``keep_spans`` retains the individual :class:`CacheSpan` objects
    (tests and deep-dives); off by default so long runs stay O(1).
    """

    def __init__(self, hub: TelemetryHub, keep_spans: bool = False) -> None:
        self.hub = hub
        self.keep_spans = keep_spans
        self.kind_stats: Dict[str, SpanKindStats] = {}
        self.cpu_stats: Dict[int, CpuSpanStats] = {}
        self.cache_spans: List[CacheSpan] = []
        self._ledger = BusOpLedger()
        hub.subscribe(self._on_bus_op, prefix="bus.op")
        hub.subscribe(self._on_cache_transition, prefix="cache.transition")

    def close(self) -> None:
        """Detach from the hub (idempotent)."""
        self.hub.unsubscribe(self._on_bus_op)
        self.hub.unsubscribe(self._on_cache_transition)

    # -- event handlers -------------------------------------------------

    def _on_bus_op(self, event: TelemetryEvent) -> None:
        args = dict(event.args)
        op = str(args.get("op", "?"))
        # A read no cache supplied came from memory (MRead, MReadEx);
        # writes and invalidates supply nothing.
        supply = ("cache" if args.get("cache_supplied")
                  else "memory" if op.startswith("MRead") else "none")
        initiator = int(args.get("initiator", -1))
        wait = int(args.get("wait", 0))
        self._kind(f"bus.{op}").record(wait, event.duration, supply)
        self._cpu(initiator).bus_total.record(wait + event.duration)
        self._ledger.add(initiator, event.time, event.duration, wait)

    def _on_cache_transition(self, event: TelemetryEvent) -> None:
        if event.phase != COMPLETE:
            return  # snoop-side instants carry no latency
        cpu = track_index(event.track, "cache")
        if cpu is None:
            return
        start, end = event.time, event.time + event.duration
        wait, transfer = self._ledger.overlap(cpu, start, end)
        # A CPU's cache episodes are sequential: no later one can
        # overlap an op released by this one's end.
        self._ledger.forget(cpu, end)
        stimulus = dict(event.args).get("stimulus", "")
        span = CacheSpan(kind=f"cache.{stimulus}", cpu=cpu, start=start,
                         duration=event.duration, wait=wait,
                         transfer=transfer)
        kind = self._kind(span.kind)
        kind.total.record(span.duration)
        kind.wait.record(wait)
        kind.transfer.record(transfer)
        self._cpu(cpu).record_cache(span)
        if self.keep_spans:
            self.cache_spans.append(span)

    # -- registries -----------------------------------------------------

    def _kind(self, kind: str) -> SpanKindStats:
        stats = self.kind_stats.get(kind)
        if stats is None:
            stats = self.kind_stats[kind] = SpanKindStats(kind)
        return stats

    def _cpu(self, cpu: int) -> CpuSpanStats:
        stats = self.cpu_stats.get(cpu)
        if stats is None:
            stats = self.cpu_stats[cpu] = CpuSpanStats(cpu)
        return stats

    # -- reporting ------------------------------------------------------

    def summary(self) -> Dict:
        """JSON-ready snapshot of every histogram and attribution."""
        return {
            "kinds": {k: s.to_dict()
                      for k, s in sorted(self.kind_stats.items())},
            "cpus": {str(c): s.to_dict()
                     for c, s in sorted(self.cpu_stats.items())},
        }

    def render(self) -> str:
        """Percentile tables in the paper's text-table style."""
        from repro.reporting import Column, TextTable

        lines = ["span latencies (cycles)"]
        table = TextTable([
            Column("kind", align_left=True), Column("n", "d"),
            Column("p50", "d"), Column("p95", "d"), Column("p99", "d"),
            Column("max", "d"), Column("mean", ".1f"),
            Column("wait p95", "d")])
        for kind, stats in sorted(self.kind_stats.items()):
            hist = stats.total
            table.add_row(kind, hist.count, hist.p50, hist.p95, hist.p99,
                          hist.max, hist.mean, stats.wait.p95)
        lines.append(table.render())

        if any(s.spans for s in self.cpu_stats.values()):
            lines.append("")
            lines.append("miss critical path (stall-cycle attribution)")
            attribution = TextTable([
                Column("cpu", "d"), Column("misses", "d"),
                Column("arb_wait", ".0%"), Column("transfer", ".0%"),
                Column("other", ".0%"),
                Column("dominant", align_left=True)])
            for cpu, stats in sorted(self.cpu_stats.items()):
                if not stats.spans:
                    continue
                fractions = stats.stage_fractions()
                dominant = max(STAGES,
                               key=lambda s: stats.dominant_counts[s])
                attribution.add_row(cpu, stats.spans,
                                    fractions["arb_wait"],
                                    fractions["transfer"],
                                    fractions["other"], dominant)
            lines.append(attribution.render())
        return "\n".join(lines)


def trace_spans(subject, keep_spans: bool = False
                ) -> Tuple[TelemetryHub, SpanTracer]:
    """Attach a hub + tracer to a machine or Topaz kernel in one call.

    Events are *not* buffered in the hub (``max_events=0``): the tracer
    consumes the stream, so arbitrarily long runs stay bounded.
    """
    from repro.telemetry.instrument import attach_kernel, attach_machine

    machine = getattr(subject, "machine", subject)
    hub = TelemetryHub(machine.sim, max_events=0)
    if subject is machine:
        attach_machine(hub, machine)
    else:
        attach_kernel(hub, subject)
    return hub, SpanTracer(hub, keep_spans=keep_spans)
