"""Span-tree assembly and exact critical-path extraction.

The :class:`RequestTracer` subscribes to a live
:class:`~repro.telemetry.probe.TelemetryHub` and rebuilds, per request,
*where the time went*.  A request is one ``rpc.call`` span (or any
COMPLETE event carrying ``tid``/``trace``/``span`` args and a ``cls``
label); its turnaround is attributed into seven segments that **sum
exactly** to the measured latency — the same exact-sum discipline as
the observatory's CacheSpans:

``run``
    On a CPU, executing, not stalled on the MBus.
``sched_wait``
    Runnable but waiting for a CPU (ready-queue time, preemption).
``bus_arb_wait``
    On a CPU but stalled in MBus arbitration (the ``wait`` part of a
    ``bus.op`` issued by that CPU).
``transfer``
    Bus/DMA/wire occupancy: the granted part of bus ops while running,
    plus blocked-on-device time before the wakeup's ready mark.
``blocked_on_lock``
    Blocked on a mutex / condition / join, before the ready mark.
``backoff``
    Deliberately sleeping between retry attempts (the serving layer's
    jittered exponential backoff — blocked on ``device:backoff``).
``hedge_wait``
    A hedged request's rendezvous wait: the requester parked on the
    serving layer's hedge condition (``wait:hedge``) while its racer
    attempts run.

The decomposition is evidence-driven, from four event families:

- ``sched.run`` (COMPLETE, per-CPU track): run slices ``[start, end)``
  with the descheduling reason (``preempt``, ``yield``, a block label
  like ``device:rpc-tx`` or ``lock:m``);
- ``sched.ready`` (instant): when a thread re-entered the ready queue
  (splits an off-CPU gap into blocked vs scheduler-wait);
- ``bus.op`` (COMPLETE): per-initiator arbitration wait and transfer
  intervals, clipped against the covering run slice;
- ``rpc.call`` / ``causal.fork`` / ``causal.wake``: the requests
  themselves and the parent→child links for span trees.

Because a request's COMPLETE event is emitted *while its thread is
still running* (mid run-slice), finalisation is deferred until the
covering ``sched.run`` closes; :meth:`RequestTracer.close` force-
finalises any leftovers (flagged ``complete=False``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from math import inf
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.common.stats import Histogram
from repro.telemetry.probe import TelemetryEvent, TelemetryHub

SEGMENTS = ("run", "sched_wait", "bus_arb_wait", "transfer",
            "blocked_on_lock", "backoff", "hedge_wait")
"""Latency segment names, in render order; they sum to the turnaround."""

REQUEST_BOUNDS = tuple(int(round(1000 * 1.5 ** i)) for i in range(36))
"""Histogram bucket bounds for request turnarounds (1k cycles up,
~1.5× geometric — wide enough for multi-millisecond requests)."""

_BLOCK_LOCK_PREFIXES = ("lock:", "wait:", "join:")
_BLOCK_DEVICE_PREFIX = "device:"
# The serving layer's resilience waits get their own segments so a
# retried/hedged call's tail is visible as policy time, not bus time.
_BACKOFF_REASON = "device:backoff"
_HEDGE_REASON = "wait:hedge"

_MAX_BUS_OPS_PER_CPU = 100_000
_MAX_SLICES_PER_TID = 100_000
_MAX_READY_PER_TID = 100_000
_MAX_LINKS = 65_536


def _cpu_of_track(track: str) -> Optional[int]:
    """``cpu3`` / ``m1.cpu3`` -> 3; None for non-CPU tracks."""
    leaf = track.rsplit(".", 1)[-1]
    if leaf.startswith("cpu"):
        try:
            return int(leaf[3:])
        except ValueError:
            return None
    return None


class RequestRecord:
    """One assembled request with its exact segment decomposition."""

    __slots__ = ("cls", "trace", "span", "parent_span", "tid", "thread",
                 "start", "end", "segments", "complete")

    def __init__(self, cls: str, trace: int, span: int, parent_span: int,
                 tid: int, thread: str, start: int, end: int) -> None:
        self.cls = cls
        self.trace = trace
        self.span = span
        self.parent_span = parent_span
        self.tid = tid
        self.thread = thread
        self.start = start
        self.end = end
        self.segments: Dict[str, int] = {name: 0 for name in SEGMENTS}
        self.complete = True

    @property
    def turnaround(self) -> int:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {"cls": self.cls, "trace": self.trace, "span": self.span,
                "parent_span": self.parent_span, "tid": self.tid,
                "thread": self.thread, "start": self.start, "end": self.end,
                "turnaround": self.turnaround, "complete": self.complete,
                "segments": dict(self.segments)}


class RequestTracer:
    """Streaming per-request critical-path assembler.

    Subscribe-once: ``RequestTracer(hub)`` wires itself onto the hub;
    call :meth:`close` after the run to flush still-open requests, then
    read :attr:`finished`, :meth:`percentiles` and :meth:`span_tree`.
    """

    def __init__(self, hub: TelemetryHub, keep_requests: int = 8192) -> None:
        self.hub = hub
        self.keep_requests = keep_requests
        #: Finalised requests, oldest first (bounded).
        self.finished: Deque[RequestRecord] = deque(maxlen=keep_requests)
        self.assembled = 0
        self.incomplete = 0

        # Raw evidence, pruned as requests finalise.
        self._slices: Dict[int, List[Tuple[int, int, int, str]]] = {}
        self._ready: Dict[int, List[int]] = {}
        self._bus: Dict[int, List[Tuple[int, int, int]]] = {}
        self._pending: List[RequestRecord] = []
        self._links: Deque[Tuple[str, Tuple]] = deque(maxlen=_MAX_LINKS)

        # Streaming per-class latency distributions.
        self._hist: Dict[Tuple[str, str], Histogram] = {}

        hub.subscribe(self._on_sched, prefix="sched.")
        hub.subscribe(self._on_bus_op, prefix="bus.op")
        hub.subscribe(self._on_request, prefix="rpc.call")
        hub.subscribe(self._on_causal, prefix="causal.")

    # -- event intake --------------------------------------------------

    def _on_sched(self, event: TelemetryEvent) -> None:
        if event.name == "sched.run":
            args = dict(event.args)
            tid = args.get("tid")
            if tid is None:
                return
            cpu = _cpu_of_track(event.track)
            if cpu is None:
                return
            slices = self._slices.setdefault(tid, [])
            if len(slices) >= _MAX_SLICES_PER_TID:
                del slices[:_MAX_SLICES_PER_TID // 2]
            slices.append(
                (event.time, event.time + event.duration, cpu,
                 str(args.get("reason", ""))))
            if self._pending:
                self._drain_pending(tid)
        elif event.name == "sched.ready":
            args = dict(event.args)
            tid = args.get("tid")
            if tid is not None:
                marks = self._ready.setdefault(tid, [])
                if len(marks) >= _MAX_READY_PER_TID:
                    del marks[:_MAX_READY_PER_TID // 2]
                insort(marks, event.time)

    def _on_bus_op(self, event: TelemetryEvent) -> None:
        args = dict(event.args)
        initiator = args.get("initiator")
        if initiator is None:
            return
        wait = args.get("wait", 0)
        ring = self._bus.get(initiator)
        if ring is None:
            ring = self._bus[initiator] = []
        elif len(ring) >= 2 * _MAX_BUS_OPS_PER_CPU:
            # Trim in bulk; _bus_overlap reads only the newest ops.
            del ring[:-_MAX_BUS_OPS_PER_CPU]
        # (release, request, grant): arbitration wait then transfer.
        # The MBus grants one operation at a time and the event is
        # emitted on release, so a ring is in release order.
        ring.append((event.time + event.duration, event.time - wait,
                     event.time))

    def _on_request(self, event: TelemetryEvent) -> None:
        args = dict(event.args)
        tid = args.get("tid")
        if tid is None:
            return
        record = RequestRecord(
            cls=str(args.get("cls", "rpc")),
            trace=args.get("trace", 0), span=args.get("span", 0),
            parent_span=args.get("parent_span", 0),
            tid=tid, thread=str(args.get("thread", "")),
            start=event.time, end=event.time + event.duration)
        self._pending.append(record)
        self._drain_pending(tid)

    def _on_causal(self, event: TelemetryEvent) -> None:
        self._links.append((event.name, event.args))

    # -- finalisation --------------------------------------------------

    def _drain_pending(self, tid: int) -> None:
        """Finalise pending requests whose covering run slice closed."""
        slices = self._slices.get(tid)
        if not slices:
            return
        last_end = slices[-1][1]
        still = []
        for record in self._pending:
            if record.tid == tid and last_end >= record.end:
                self._finalize(record, forced=False)
            else:
                still.append(record)
        self._pending = still

    def close(self) -> None:
        """Flush requests whose final run slice never closed.

        Their tail (from the last closed slice to the request end) is
        attributed from the evidence available — gaps split at ready
        marks, the unobserved remainder counted as ``run`` (the thread
        *was* running when it emitted the request-complete event).
        Such records are flagged ``complete=False``.
        """
        pending, self._pending = self._pending, []
        for record in pending:
            self._finalize(record, forced=True)

    def _finalize(self, record: RequestRecord, forced: bool) -> None:
        t0, t1 = record.start, record.end
        seg = record.segments
        slices = [s for s in self._slices.get(record.tid, ())
                  if s[1] > t0 and s[0] < t1]
        cursor = t0
        prev_reason = ""
        for (s_start, s_end, cpu, reason) in slices:
            a, b = max(s_start, t0), min(s_end, t1)
            if a > cursor:
                self._classify_gap(record, cursor, a, prev_reason)
            arb, xfer = self._bus_overlap(cpu, a, b)
            seg["bus_arb_wait"] += arb
            seg["transfer"] += xfer
            seg["run"] += (b - a) - arb - xfer
            cursor = b
            prev_reason = reason
        if cursor < t1:
            # Open tail: the thread's final run slice had not closed
            # when this record was force-finalised.  Split the leading
            # off-CPU gap at the ready mark as usual; the unobserved
            # remainder was running (it emitted the request-end event),
            # so it counts as run.  Still flagged incomplete.
            if prev_reason:
                mark = self._first_ready(record.tid, cursor, t1)
                end_gap = mark if mark is not None else t1
                self._classify_gap(record, cursor, end_gap, prev_reason)
                cursor = end_gap
            seg["run"] += t1 - cursor
            record.complete = False
            self.incomplete += 1
        self.assembled += 1
        self.finished.append(record)
        self._record_stats(record)
        self._prune(record.tid, t1)

    def _classify_gap(self, record: RequestRecord, g0: int, g1: int,
                      reason: str) -> None:
        """Attribute an off-CPU gap ``[g0, g1)`` from its block reason.

        Preempt/yield gaps are pure scheduler wait.  Block gaps split
        at the thread's first ready mark inside the gap: before it the
        thread was genuinely blocked (on a device -> ``transfer``, on a
        lock/condition/join -> ``blocked_on_lock``, on the serving
        layer's retry sleep -> ``backoff``, on its hedge rendezvous ->
        ``hedge_wait``), after it the thread was runnable but queued
        (``sched_wait``).
        """
        seg = record.segments
        length = g1 - g0
        if length <= 0:
            return
        if reason in ("preempt", "yield", "cpu-offline", "exit", ""):
            seg["sched_wait"] += length
            return
        if reason == _BACKOFF_REASON:
            blocked_kind = "backoff"
        elif reason == _HEDGE_REASON:
            blocked_kind = "hedge_wait"
        elif reason.startswith(_BLOCK_DEVICE_PREFIX):
            blocked_kind = "transfer"
        elif reason.startswith(_BLOCK_LOCK_PREFIXES):
            blocked_kind = "blocked_on_lock"
        else:
            seg["sched_wait"] += length
            return
        mark = self._first_ready(record.tid, g0, g1)
        if mark is None:
            seg[blocked_kind] += length
        else:
            seg[blocked_kind] += mark - g0
            seg["sched_wait"] += g1 - mark

    def _first_ready(self, tid: int, after: int, before: int) -> Optional[int]:
        """The first ready mark in ``(after, before]``, or None."""
        marks = self._ready.get(tid)
        if not marks:
            return None
        i = bisect_left(marks, after)
        while i < len(marks) and marks[i] <= after:
            i += 1
        if i < len(marks) and marks[i] <= before:
            return marks[i]
        return None

    def _bus_overlap(self, cpu: int, a: int, b: int) -> Tuple[int, int]:
        """(arb_wait, transfer) cycles of CPU ``cpu``'s bus ops in [a, b).

        Intervals are swept so overlapping ops (e.g. a prefetch racing
        the demand stream) never double-count a cycle; where wait and
        transfer overlap, transfer wins.  Only the newest
        ``_MAX_BUS_OPS_PER_CPU`` ops count, and since the ring is in
        release order the scan starts at the first one released after
        ``a``.
        """
        ops = self._bus.get(cpu)
        if not ops:
            return 0, 0
        first = bisect_right(ops, (a, inf),
                             max(0, len(ops) - _MAX_BUS_OPS_PER_CPU))
        waits: List[Tuple[int, int]] = []
        xfers: List[Tuple[int, int]] = []
        for index in range(first, len(ops)):
            release, req, grant = ops[index]
            if req >= b:
                break
            w0, w1 = max(req, a), min(grant, b)
            if w1 > w0:
                waits.append((w0, w1))
            x0, x1 = max(grant, a), min(release, b)
            if x1 > x0:
                xfers.append((x0, x1))
        if not waits and not xfers:
            return 0, 0
        xfer_total = _union_length(xfers)
        # Arb wait counts only where no transfer covers the cycle.
        arb_total = _union_length(waits + xfers) - xfer_total
        return arb_total, xfer_total

    def _record_stats(self, record: RequestRecord) -> None:
        cls = record.cls
        self._class_hist(cls, "turnaround").record(record.turnaround)
        for name in SEGMENTS:
            self._class_hist(cls, name).record(record.segments[name])

    def _class_hist(self, cls: str, what: str) -> Histogram:
        key = (cls, what)
        hist = self._hist.get(key)
        if hist is None:
            hist = Histogram(f"request.{cls}.{what}",
                             bounds=REQUEST_BOUNDS)
            self._hist[key] = hist
        return hist

    def _prune(self, tid: int, upto: int) -> None:
        """Drop evidence this thread's later requests cannot need."""
        slices = self._slices.get(tid)
        if slices:
            # Keep slices that end after the finalised request (the
            # covering slice may also cover the next request's start).
            self._slices[tid] = [s for s in slices if s[1] > upto]
        marks = self._ready.get(tid)
        if marks:
            self._ready[tid] = marks[bisect_left(marks, upto):]

    # -- readouts ------------------------------------------------------

    def classes(self) -> List[str]:
        """Request class names seen, sorted."""
        return sorted({cls for (cls, what) in self._hist
                       if what == "turnaround"})

    def percentiles(self, cls: str) -> Dict[str, Any]:
        """Streaming p50/p95/p99 (+count/mean) for one request class."""
        hist = self._class_hist(cls, "turnaround")
        return {"count": hist.count, "mean": hist.mean,
                "p50": hist.percentile(50), "p95": hist.percentile(95),
                "p99": hist.percentile(99), "max": hist.max}

    def segment_means(self, cls: str) -> Dict[str, float]:
        """Mean cycles per segment for one request class."""
        return {name: self._class_hist(cls, name).mean
                for name in SEGMENTS}

    def span_tree(self, trace: int) -> Dict[int, List[int]]:
        """``parent_span -> [child spans]`` from the causal link events."""
        children: Dict[int, List[int]] = {}
        for name, args in self._links:
            a = dict(args)
            if a.get("trace") != trace:
                continue
            parent = a.get("parent_span", a.get("waker_span", 0))
            span = a.get("span", 0)
            if span:
                children.setdefault(parent, []).append(span)
        return children

    def links(self) -> List[Dict[str, Any]]:
        """The retained causal link events as dicts (fork + wake)."""
        return [dict(args, kind=name.split(".", 1)[1])
                for name, args in self._links]

    def render(self) -> str:
        """A per-class latency table with mean segment shares."""
        lines = ["request critical paths"]
        for cls in self.classes():
            p = self.percentiles(cls)
            lines.append(
                f"  {cls}: n={p['count']} p50={p['p50']} p95={p['p95']} "
                f"p99={p['p99']} mean={p['mean']:.0f} cycles")
            means = self.segment_means(cls)
            total = sum(means.values()) or 1.0
            shares = "  ".join(f"{name}={means[name] / total:.1%}"
                               for name in SEGMENTS)
            lines.append(f"    {shares}")
        if self.incomplete:
            lines.append(f"  ({self.incomplete} request(s) force-closed "
                         f"with an open run slice)")
        if not self.classes():
            lines.append("  (no requests observed)")
        return "\n".join(lines)


def _union_length(intervals: List[Tuple[int, int]]) -> int:
    """Total length of the union of half-open intervals."""
    if not intervals:
        return 0
    intervals = sorted(intervals)
    total = 0
    cur_start, cur_end = intervals[0]
    for (start, end) in intervals[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    total += cur_end - cur_start
    return total


def trace_requests(kernel, transport=None, max_events: int = 0,
                   keep_requests: int = 8192
                   ) -> Tuple[TelemetryHub, RequestTracer]:
    """One-call setup: a streaming hub + request tracer on a kernel.

    ``max_events=0`` keeps the hub buffer empty (pure streaming) so
    long runs don't hold every event; pass a transport to also capture
    ``rpc.call`` requests.
    """
    from repro.telemetry.instrument import (attach_kernel, attach_rpc)
    hub = TelemetryHub(kernel.sim, max_events=max_events)
    attach_kernel(hub, kernel)
    if transport is not None:
        attach_rpc(hub, transport)
    return hub, RequestTracer(hub, keep_requests=keep_requests)
