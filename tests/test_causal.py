"""Causal tracing: contexts, propagation, exact-sum decomposition.

Covers the contract points of docs/CAUSAL.md:

- the context allocator is a pure counter machine (no RNG, fully
  deterministic);
- attaching (then detaching) a flight recorder leaves a run
  byte-identical to one that never saw a recorder — the off-by-default
  guarantee;
- every finished request's five segments sum *exactly* to its
  turnaround on a real 5-CPU RPC workload;
- ``DeadlockError`` names the wait-for edges at both the event level
  and the thread level, and the kernel detects a thread deadlock long
  before the cycle horizon;
- the Chrome exporter draws causal flow arrows and groups dotted
  tracks into per-machine processes.
"""

from __future__ import annotations

import pytest

from repro.causal import (FlightRecorder, LOW_RATE_CATEGORIES,
                          ContextAllocator, RequestTracer, SEGMENTS,
                          trace_requests)
from repro.causal.assemble import _union_length
from repro.common.errors import DeadlockError, SimulationError
from repro.common.events import Simulator
from repro.telemetry import TelemetryHub, chrome_trace
from repro.telemetry.instrument import attach_kernel
from repro.telemetry.sampler import Sampler
from repro.topaz import ops
from repro.topaz.kernel import TopazKernel
from repro.workloads.threads_exerciser import (ExerciserParams,
                                               build_exerciser)

pytestmark = pytest.mark.causal


# ---------------------------------------------------------------------------
# contexts


class TestContextAllocator:
    def test_root_and_child(self):
        alloc = ContextAllocator()
        root = alloc.root()
        child = alloc.child(root)
        assert child.trace_id == root.trace_id
        assert child.span_id != root.span_id
        assert child.parent_id == root.span_id

    def test_deterministic_counters(self):
        a, b = ContextAllocator(), ContextAllocator()
        for _ in range(5):
            ra, rb = a.root(), b.root()
            assert (ra.trace_id, ra.span_id) == (rb.trace_id, rb.span_id)

    def test_child_of_none_is_root(self):
        alloc = ContextAllocator()
        ctx = alloc.child(None)
        assert ctx.parent_id == 0


class TestKernelPropagation:
    def test_host_forks_get_root_contexts(self):
        kernel = TopazKernel.build(processors=1, threads_hint=4, seed=3)

        def nop():
            yield ops.Compute(10)

        t1 = kernel.fork(nop, name="a")
        t2 = kernel.fork(nop, name="b")
        assert t1.ctx is not None and t2.ctx is not None
        assert t1.ctx.trace_id != t2.ctx.trace_id
        assert t1.ctx.parent_id == 0

    def test_ops_fork_inherits_trace(self):
        kernel = TopazKernel.build(processors=1, threads_hint=4, seed=3)
        seen = {}

        def child():
            yield ops.Compute(5)

        def parent():
            thread = yield ops.Fork(child, name="kid")
            seen["child"] = thread
            yield ops.Join(thread)

        root = kernel.fork(parent, name="parent")
        kernel.run_until_quiescent(max_cycles=200_000)
        assert seen["child"].ctx.trace_id == root.ctx.trace_id
        assert seen["child"].ctx.parent_id == root.ctx.span_id

    def test_rpc_call_events_carry_trace_and_span(self):
        from repro.workloads.rpc_server import RpcWorkload

        workload = RpcWorkload(processors=2, client_threads=1, seed=7)
        hub = TelemetryHub(workload.kernel.sim, max_events=100_000)
        attach_kernel(hub, workload.kernel)
        workload.transport.probe = hub.probe("rpc")
        workload.run(warmup_cycles=50_000, measure_cycles=300_000)
        calls = hub.events_named("rpc.call")
        assert calls, "no rpc.call events captured"
        for event in calls:
            args = dict(event.args)
            assert args["trace"] > 0
            assert args["span"] > 0
            assert args["cls"] == "rpc"


# ---------------------------------------------------------------------------
# the category filter and sampler drop counter


class TestEnableOnly:
    def test_filter_restricts_probe_activity(self):
        sim = Simulator()
        hub = TelemetryHub(sim, max_events=100)
        sched = hub.probe("sched")
        bus = hub.probe("bus")
        assert sched.active and bus.active
        hub.enable_only(LOW_RATE_CATEGORIES)
        assert sched.active
        assert not bus.active
        hub.enable_only(None)
        assert bus.active

    def test_filter_applies_to_later_probes(self):
        sim = Simulator()
        hub = TelemetryHub(sim, max_events=100)
        hub.enable_only({"sched"})
        assert not hub.probe("cache").active
        assert hub.probe("sched").active


class TestSamplerDropped:
    def test_dropped_counts_ring_evictions(self):
        sim = Simulator()
        sampler = Sampler(sim, interval=10, capacity=4)
        series = sampler.add("x", lambda: 1.0)
        for t in range(10):
            series.record(t, float(t))
        assert series.dropped == 6
        assert sampler.dropped == 6

    def test_chrome_export_reports_samples_dropped(self):
        sim = Simulator()
        hub = TelemetryHub(sim, max_events=100)
        sampler = Sampler(sim, interval=10, capacity=2)
        series = sampler.add("x", lambda: 1.0)
        for t in range(5):
            series.record(t, float(t))
        trace = chrome_trace(hub, [sampler])
        assert trace["otherData"]["samples_dropped"] == 3
        assert trace["otherData"]["dropped"] == 0


# ---------------------------------------------------------------------------
# the flight recorder


def _run_exerciser(seed: int, recorder: bool):
    kernel = build_exerciser(2, ExerciserParams(threads=6), seed=seed)
    rec = FlightRecorder(kernel, capacity=256) if recorder else None
    metrics = kernel.run(warmup_cycles=10_000, measure_cycles=30_000)
    if rec is not None:
        rec.detach()
    return kernel, metrics, rec


class TestFlightRecorder:
    def test_recorder_off_is_byte_identical(self):
        plain_kernel, plain_metrics, _ = _run_exerciser(11, recorder=False)
        rec_kernel, rec_metrics, rec = _run_exerciser(11, recorder=True)
        assert rec is not None and rec.recorded > 0
        # Identical simulated world: same final time, same metric
        # summary to the byte, same kernel counters.
        assert rec_kernel.sim.now == plain_kernel.sim.now
        assert rec_metrics.summary() == plain_metrics.summary()
        assert (rec_kernel.stats["context_switches"].total
                == plain_kernel.stats["context_switches"].total)
        assert rec_kernel.total_migrations == plain_kernel.total_migrations

    def test_ring_is_bounded_and_counts_drops(self):
        kernel = build_exerciser(1, ExerciserParams(threads=4), seed=5)
        recorder = FlightRecorder(kernel, capacity=16)
        kernel.run(warmup_cycles=5_000, measure_cycles=20_000)
        assert len(recorder.ring) <= 16
        assert recorder.recorded == len(recorder.ring) + recorder.dropped
        assert recorder.dropped > 0
        recorder.detach()

    def test_hot_categories_stay_dark(self):
        kernel = build_exerciser(1, ExerciserParams(threads=2), seed=5)
        recorder = FlightRecorder(kernel, capacity=64)
        kernel.run(warmup_cycles=5_000, measure_cycles=10_000)
        names = {event.name for event in recorder.events()}
        assert any(name.startswith("sched.") for name in names)
        assert not any(name.startswith("bus.") for name in names)
        recorder.detach()

    def test_detach_restores_inert_probes(self):
        from repro.telemetry.probe import NULL_PROBE

        kernel = build_exerciser(1, ExerciserParams(threads=2), seed=5)
        recorder = FlightRecorder(kernel)
        assert kernel.probe is not NULL_PROBE
        recorder.detach()
        assert kernel.probe is NULL_PROBE
        assert kernel.machine.mbus.probe is NULL_PROBE


# ---------------------------------------------------------------------------
# deadlock edges


class TestDeadlockEdges:
    def test_event_level_edges_in_message(self):
        sim = Simulator()
        resource = sim.resource("the-bus")

        def hog():
            yield resource.acquire()
            yield sim.timeout(10)
            # never releases

        def waiter():
            yield sim.timeout(5)
            yield resource.acquire()

        sim.process(hog(), "hog")
        sim.process(waiter(), "waiter")
        with pytest.raises(DeadlockError) as exc_info:
            sim.run(check_deadlock=True)
        error = exc_info.value
        assert "wait-for" in str(error)
        assert ("waiter", "resource:the-bus", "hog") in error.edges

    def test_kernel_detects_thread_deadlock_early(self):
        kernel = TopazKernel.build(processors=2, threads_hint=4, seed=9)
        a = kernel.mutex("a")
        b = kernel.mutex("b")

        def grab(first, second):
            yield ops.Compute(20)
            yield ops.Lock(first)
            yield ops.Compute(300)
            yield ops.Lock(second)
            yield ops.Unlock(second)
            yield ops.Unlock(first)

        kernel.fork(grab, a, b, name="t-ab")
        kernel.fork(grab, b, a, name="t-ba")
        with pytest.raises(DeadlockError) as exc_info:
            kernel.run_until_quiescent(max_cycles=10_000_000,
                                       slice_cycles=5_000)
        error = exc_info.value
        # Early detection: the first post-block slice, not the horizon.
        assert error.now is not None and error.now <= 50_000
        assert ("t-ab", "lock:b", "t-ba") in error.edges
        assert ("t-ba", "lock:a", "t-ab") in error.edges
        assert "held by" in str(error)

    def test_deadlock_error_is_simulation_error(self):
        assert issubclass(DeadlockError, SimulationError)


# ---------------------------------------------------------------------------
# exact-sum decomposition


class TestExactSum:
    @pytest.mark.slow
    def test_rpc_segments_sum_exactly(self):
        from repro.workloads.rpc_server import RpcWorkload

        workload = RpcWorkload(processors=5, client_threads=3, seed=1987)
        hub, tracer = trace_requests(workload.kernel,
                                     transport=workload.transport)
        workload.run(warmup_cycles=100_000, measure_cycles=600_000)
        tracer.close()
        assert tracer.assembled >= 3
        for record in tracer.finished:
            assert sum(record.segments.values()) == record.turnaround, \
                record.to_dict()
            assert all(v >= 0 for v in record.segments.values())
        stats = tracer.percentiles("rpc")
        assert stats["count"] == tracer.assembled
        assert stats["p50"] > 0
        means = tracer.segment_means("rpc")
        assert set(means) == set(SEGMENTS)
        # An RPC over the wire spends most of its life in transfer.
        assert means["transfer"] > means["run"]
        assert "rpc" in tracer.render()

    def test_scripted_decomposition_is_exact(self):
        """A hand-scripted request whose segments are known a priori."""
        sim = Simulator()
        hub = TelemetryHub(sim, max_events=0)
        tracer = RequestTracer(hub)
        sched = hub.probe("sched")
        bus = hub.probe("bus")
        rpc = hub.probe("rpc")

        # Request window [100, 600).  Timeline:
        #   [80, 200)  running on cpu0, one bus op (arb 10 + xfer 10),
        #              blocks on lock:m at 200
        #   [200, 300) blocked (ready mark at 300)
        #   [300, 350) runnable, queued
        #   [350, 450) running, preempted
        #   [450, 500) runnable, queued
        #   [500, 700) running; request completes at 600
        sched.instant_at("sched.ready", "sched", 50, tid=1)
        bus.complete("bus.op", "bus", 130, 10, initiator=0, wait=10)
        sched.complete("sched.run", "cpu0", 80, 120, tid=1,
                       reason="lock:m")
        sched.instant_at("sched.ready", "sched", 300, tid=1)
        sched.complete("sched.run", "cpu0", 350, 100, tid=1,
                       reason="preempt")
        sched.instant_at("sched.ready", "sched", 450, tid=1)
        rpc.complete("rpc.call", "rpc", 100, 500, tid=1, cls="rpc",
                     trace=1, span=1, parent_span=0, thread="t")
        sched.complete("sched.run", "cpu0", 500, 200, tid=1,
                       reason="yield")

        assert tracer.assembled == 1
        record = tracer.finished[0]
        assert record.complete
        assert record.segments == {
            "run": 280, "sched_wait": 100, "bus_arb_wait": 10,
            "transfer": 10, "blocked_on_lock": 100,
            "backoff": 0, "hedge_wait": 0,
        }
        assert sum(record.segments.values()) == record.turnaround == 500


def _unbounded_bus_overlap(ops, a, b):
    """The scan ``_bus_overlap`` replaced: every op from the oldest."""
    waits, xfers = [], []
    for (req, grant, release) in ops:
        if release <= a:
            continue
        if req >= b:
            break
        if min(grant, b) > max(req, a):
            waits.append((max(req, a), min(grant, b)))
        if min(release, b) > max(grant, a):
            xfers.append((max(grant, a), min(release, b)))
    xfer_total = _union_length(xfers)
    return _union_length(waits + xfers) - xfer_total, xfer_total


class TestBusOverlapScan:
    def test_matches_the_unbounded_scan_on_a_long_random_ring(
            self, monkeypatch):
        """Ops serialised like the MBus's (release order), requests out
        of order (a prefetch queued behind the demand stream), and a
        ring cap small enough to trim many times."""
        import random
        from collections import deque

        from repro.causal import assemble

        cap = 257
        monkeypatch.setattr(assemble, "_MAX_BUS_OPS_PER_CPU", cap)
        gen = random.Random(1987)
        hub = TelemetryHub(Simulator(), max_events=0)
        tracer = RequestTracer(hub)
        bus = hub.probe("bus")
        reference = deque(maxlen=cap)
        request = free = 0
        for _ in range(3_000):
            request = max(0, request + gen.randint(-15, 40))
            grant = max(request, free) + gen.randint(0, 6)
            release = free = grant + gen.choice((2, 2, 4))
            bus.complete("bus.op", "bus", grant, release - grant,
                         initiator=0, wait=grant - request)
            reference.append((request, grant, release))
            for _ in range(3):
                a = gen.randint(max(0, release - 20_000), release)
                b = a + gen.randint(0, 400)
                assert tracer._bus_overlap(0, a, b) \
                    == _unbounded_bus_overlap(reference, a, b), (a, b)

    def test_real_rings_are_in_release_order(self):
        kernel = build_exerciser(4, ExerciserParams(threads=8), seed=1987)
        hub, tracer = trace_requests(kernel)
        kernel.run(warmup_cycles=10_000, measure_cycles=30_000)
        assert tracer._bus
        for ring in tracer._bus.values():
            releases = [release for (release, _req, _grant) in ring]
            assert releases == sorted(releases)


# ---------------------------------------------------------------------------
# chrome export: flow arrows and pid grouping


class TestChromeCausalExport:
    def _run_with_prefix(self, prefix):
        # Fork/join + lock contention *under* the hub so the kernel
        # emits causal.fork and causal.wake instants.
        kernel = TopazKernel.build(processors=2, threads_hint=8, seed=13)
        hub = TelemetryHub(kernel.sim, max_events=200_000)
        attach_kernel(hub, kernel, prefix)
        lock = kernel.mutex("m")

        def child():
            yield ops.Lock(lock)
            yield ops.Compute(200)
            yield ops.Unlock(lock)

        def parent():
            kids = []
            for _ in range(3):
                kid = yield ops.Fork(child, name="kid")
                kids.append(kid)
            for kid in kids:
                yield ops.Join(kid)

        kernel.fork(parent, name="parent")
        kernel.run_until_quiescent(max_cycles=500_000)
        return hub

    def test_flow_arrows_pair_up(self):
        hub = self._run_with_prefix("")
        trace = chrome_trace(hub)
        starts = [e for e in trace["traceEvents"] if e.get("ph") == "s"]
        ends = [e for e in trace["traceEvents"] if e.get("ph") == "f"]
        assert starts, "no causal flow arrows exported"
        assert len(starts) == len(ends)
        assert {e["id"] for e in starts} == {e["id"] for e in ends}
        assert all(e.get("bp") == "e" for e in ends)
        # Every arrow ends at or after it starts.
        by_id = {e["id"]: e for e in starts}
        for end in ends:
            assert end["ts"] >= by_id[end["id"]]["ts"]

    def test_dotted_tracks_group_into_processes(self):
        hub = self._run_with_prefix("m1.")
        trace = chrome_trace(hub)
        names = {e["args"]["name"] for e in trace["traceEvents"]
                 if e.get("name") == "process_name"}
        assert "firefly-sim:m1" in names
        m1_pids = {e["pid"] for e in trace["traceEvents"]
                   if e.get("name") == "process_name"
                   and e["args"]["name"] == "firefly-sim:m1"}
        assert m1_pids and 0 not in m1_pids
        # Thread names are the local leaf, not the dotted track.
        thread_names = {e["args"]["name"] for e in trace["traceEvents"]
                        if e.get("name") == "thread_name"}
        assert any(name.startswith("cpu") for name in thread_names)
        assert not any("." in name for name in thread_names)


# ---------------------------------------------------------------------------
# bench gate plumbing (the wall-clock ratios themselves are measured by
# `firefly-sim bench`, not asserted here — CI hosts are too noisy)


class TestOverheadGate:
    def test_recorder_gate_composes_into_ok(self, monkeypatch):
        from repro.observatory import bench

        monkeypatch.setattr(bench, "_overhead_run",
                            lambda attach, horizon, seed: 1.005
                            if attach else 1.0)
        monkeypatch.setattr(bench, "_recorder_run",
                            lambda horizon, seed: 1.01)
        result = bench.measure_overhead(quick=True)
        assert result["recorder_ratio"] == pytest.approx(1.01)
        assert result["recorder_ok"] is True
        assert result["ok"] is True

        monkeypatch.setattr(bench, "_recorder_run",
                            lambda horizon, seed: 1.10)
        result = bench.measure_overhead(quick=True)
        assert result["recorder_ok"] is False
        assert result["ok"] is False  # recorder breach fails the gate

    def test_chaos_outcome_carries_crash_key(self):
        from repro.faults.chaos import ScenarioOutcome

        outcome = ScenarioOutcome(name="x", description="d", seed=1,
                                  warmup=0, measure=0)
        assert outcome.to_dict()["crash"] is None
