"""The telemetry layer: probes, hub, samplers, exporters, renderers.

Covers the four contract points of docs/TELEMETRY.md:

- subscriber fan-out (prefix matching, unsubscribe);
- the disabled path allocates *nothing* (``hub.emitted`` stays 0);
- the Chrome-trace exporter's golden output for the scripted Figure 4
  two-cache sharing scenario;
- the sampler's bus-load trajectory agrees with the windowed
  ``Utilization.load`` ground truth (property test);
- ``bus.op``, the bus's one per-tenure record, adds up to the MBus
  counters: operations, busy cycles and arbitration wait.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.events import Simulator
from repro.common.stats import Utilization
from repro.common.types import MBUS_OP_CYCLES
from repro.reporting import render_phase_timeline, sparkline
from repro.telemetry import (
    Sampler,
    TelemetryHub,
    attach_machine,
    chrome_trace,
    delta_gauge,
    jsonl_records,
    telemetry_for_machine,
    write_export,
)

from tests.conftest import MiniRig

pytestmark = pytest.mark.telemetry


def _attach_rig(rig: MiniRig) -> TelemetryHub:
    """Wire a hub into a MiniRig (bus + caches, no machine object)."""
    hub = TelemetryHub(rig.sim)
    rig.mbus.probe = hub.probe("bus")
    for cache in rig.caches:
        cache.probe = hub.probe("cache")
    return hub


# -- hub and probes -----------------------------------------------------


class TestHub:
    def test_subscribe_receives_matching_events(self, rig):
        hub = _attach_rig(rig)
        seen = []
        hub.subscribe(seen.append, prefix="bus.")
        rig.read(0, 0x100)
        assert seen, "subscriber saw no bus events"
        assert all(e.name.startswith("bus.") for e in seen)
        # cache events flowed to the hub but not to this subscriber.
        assert hub.events_named("cache.")
        assert not [e for e in seen if e.name.startswith("cache.")]

    def test_unsubscribe_stops_delivery(self, rig):
        hub = _attach_rig(rig)
        seen = []
        fn = hub.subscribe(seen.append)
        rig.read(0, 0x100)
        count = len(seen)
        assert count > 0
        hub.unsubscribe(fn)
        rig.read(1, 0x200)
        assert len(seen) == count

    def test_disabled_hub_emits_nothing(self, rig):
        hub = _attach_rig(rig)
        hub.enabled = False
        rig.read(0, 0x100)
        rig.write(1, 0x100, 7)
        rig.read(1, 0x300)
        assert hub.emitted == 0
        assert len(hub) == 0
        # Re-enabling flips every handed-out probe live again.
        hub.enabled = True
        rig.read(0, 0x500)
        assert hub.emitted > 0

    def test_null_probe_components_cost_nothing(self, rig):
        # No hub attached at all: the default NULL_PROBE path.
        rig.read(0, 0x100)
        rig.write(0, 0x100, 1)
        assert rig.mbus.stats["ops"].total > 0  # the rig did real work

    def test_buffer_bound_counts_drops(self, rig):
        hub = TelemetryHub(rig.sim, max_events=3)
        rig.mbus.probe = hub.probe("bus")
        for i in range(4):
            rig.read(0, 0x100 * (i + 1))
        assert len(hub) == 3
        assert hub.dropped == hub.emitted - 3 > 0


# -- the golden Figure 4 scenario ---------------------------------------


def figure4_rig():
    """The paper's shared-read-then-write sequence on two caches.

    cache0 read-misses a word (memory supplies), cache1 reads the same
    word (cache0 asserts MShared and supplies), then cache0 writes it —
    a conditional write-through that sees MShared asserted.
    """
    rig = MiniRig(protocol="firefly", caches=2)
    hub = _attach_rig(rig)
    rig.read(0, 0x40)
    rig.read(1, 0x40)
    rig.write(0, 0x40, 99)
    return rig, hub


class TestChromeTraceGolden:
    def test_bus_track_sequence(self):
        _, hub = figure4_rig()
        ops = [(dict(e.args)["op"], dict(e.args)["shared"],
                dict(e.args)["cache_supplied"])
               for e in hub.events_named("bus.op")]
        assert ops == [
            ("MRead", False, False),   # cold miss: memory supplies
            ("MRead", True, True),     # sharer asserts MShared, supplies
            ("MWrite", True, False),   # write-through sees MShared
        ]

    def test_cache_transitions_walk_figure3(self):
        _, hub = figure4_rig()
        arcs = [(e.track, dict(e.args)["stimulus"],
                 dict(e.args)["before"], dict(e.args)["after"])
                for e in hub.events_named("cache.transition")]
        assert ("cache0", "Pdread.miss", "INVALID", "VALID") in arcs
        assert ("cache1", "Pdread.miss", "INVALID", "SHARED") in arcs
        # cache0 was snooped by cache1's read: V -> S.
        assert ("cache0", "MMRead", "VALID", "SHARED") in arcs
        # cache0's write hit a SHARED line: write-through, stays SHARED.
        assert ("cache0", "Pwrite.hit", "SHARED", "SHARED") in arcs
        # cache1 was snooped by the write-through and stays SHARED.
        assert ("cache1", "MMWrite", "SHARED", "SHARED") in arcs

    def test_chrome_trace_structure(self, tmp_path):
        _, hub = figure4_rig()
        path = tmp_path / "fig4.trace.json"
        assert write_export(str(path), hub) == "chrome"
        trace = json.loads(path.read_text())

        events = trace["traceEvents"]
        thread_names = {e["tid"]: e["args"]["name"] for e in events
                        if e["name"] == "thread_name"}
        assert set(thread_names.values()) == {"bus", "cache0", "cache1"}

        by_tid = {tid: name for tid, name in thread_names.items()}
        bus_ops = [e for e in events if e["name"] == "bus.op"]
        assert len(bus_ops) == 3
        for op in bus_ops:
            assert op["ph"] == "X"
            assert by_tid[op["tid"]] == "bus"
            # 4 MBus cycles at 100 ns = 0.4 us.
            assert op["dur"] == pytest.approx(MBUS_OP_CYCLES * 0.1)
        # Timestamps ascend along the bus track.
        times = [e["ts"] for e in bus_ops]
        assert times == sorted(times)

        instants = [e for e in events if e["ph"] == "i"]
        assert all(e["s"] == "t" for e in instants)
        assert trace["otherData"]["dropped"] == 0

    def test_jsonl_round_trips(self):
        _, hub = figure4_rig()
        records = list(jsonl_records(hub))
        assert records[0]["type"] == "meta"
        events = [r for r in records if r["type"] == "event"]
        assert len(events) == len(hub.events)
        assert {e["name"] for e in events} >= {"bus.op", "cache.transition"}
        # Every record is JSON-serialisable as-is.
        for record in records:
            json.loads(json.dumps(record))


# -- samplers -----------------------------------------------------------


class TestSampler:
    def test_sampler_ticks_and_stops(self, sim):
        clock = Sampler(sim, interval=10)
        series = clock.add("t", lambda: sim.now)
        clock.start()
        sim.run_until(55)
        assert clock.ticks == 5
        assert series.values() == [10.0, 20.0, 30.0, 40.0, 50.0]
        clock.stop()
        sim.run_until(200)
        assert clock.ticks == 5  # no further samples
        # and the event heap drained (run() would have terminated).

    def test_duplicate_series_rejected(self, sim):
        sampler = Sampler(sim, interval=10)
        sampler.add("x", lambda: 0)
        with pytest.raises(ConfigurationError):
            sampler.add("x", lambda: 1)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 50), st.integers(0, 30)),
                    min_size=1, max_size=30),
           st.integers(7, 40))
    def test_delta_samples_integrate_to_utilization(self, bursts, interval):
        """Σ (sample × Δt) == busy_total == load × elapsed.

        The delta-gauge bus-load samples are interval averages, so
        their time-weighted sum telescopes to the cumulative busy time
        that ``Utilization.load`` divides by the window — the sampled
        trajectory and the windowed scalar must agree exactly at every
        tick boundary, whatever the burst pattern.
        """
        sim = Simulator()
        utilization = Utilization("bus")

        def worker():
            for gap, busy in bursts:
                yield sim.timeout(gap)
                utilization.add_busy(busy)

        sim.process(worker(), "bursts")
        sampler = Sampler(sim, interval=interval)
        series = sampler.add("load", delta_gauge(
            lambda: utilization.busy_total, lambda: sim.now))
        sampler.start()
        horizon = sum(gap for gap, _ in bursts) + interval
        ticks = -(-horizon // interval)  # ceil: land exactly on a tick
        sim.run_until(ticks * interval)
        sampler.stop()

        integrated = sum(v * interval for v in series.values())
        assert integrated == pytest.approx(utilization.busy_total)
        assert integrated == pytest.approx(
            utilization.load(sim.now) * sim.now)

    def test_machine_sampler_matches_bus_load(self):
        """End to end: sampled mean bus load == MachineMetrics bus load."""
        from repro.system import FireflyConfig, FireflyMachine
        machine = FireflyMachine(FireflyConfig(processors=2, seed=7))
        hub, sampler = telemetry_for_machine(machine, interval=1_000)
        sampler.start()
        machine.run(warmup_cycles=0, measure_cycles=20_000)
        sampler.stop()
        values = sampler.series("bus.load").values()
        assert len(values) == 20
        mean = sum(values) / len(values)
        # The samples tile the window exactly, so their mean telescopes
        # to the windowed load; only same-timestamp event ordering at
        # the final boundary can shift a handful of busy cycles.
        assert mean == pytest.approx(machine.mbus.load(), abs=0.01)
        assert hub.events_named("bus.op")


# -- rendering ----------------------------------------------------------


class TestRendering:
    def test_sparkline_shapes(self):
        assert sparkline([0, 1, 2, 3], width=4, lo=0, hi=3) == "▁▃▆█"
        assert sparkline([5, 5, 5], width=8) == "▁▁▁"
        assert sparkline([], width=8) == ""
        assert len(sparkline(list(range(1000)), width=20)) == 20

    def test_phase_timeline_renders(self):
        from repro.system import FireflyConfig, FireflyMachine
        machine = FireflyMachine(FireflyConfig(processors=2, seed=7))
        hub, sampler = telemetry_for_machine(machine, interval=1_000)
        sampler.start()
        machine.run(warmup_cycles=5_000, measure_cycles=10_000)
        sampler.stop()
        text = render_phase_timeline(hub, sampler)
        assert "phase warmup" in text
        assert "phase measure" in text
        assert "bus.load" in text
        assert "event mix" in text


# -- attachment ---------------------------------------------------------


class TestAttachment:
    def test_attach_machine_wires_every_component(self):
        from repro.system import FireflyConfig, FireflyMachine
        machine = FireflyMachine(FireflyConfig(processors=3, seed=7))
        hub = TelemetryHub(machine.sim)
        attach_machine(hub, machine)
        assert machine.probe.active
        assert machine.mbus.probe.active
        assert all(c.probe.active for c in machine.caches)
        machine.run(warmup_cycles=0, measure_cycles=5_000)
        assert {"bus", "machine"} <= set(hub.tracks())


# -- bus.op accounts for the bus ----------------------------------------


def _synthetic_machine():
    from repro.system import FireflyConfig, FireflyMachine
    return FireflyMachine(FireflyConfig(processors=4, seed=1987))


def _exerciser_machine():
    from repro.workloads.threads_exerciser import build_exerciser
    return build_exerciser(5, seed=1987).machine


def bus_ops_to_idle(machine, horizon):
    """The ``bus.op`` events of ``machine`` run to ``horizon`` and then
    one cycle at a time until the bus is idle.

    The step-off matters: the counters count a tenure at its grant,
    while its ``bus.op`` is emitted at its release.
    """
    hub = TelemetryHub(machine.sim, max_events=0)
    attach_machine(hub, machine)
    ops = []
    hub.subscribe(ops.append, prefix="bus.op")
    machine.start()
    sim = machine.sim
    sim.run_until(horizon)
    while machine.mbus.busy:
        sim.run_until(sim.now + 1)
    return ops


def assert_one_record_per_tenure(ops, mbus):
    assert len(ops) == mbus.stats["ops"].total > 0
    for earlier, later in zip(ops, ops[1:]):
        assert later.time >= earlier.time + earlier.duration


class TestBusOpAccounting:
    """``bus.op`` is the bus's one per-tenure record: on a streaming hub
    its events add up to the counters Table 2 reads."""

    @pytest.mark.parametrize("build", [_synthetic_machine,
                                       _exerciser_machine],
                             ids=["synthetic-4cpu", "exerciser-5cpu"])
    def test_events_account_for_the_counters(self, build):
        machine = build()
        ops = bus_ops_to_idle(machine, 30_000)
        mbus = machine.mbus
        assert_one_record_per_tenure(ops, mbus)
        assert sum(e.duration for e in ops) == mbus.utilization.busy_total
        assert (sum(dict(e.args)["wait"] for e in ops)
                == mbus.queue_wait_cycles)

    def test_parity_voided_tenures_make_up_the_rest(self):
        """fireflybench's audit identity: each busy cycle belongs to a
        ``bus.op`` or to a tenure that parity voided."""
        from repro.faults.models import BusFaultModel

        machine = _synthetic_machine()
        machine.mbus.faults = BusFaultModel()
        machine.mbus.faults.arm_corruption(burst=3)
        ops = bus_ops_to_idle(machine, 30_000)
        mbus = machine.mbus
        errors = mbus.stats["parity.errors"].total
        assert errors == 3
        assert_one_record_per_tenure(ops, mbus)
        assert (sum(e.duration for e in ops) + MBUS_OP_CYCLES * errors
                == mbus.utilization.busy_total)
