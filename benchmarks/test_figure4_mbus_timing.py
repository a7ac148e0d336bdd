"""Figure 4 — MBus Timing.

A scripted two-cache scenario runs on the cycle-accurate bus with a
buffering telemetry hub on its probe; the timing diagram is rendered
from the captured ``bus.op`` events, one per tenure.  Assertions pin the figure's content: four
cycles per operation, arbitration + address in cycle 1, write data in
cycle 2, MShared in cycle 3, read data in cycle 4 (from the caches,
memory inhibited, when MShared was asserted).
"""

from repro.bus.mbus import MBus
from repro.bus.signals import TimingDiagram, signal_events
from repro.cache.cache import CacheGeometry, SnoopyCache
from repro.cache.protocols import protocol_by_name
from repro.common.events import Simulator
from repro.common.types import MBUS_OP_CYCLES, AccessKind, MemRef
from repro.memory.main_memory import MainMemory, MemoryModule
from repro.telemetry import TelemetryHub

from conftest import emit


def run_scenario():
    sim = Simulator()
    memory = MainMemory([MemoryModule(0, 1 << 16, is_master=True)])
    bus = MBus(sim, memory)
    hub = TelemetryHub(sim)
    bus.probe = hub.probe("bus")
    protocol = protocol_by_name("firefly")
    cache0 = SnoopyCache(bus, protocol, 0, CacheGeometry(64, 1))
    cache1 = SnoopyCache(bus, protocol, 1, CacheGeometry(64, 1))

    def scenario():
        # 1. cache 0 read-misses: MRead answered by memory.
        yield from cache0.cpu_read(MemRef(40, AccessKind.DATA_READ))
        # 2. cache 0 dirties the line locally (no bus operation).
        yield from cache0.cpu_write(MemRef(40, AccessKind.DATA_WRITE), 7)
        # 3. cache 1 read-misses: MRead answered by cache 0 with
        #    MShared asserted and memory inhibited.
        yield from cache1.cpu_read(MemRef(40, AccessKind.DATA_READ))
        # 4. cache 1 writes the now-shared line: MWrite receiving
        #    MShared (conditional write-through).
        yield from cache1.cpu_write(MemRef(40, AccessKind.DATA_WRITE), 9)

    sim.process(scenario(), "scenario")
    sim.run()
    return hub.events_named("bus.op")


def cycles(op):
    """Each signal's cycle within the tenure ``op`` records."""
    return {e.signal: e.cycle - op.time for e in signal_events(op)}


def test_figure4_mbus_timing(once):
    ops = once(run_scenario)
    diagram = TimingDiagram(ops).render()
    emit("Figure 4: MBus Timing (captured signal trace)", diagram)

    assert len(ops) == 3  # MRead, MRead(MShared), MWrite
    read_plain, read_shared, write_shared = ops

    for op in ops:
        assert op.duration == MBUS_OP_CYCLES
        events = cycles(op)
        assert events["Arbitrate"] == 0
        assert events["Address"] == 0
        assert events["TagProbe"] == 1

    # Plain read: no MShared, data from memory in cycle 4.
    args = dict(read_plain.args)
    assert not args["shared"]
    assert cycles(read_plain)["ReadData"] == 3
    assert not args["cache_supplied"]

    # Shared read: MShared in cycle 3, cache-supplied data in cycle 4.
    args = dict(read_shared.args)
    events = cycles(read_shared)
    assert args["shared"]
    assert events["MShared"] == 2
    assert events["ReadData"] == 3
    assert args["cache_supplied"]

    # Write-through: write data in cycle 2, MShared response in cycle 3.
    events = cycles(write_shared)
    assert dict(write_shared.args)["shared"]
    assert events["WriteData"] == 1
    assert events["MShared"] == 2

    # One transfer per 400 ns: transactions never overlap.
    for earlier, later in zip(ops, ops[1:]):
        assert later.time >= earlier.time + earlier.duration
