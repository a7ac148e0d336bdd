"""Unit tests for the MBus model."""

import pytest

from repro.bus.mbus import MBus, SnoopResult
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.events import Simulator
from repro.common.types import MBUS_OP_CYCLES, BusOp
from repro.memory.main_memory import MainMemory, MemoryModule
from repro.telemetry import TelemetryHub


def _bus(words_per_line=1):
    sim = Simulator()
    memory = MainMemory([MemoryModule(0, 1 << 16, is_master=True)],
                        words_per_line=words_per_line)
    return sim, memory, MBus(sim, memory, words_per_line=words_per_line)


class FakeSnooper:
    """A scriptable snooper for bus-level tests."""

    def __init__(self, snooper_id, shared=False, data=None,
                 write_back=False):
        self.snooper_id = snooper_id
        self.result = SnoopResult(shared=shared, data=data,
                                  write_back=write_back)
        self.observed = []

    def snoop(self, op, line_address, data):
        self.observed.append((op, line_address, data))
        return self.result


def run(sim, gen):
    proc = sim.process(gen, "t")
    sim.run()
    assert proc.done
    return proc.result


class TestTransactions:
    def test_read_takes_four_cycles(self):
        sim, memory, bus = _bus()
        memory.poke(5, 99)

        def gen():
            txn = yield from bus.transaction(0, BusOp.MREAD, 5, initiator=0)
            return txn, sim.now

        txn, end = run(sim, gen())
        assert end == MBUS_OP_CYCLES
        assert txn.data == 99
        assert not txn.shared_response

    def test_write_updates_memory(self):
        sim, memory, bus = _bus()

        def gen():
            yield from bus.transaction(0, BusOp.MWRITE, 7, initiator=0,
                                       data=(123,))

        run(sim, gen())
        assert memory.peek(7) == 123

    def test_write_requires_data(self):
        sim, _, bus = _bus()

        def gen():
            yield from bus.transaction(0, BusOp.MWRITE, 7, initiator=0)

        with pytest.raises(SimulationError):
            run(sim, gen())

    def test_unaligned_line_rejected(self):
        sim, _, bus = _bus(words_per_line=4)

        def gen():
            yield from bus.transaction(0, BusOp.MREAD, 6, initiator=0)

        with pytest.raises(SimulationError):
            run(sim, gen())

    def test_callable_payload_evaluated_at_grant(self):
        """The merged-payload hook: late evaluation sees late changes."""
        sim, memory, bus = _bus()
        box = {"value": 1}

        def holder():
            yield from bus.transaction(0, BusOp.MWRITE, 0, initiator=0,
                                       data=(0,))
            box["value"] = 2

        def writer():
            yield sim.timeout(1)  # queue behind the holder
            yield from bus.transaction(1, BusOp.MWRITE, 4, initiator=1,
                                       data=lambda: (box["value"],))

        sim.process(holder())
        sim.process(writer())
        sim.run()
        assert memory.peek(4) == 2

    def test_update_memory_false_skips_memory(self):
        sim, memory, bus = _bus()
        memory.poke(3, 50)

        def gen():
            yield from bus.transaction(0, BusOp.MWRITE, 3, initiator=0,
                                       data=(99,), update_memory=False)

        run(sim, gen())
        assert memory.peek(3) == 50


class TestSnooping:
    def test_initiator_excluded_from_fanout(self):
        sim, _, bus = _bus()
        me = FakeSnooper(0)
        other = FakeSnooper(1)
        bus.attach_snooper(me)
        bus.attach_snooper(other)

        def gen():
            yield from bus.transaction(0, BusOp.MREAD, 8, initiator=0)

        run(sim, gen())
        assert me.observed == []
        assert len(other.observed) == 1

    def test_mshared_response_reaches_initiator(self):
        sim, _, bus = _bus()
        bus.attach_snooper(FakeSnooper(1, shared=True))

        def gen():
            txn = yield from bus.transaction(0, BusOp.MREAD, 8, initiator=0)
            return txn

        txn = run(sim, gen())
        assert txn.shared_response

    def test_cache_supplied_data_inhibits_memory(self):
        sim, memory, bus = _bus()
        memory.poke(8, 111)  # stale
        bus.attach_snooper(FakeSnooper(1, shared=True, data=(222,)))

        def gen():
            txn = yield from bus.transaction(0, BusOp.MREAD, 8, initiator=0)
            return txn

        txn = run(sim, gen())
        assert txn.data == 222
        assert txn.supplied_by_cache
        assert memory.peek(8) == 111  # inhibited, not snarfed

    def test_write_back_snarfs_into_memory(self):
        sim, memory, bus = _bus()
        bus.attach_snooper(FakeSnooper(1, shared=True, data=(222,),
                                       write_back=True))

        def gen():
            txn = yield from bus.transaction(0, BusOp.MREAD, 8, initiator=0)
            return txn

        txn = run(sim, gen())
        assert txn.data == 222
        assert memory.peek(8) == 222  # Illinois-style reflection

    def test_conflicting_suppliers_detected(self):
        sim, _, bus = _bus()
        bus.attach_snooper(FakeSnooper(1, shared=True, data=(1,)))
        bus.attach_snooper(FakeSnooper(2, shared=True, data=(2,)))

        def gen():
            yield from bus.transaction(0, BusOp.MREAD, 8, initiator=0)

        with pytest.raises(SimulationError):
            run(sim, gen())

    def test_duplicate_snooper_rejected(self):
        _, _, bus = _bus()
        bus.attach_snooper(FakeSnooper(1))
        with pytest.raises(ConfigurationError):
            bus.attach_snooper(FakeSnooper(1))


class TestArbitration:
    def test_transactions_serialise(self):
        sim, _, bus = _bus()
        times = []

        def user(priority):
            yield from bus.transaction(priority, BusOp.MREAD, 0,
                                       initiator=priority)
            # The initiator resumes at release, one tenure after grant.
            times.append((priority, sim.now - MBUS_OP_CYCLES))

        sim.process(user(0))
        sim.process(user(1))
        sim.run()
        starts = sorted(start for _, start in times)
        assert starts == [0, MBUS_OP_CYCLES]

    def test_priority_wins_contention(self):
        sim, _, bus = _bus()
        order = []

        def holder():
            yield from bus.transaction(0, BusOp.MREAD, 0, initiator=0)

        def requester(priority):
            yield sim.timeout(1)
            yield from bus.transaction(priority, BusOp.MREAD, 0,
                                       initiator=priority)
            order.append(priority)

        sim.process(holder())
        sim.process(requester(3))
        sim.process(requester(1))
        sim.run()
        assert order == [1, 3]

    def test_busy_property(self):
        sim, _, bus = _bus()
        samples = []

        def user():
            yield from bus.transaction(0, BusOp.MREAD, 0, initiator=0)

        def sampler():
            samples.append(bus.busy)
            yield sim.timeout(2)
            samples.append(bus.busy)
            yield sim.timeout(10)
            samples.append(bus.busy)

        sim.process(sampler())
        sim.process(user())
        sim.run()
        assert samples == [False, True, False]


class TestAccounting:
    def test_utilization_counts_busy_cycles(self):
        sim, _, bus = _bus()

        def gen():
            for _ in range(3):
                yield from bus.transaction(0, BusOp.MREAD, 0, initiator=0)
            yield sim.timeout(28)  # 12 busy of 40 total

        bus.mark_window()
        run(sim, gen())
        assert bus.load() == pytest.approx(0.3)

    def test_write_categories(self):
        sim, _, bus = _bus()
        bus.attach_snooper(FakeSnooper(1, shared=True))

        def gen():
            yield from bus.transaction(0, BusOp.MWRITE, 0, initiator=0,
                                       data=(1,))
            yield from bus.transaction(0, BusOp.MWRITE, 4, initiator=2,
                                       data=(1,), is_victim=True)

        run(sim, gen())
        # Snooper says shared for both; victim categorised separately.
        assert bus.stats["write.mshared"].total == 1
        assert bus.stats["write.victim"].total == 1

    def test_read_supply_categories(self):
        sim, memory, bus = _bus()

        def gen():
            yield from bus.transaction(0, BusOp.MREAD, 0, initiator=0)

        run(sim, gen())
        assert bus.stats["read.memory_supplied"].total == 1

    def test_queue_wait_cycles(self):
        sim, _, bus = _bus()

        def user():
            yield from bus.transaction(0, BusOp.MREAD, 0, initiator=0)

        sim.process(user())
        sim.process(user())
        sim.run()
        assert bus.queue_wait_cycles == MBUS_OP_CYCLES


class TestInterrupts:
    def test_ipi_delivery(self):
        sim, _, bus = _bus()
        got = []
        bus.register_interrupt_handler(2, lambda sender: got.append(sender))
        bus.send_interrupt(2, sender=0)
        assert got == [0]
        assert bus.stats["ipi"].total == 1

    def test_ipi_to_unregistered_target_raises(self):
        _, _, bus = _bus()
        with pytest.raises(ConfigurationError) as excinfo:
            bus.send_interrupt(9, sender=0)
        assert "9" in str(excinfo.value)
        assert bus.stats["ipi"].total == 0  # not counted as delivered


class TestBusOpEvent:
    def test_bus_op_carries_op_and_address(self):
        sim, _, bus = _bus()
        hub = TelemetryHub(sim)
        bus.probe = hub.probe("bus")

        def gen():
            yield from bus.transaction(0, BusOp.MREAD, 12, initiator=0)

        run(sim, gen())
        (event,) = hub.events_named("bus.op")
        args = dict(event.args)
        assert args["op"] == BusOp.MREAD.value and args["address"] == 12
        assert (event.time, event.duration) == (0, MBUS_OP_CYCLES)
