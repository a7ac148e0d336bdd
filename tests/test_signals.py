"""Unit tests for the Figure 4 timing diagram, drawn from ``bus.op`` events."""

import pytest

from repro.bus.signals import TimingDiagram, signal_events
from repro.common.events import Simulator
from repro.common.types import MBUS_OP_CYCLES, BusOp
from repro.telemetry import TelemetryHub


class BusOps:
    """Emits ``bus.op`` events as the MBus does, through a buffering
    hub's bus probe, for tenures the test places itself."""

    def __init__(self):
        self.hub = TelemetryHub(Simulator())
        self.probe = self.hub.probe("bus")

    def read(self, start=0, shared=False, supplied=False):
        self._emit(BusOp.MREAD, 0, start, shared, supplied)

    def write(self, start=0, shared=False):
        self._emit(BusOp.MWRITE, 1, start, shared, False)

    def _emit(self, op, initiator, start, shared, supplied):
        self.probe.complete("bus.op", "bus", start, MBUS_OP_CYCLES,
                            op=op.value, address=0x40, initiator=initiator,
                            wait=0, shared=shared, cache_supplied=supplied,
                            victim=False)

    @property
    def events(self):
        return self.hub.events_named("bus.op")

    def cycles(self, index=0):
        return {e.signal: e.cycle for e in signal_events(self.events[index])}


@pytest.fixture
def bus():
    return BusOps()


class TestBusOpSignals:
    def test_read_cycle_layout(self, bus):
        """The Figure 4 layout: address@1, probe@2, MShared@3, data@4."""
        bus.read(start=10, shared=True, supplied=True)
        events = bus.cycles()
        assert events["Arbitrate"] == 10
        assert events["Address"] == 10
        assert events["TagProbe"] == 11
        assert events["MShared"] == 12
        assert events["ReadData"] == 13

    def test_write_carries_data_in_cycle_two(self, bus):
        bus.write(start=0)
        events = bus.cycles()
        assert events["WriteData"] == 1
        assert "ReadData" not in events

    def test_no_mshared_event_when_unshared(self, bus):
        bus.read(shared=False)
        assert "MShared" not in bus.cycles()

    def test_data_source_annotation(self, bus):
        bus.read(shared=True, supplied=True)
        read_data = [e for e in signal_events(bus.events[0])
                     if e.signal == "ReadData"][0]
        assert "inhibited" in read_data.detail

    def test_end_cycle(self, bus):
        """A tenure granted at cycle 8 occupies cycles 8-11."""
        bus.read(start=8)
        header = TimingDiagram(bus.events).render().splitlines()[0]
        assert header.split("|")[1:-1] == ["  8 ", "  9 ", " 10 ", " 11 "]


class TestTimingDiagram:
    def test_renders_all_signal_rows(self, bus):
        bus.read(shared=True, supplied=True)
        text = TimingDiagram(bus.events).render()
        for signal in TimingDiagram.SIGNAL_ORDER:
            assert signal in text

    def test_empty_trace(self):
        text = TimingDiagram([]).render()
        assert "no transactions" in text

    def test_back_to_back_operations(self, bus):
        bus.read(start=0)
        bus.write(start=4, shared=True)
        text = TimingDiagram(bus.events).render()
        assert "MRead@0" in text
        assert "MWrite@4 (MShared)" in text

    def test_window_selection(self, bus):
        for i in range(5):
            bus.read(start=i * 4)
        text = TimingDiagram(bus.events).render(first=2, count=2)
        assert "MRead@8" in text and "MRead@12" in text
        assert "MRead@0" not in text
