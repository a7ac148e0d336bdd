"""The event wheel against its oracle: a plain binary heap.

The event wheel exists purely for host throughput.  These tests pin
the contract from docs/PERFORMANCE.md: for any schedule — adversarial
ones included — the wheel dispatches events in exactly the ``(time,
seq)`` order a binary heap pops them, so every simulated metric and
every telemetry event is identical.  The heap lives here, not in the
simulator: :func:`engine` swaps it in for every :class:`Simulator`
built inside the context.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from heapq import heappop, heappush

import pytest

from repro.common import events
from repro.common.errors import SimulationError
from repro.common.events import WHEEL_SIZE, Simulator
from repro.system import FireflyConfig, FireflyMachine
from repro.telemetry import telemetry_for_machine

ENGINES = ("wheel", "heap")


class HeapScheduler:
    """The pop-order oracle: pending events in a binary heap.

    Entries are ``(time, seq, proc, value, callback)`` tuples popped in
    ``(time, seq)`` order — ``seq`` is the simulator's global schedule
    counter, so same-time events resume in scheduling order.  It offers
    the wheel's interface (``push``, ``peek``, ``drain``, ``len``).
    """

    def __init__(self, sim) -> None:
        self._heap = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time, seq, proc, value, callback) -> None:
        heappush(self._heap, (time, seq, proc, value, callback))

    def peek(self):
        return self._heap[0][0] if self._heap else None

    def drain(self, sim, limit) -> None:
        """Dispatch all events, or those with ``time <= limit``."""
        heap = self._heap
        while heap and (limit is None or heap[0][0] <= limit):
            time, _, proc, value, callback = heappop(heap)
            sim.now = time
            if callback is None:
                if proc is not None:
                    proc._step(value)
            else:
                sim._current = None
                callback()


@contextmanager
def engine(name: str, wheel_size: int = WHEEL_SIZE):
    """Every Simulator built inside runs on ``name``: the production
    wheel (of ``wheel_size`` slots) or the heap oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(events, "WHEEL_SIZE", wheel_size)
        if name == "heap":
            patch.setattr(events, "_WheelScheduler", HeapScheduler)
        yield

#: Adversarial delay palette: same-tick ties (0 twice), dense small
#: delays, the wheel-size boundary itself, and far-future overflow.
DELAYS = (0, 0, 1, 1, 2, 3, 7, 64, 1023, 1024, 1500, 4096)

SEEDS = range(1987, 2002)


def _schedule_log(name: str, seed: int, wheel_size: int = WHEEL_SIZE,
                  until=None) -> list:
    """Dispatch log of one randomized adversarial schedule.

    The schedule is generated *outside* the simulation from ``seed``,
    so both engines replay the identical script: worker processes
    cycling through pre-drawn delay plans (including zero-delay
    self-reschedules and same-tick ties) plus bare callback chains
    whose offsets cross the wheel's horizon repeatedly.
    """
    with engine(name, wheel_size):
        sim = Simulator()
    if name == "heap":
        assert isinstance(sim._sched, HeapScheduler)
    else:
        assert len(sim._sched._slots) == wheel_size
    rng = random.Random(seed)
    plans = [[rng.choice(DELAYS) for _ in range(30)] for _ in range(12)]
    chains = [[rng.choice(DELAYS) for _ in range(10)] for _ in range(6)]
    log = []

    def worker(wid, plan):
        for delay in plan:
            yield sim.timeout(delay)
            log.append(("proc", wid, sim.now))

    for wid, plan in enumerate(plans):
        sim.process(worker(wid, plan), name=f"w{wid}")

    def start_chain(cid, offsets):
        pending = iter(offsets)

        def fire():
            log.append(("call", cid, sim.now))
            nxt = next(pending, None)
            if nxt is not None:
                sim.call_at(nxt, fire)

        sim.call_at(next(pending), fire)

    for cid, offsets in enumerate(chains):
        start_chain(cid, offsets)

    if until is None:
        sim.run()
    else:
        sim.run_until(until)
        log.append(("peek", sim.peek(), sim.now))
        sim.run()
    return log


class TestPopOrderEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_wheel_matches_heap(self, seed):
        assert _schedule_log("wheel", seed) == _schedule_log("heap", seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tiny_wheel_forces_overflow_churn(self, seed):
        """wheel_size=4 pushes almost every delay through the overflow
        heap and its migration path; order must still be exact."""
        assert (_schedule_log("wheel", seed, wheel_size=4)
                == _schedule_log("heap", seed))

    @pytest.mark.parametrize("seed", (1987, 1993))
    def test_run_until_then_run(self, seed):
        """Partial drains and peek() agree mid-schedule too."""
        assert (_schedule_log("wheel", seed, until=900)
                == _schedule_log("heap", seed, until=900))

    def test_zero_delay_storm(self):
        """Zero-delay self-reschedules dispatch in schedule order
        within one tick, identically on both engines."""
        logs = {}
        for name in ENGINES:
            with engine(name):
                sim = Simulator()
            log = []

            def storm(wid, sim=sim, log=log):
                for hop in range(50):
                    yield sim.timeout(0)
                    log.append((wid, hop, sim.now))

            for wid in range(8):
                sim.process(storm(wid), name=f"s{wid}")
            sim.run()
            logs[name] = log
        assert logs["wheel"] == logs["heap"]
        assert all(entry[2] == 0 for entry in logs["wheel"])

    def test_lone_far_future_sleeper_skips_rotation(self):
        """An empty wheel jumps straight to the overflow head."""
        for name in ENGINES:
            with engine(name):
                sim = Simulator()
            fired = []
            sim.call_at(10 * WHEEL_SIZE, lambda: fired.append(sim.now))
            sim.run()
            assert fired == [10 * WHEEL_SIZE]
            assert sim.now == 10 * WHEEL_SIZE


def _run_machine(name: str, seed: int = 1987,
                 with_telemetry: bool = False):
    with engine(name):
        machine = FireflyMachine(FireflyConfig(processors=2, seed=seed))
    assert isinstance(machine.sim._sched, HeapScheduler) == (name == "heap")
    hub = None
    if with_telemetry:
        hub, sampler = telemetry_for_machine(machine)
        sampler.start()
    metrics = machine.run(warmup_cycles=2_000, measure_cycles=10_000)
    return metrics.to_dict(), (hub.emitted if hub is not None else None)


class TestModelEquivalence:
    def test_exerciser_metrics_identical(self):
        wheel, _ = _run_machine("wheel")
        heap, _ = _run_machine("heap")
        assert wheel == heap

    def test_telemetry_event_counts_identical(self):
        wheel_metrics, wheel_events = _run_machine("wheel",
                                                   with_telemetry=True)
        heap_metrics, heap_events = _run_machine("heap",
                                                 with_telemetry=True)
        assert wheel_metrics == heap_metrics
        assert wheel_events == heap_events
        assert wheel_events > 0

    def test_core_microbench_metrics_identical(self):
        from repro.observatory.bench import SCENARIOS

        scenario = next(s for s in SCENARIOS
                        if s.name == "core-microbench")
        results = {}
        for name in ENGINES:
            with engine(name):
                results[name] = scenario.runner(scenario, scenario.quick,
                                                1987)
        assert results["wheel"] == results["heap"]
        cycles, metrics = results["wheel"]
        assert cycles == scenario.quick.total
        assert metrics["events_scheduled"] > 0
        assert metrics["grants"] > 0


class TestSchedulingErrorContext:
    def test_negative_timeout_names_process_and_now(self):
        sim = Simulator()

        def offender():
            yield sim.timeout(5)
            yield sim.timeout(-3)

        sim.process(offender(), name="culprit")
        with pytest.raises(SimulationError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "-3" in message
        assert "now=5" in message
        assert "'culprit'" in message

    def test_negative_call_at_names_delay_and_now(self):
        sim = Simulator()
        sim.call_at(7, lambda: None)
        sim.run()
        with pytest.raises(SimulationError) as excinfo:
            sim.call_at(-2, lambda: None)
        message = str(excinfo.value)
        assert "-2" in message
        assert "now=7" in message
