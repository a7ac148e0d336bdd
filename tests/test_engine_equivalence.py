"""The event queue against the calendar wheel it replaced.

Every simulated statistic depends on the order events leave the
queue.  The binary heap pops them in ``(time, seq)`` order; the wheel
that preceded it was held to that same order against a heap oracle.
The digests below were computed on the wheel, so they hold the heap
to that engine's dispatch order: schedule by schedule for randomized
adversarial schedules, partial drains and a zero-delay storm, and as
whole metric records for machine runs.  A mutation test shows the
pins can fail.
"""

from __future__ import annotations

import hashlib
import random
from heapq import heappop, heappush

import pytest

from repro.common import events
from repro.common.events import Simulator
from repro.system import FireflyConfig, FireflyMachine
from repro.telemetry import telemetry_for_machine

#: Adversarial delay palette: same-tick ties (0 twice), dense small
#: delays and long ones; 1023 and 1024 straddled the wheel's horizon.
DELAYS = (0, 0, 1, 1, 2, 3, 7, 64, 1023, 1024, 1500, 4096)

SEEDS = range(1987, 2002)

#: Digest of ``_schedule_log(seed)`` on the wheel, per seed; every log
#: holds 420 dispatches.
WHEEL_DIGESTS = {
    1987: "4de9092d1d87e793", 1988: "f22d64a15cefff71",
    1989: "0a0b72c7447a4a8a", 1990: "48c5fd099ccaff0f",
    1991: "d9a83d3785dcd804", 1992: "82efb43e245d0914",
    1993: "d224818099a0e3da", 1994: "349a5c336360207e",
    1995: "8b31b72f868671bd", 1996: "271e278f25f8ced2",
    1997: "27c1fc3f877594d6", 1998: "783243a0fd168453",
    1999: "6aab42c320469efb", 2000: "39889d23eac15f3c",
    2001: "2de843a75861e911",
}

#: Digest of ``_schedule_log(seed, until=900)`` on the wheel.
PARTIAL_DRAIN_DIGESTS = {1987: "dbb01219e9743e8b",
                         1993: "34f6d454bea0fa3b"}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _schedule_log(seed: int, until=None) -> list:
    """Dispatch log of one randomized adversarial schedule.

    The schedule is generated *outside* the simulation from ``seed``:
    worker processes cycling through pre-drawn delay plans (including
    zero-delay self-reschedules and same-tick ties) plus bare callback
    chains with the same delays.
    """
    sim = Simulator()
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
        log = _schedule_log(seed)
        assert len(log) == 420
        assert _digest(log) == WHEEL_DIGESTS[seed]

    @pytest.mark.parametrize("seed", (1987, 1993))
    def test_run_until_then_run(self, seed):
        """Partial drains and peek() mid-schedule."""
        log = _schedule_log(seed, until=900)
        assert _digest(log) == PARTIAL_DRAIN_DIGESTS[seed]

    def test_zero_delay_storm(self, sim):
        """Zero-delay self-reschedules dispatch in schedule order
        within one tick."""
        log = []

        def storm(wid):
            for hop in range(50):
                yield sim.timeout(0)
                log.append((wid, hop, sim.now))

        for wid in range(8):
            sim.process(storm(wid), name=f"s{wid}")
        sim.run()
        assert all(entry[2] == 0 for entry in log)
        assert _digest(log) == "e15eecfaf11ce2cf"

    def test_lone_far_future_sleeper_skips_rotation(self, sim,
                                                    monkeypatch):
        """A lone far-future event is reached in one pop, with no
        per-tick work in between; the wheel had to jump its empty
        slots to reach it."""
        pops = []

        def counting_pop(heap):
            pops.append(heap[0][0])
            return heappop(heap)

        monkeypatch.setattr(events, "heappop", counting_pop)
        fired = []
        sim.call_at(10_240, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10_240]
        assert sim.now == 10_240
        assert pops == [10_240]

    def test_lifo_ties_change_the_digest(self, monkeypatch):
        """Mutation check: breaking same-time ties last-in-first-out
        must move every seed's pinned digest."""
        def lifo_push(heap, entry):
            heappush(heap, (entry[0], -entry[1]) + entry[2:])

        monkeypatch.setattr(events, "heappush", lifo_push)
        moved = [seed for seed in SEEDS
                 if _digest(_schedule_log(seed)) != WHEEL_DIGESTS[seed]]
        assert moved == list(SEEDS)


def _run_machine(with_telemetry: bool = False):
    machine = FireflyMachine(FireflyConfig(processors=2, seed=1987))
    hub = None
    if with_telemetry:
        hub, sampler = telemetry_for_machine(machine)
        sampler.start()
    metrics = machine.run(warmup_cycles=2_000, measure_cycles=10_000)
    return metrics.to_dict(), (hub.emitted if hub is not None else None)


#: Digest of the 2-CPU exerciser's ``MachineMetrics.to_dict()`` at seed
#: 1987 on the wheel; telemetry leaves it unchanged.
EXERCISER_DIGEST = "4cefae01c6f2e5e5"


class TestModelEquivalence:
    def test_exerciser_metrics_identical(self):
        metrics, _ = _run_machine()
        assert _digest(metrics) == EXERCISER_DIGEST

    def test_telemetry_event_counts_identical(self):
        metrics, emitted = _run_machine(with_telemetry=True)
        assert _digest(metrics) == EXERCISER_DIGEST
        assert emitted == 2262

    def test_core_microbench_metrics_identical(self):
        from repro.observatory.bench import SCENARIOS

        scenario = next(s for s in SCENARIOS
                        if s.name == "core-microbench")
        result = scenario.runner(scenario, scenario.quick, 1987)
        assert _digest(result) == "edd0c49de8bcf0b0"
        cycles, metrics = result
        assert cycles == scenario.quick.total
        assert metrics["events_scheduled"] > 0
        assert metrics["grants"] > 0
