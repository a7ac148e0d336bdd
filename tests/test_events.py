"""Unit tests for the discrete-event kernel."""

import pytest

from repro.common.errors import DeadlockError, SimulationError
from repro.common.events import Simulator


class TestTimeouts:
    def test_timeout_advances_clock(self, sim):
        log = []

        def proc():
            yield sim.timeout(5)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [5]

    def test_zero_timeout_runs_same_time(self, sim):
        log = []

        def proc():
            yield sim.timeout(0)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [0]

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_sequential_timeouts_accumulate(self, sim):
        log = []

        def proc():
            for _ in range(3):
                yield sim.timeout(7)
                log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [7, 14, 21]

    def test_interleaving_is_time_ordered(self, sim):
        log = []

        def proc(name, delay):
            yield sim.timeout(delay)
            log.append(name)
            yield sim.timeout(delay)
            log.append(name)

        sim.process(proc("slow", 10))
        sim.process(proc("fast", 3))
        sim.run()
        assert log == ["fast", "fast", "slow", "slow"]


class TestEvents:
    def test_event_delivers_value(self, sim):
        event = sim.event("e")
        got = []

        def waiter():
            value = yield event
            got.append(value)

        def firer():
            yield sim.timeout(4)
            event.succeed(42)

        sim.process(waiter())
        sim.process(firer())
        sim.run()
        assert got == [42]

    def test_multiple_waiters_all_resume(self, sim):
        event = sim.event()
        got = []

        def waiter(i):
            yield event
            got.append(i)

        def firer():
            yield sim.timeout(2)
            event.succeed()

        for i in range(3):
            sim.process(waiter(i))
        sim.process(firer())
        sim.run()
        assert sorted(got) == [0, 1, 2]

    def test_late_waiter_sees_fired_value(self, sim):
        event = sim.event()
        got = []

        def firer():
            event.succeed("early")
            yield sim.timeout(1)

        def late():
            yield sim.timeout(5)
            value = yield event
            got.append(value)

        sim.process(firer())
        sim.process(late())
        sim.run()
        assert got == ["early"]

    def test_double_fire_is_error(self, sim):
        event = sim.event("once")
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fired_and_value_properties(self, sim):
        event = sim.event()
        assert not event.fired
        event.succeed(7)
        assert event.fired
        assert event.value == 7


def self_firing(sim, event):
    def gen():
        yield sim.timeout(2)
        event.succeed()
    return gen()


class TestProcesses:
    def test_join_returns_result(self, sim):
        def child():
            yield sim.timeout(3)
            return "payload"

        def parent():
            proc = sim.process(child(), "child")
            result = yield proc
            return result, sim.now

        parent_proc = sim.process(parent(), "parent")
        sim.run()
        assert parent_proc.result == ("payload", 3)

    def test_join_after_done_is_immediate(self, sim):
        def child():
            return "done"
            yield  # pragma: no cover

        def parent():
            proc = sim.process(child())
            yield sim.timeout(10)
            result = yield proc
            return result

        parent_proc = sim.process(parent())
        sim.run()
        assert parent_proc.result == "done"

    def test_bad_waitable_raises(self, sim):
        def proc():
            yield "not a waitable"

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_done_and_result_flags(self, sim):
        def proc():
            yield sim.timeout(1)
            return 5

        p = sim.process(proc())
        assert not p.done
        sim.run()
        assert p.done and p.result == 5


class TestResources:
    def test_mutual_exclusion(self, sim):
        res = sim.resource("r")
        log = []

        def user(name, hold):
            yield res.acquire()
            log.append((name, "in", sim.now))
            yield sim.timeout(hold)
            res.release(res.holder)
            log.append((name, "out", sim.now))

        sim.process(user("a", 5))
        sim.process(user("b", 5))
        sim.run()
        # b enters only after a leaves.
        assert log == [("a", "in", 0), ("a", "out", 5),
                       ("b", "in", 5), ("b", "out", 10)]

    def test_priority_order(self, sim):
        res = sim.resource()
        order = []

        def holder():
            yield res.acquire()
            yield sim.timeout(10)
            res.release(res.holder)

        def requester(name, priority):
            yield sim.timeout(1)
            yield res.acquire(priority=priority)
            order.append(name)
            res.release(res.holder)

        sim.process(holder())
        sim.process(requester("low", 5))
        sim.process(requester("high", 1))
        sim.process(requester("mid", 3))
        sim.run()
        assert order == ["high", "mid", "low"]

    def test_fifo_within_priority(self, sim):
        res = sim.resource()
        order = []

        def holder():
            yield res.acquire()
            yield sim.timeout(10)
            res.release(res.holder)

        def requester(name):
            yield sim.timeout(1)
            yield res.acquire(priority=2)
            order.append(name)
            res.release(res.holder)

        sim.process(holder())
        for name in ("first", "second", "third"):
            sim.process(requester(name))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_release_by_non_holder_is_error(self, sim):
        res = sim.resource()
        errors = []

        def holder():
            yield res.acquire()
            yield sim.timeout(5)
            res.release(res.holder)

        def intruder():
            yield sim.timeout(1)
            me = sim.process(noop())
            try:
                res.release(me)
            except SimulationError as exc:
                errors.append(exc)

        def noop():
            return
            yield  # pragma: no cover

        sim.process(holder())
        sim.process(intruder())
        sim.run()
        assert len(errors) == 1

    def test_wait_accounting(self, sim):
        res = sim.resource()

        def user(delay):
            yield sim.timeout(delay)
            yield res.acquire()
            yield sim.timeout(10)
            res.release(res.holder)

        sim.process(user(0))
        sim.process(user(0))
        sim.run()
        assert res.grants == 2
        assert res.total_wait == 10  # the second waited one tenure


class TestRunControl:
    def test_run_until_lands_exactly(self, sim):
        def proc():
            yield sim.timeout(100)

        sim.process(proc())
        sim.run_until(42)
        assert sim.now == 42
        sim.run_until(200)
        assert sim.now == 200

    def test_run_until_past_is_error(self, sim):
        sim.run_until(10)
        with pytest.raises(SimulationError):
            sim.run_until(5)

    def test_deadlock_detection(self, sim):
        event = sim.event("never")

        def stuck():
            yield event

        sim.process(stuck(), "stuck")
        with pytest.raises(DeadlockError) as excinfo:
            sim.run(check_deadlock=True)
        assert "stuck" in str(excinfo.value)

    def test_peek_next_event(self, sim):
        def proc():
            yield sim.timeout(9)

        assert sim.peek() is None or sim.peek() == 0
        sim.process(proc())
        sim.run_until(0)
        assert sim.peek() == 9

    def test_call_at_runs_callback(self, sim):
        fired = []
        sim.call_at(6, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [6]

    def test_exception_leaves_only_undispatched_events(self, sim):
        """An exception escaping a handler neither loses nor repeats
        events: the next run resumes with exactly what was pending."""
        log = []

        def steady():
            yield sim.timeout(5)
            log.append(("a", sim.now))
            yield sim.timeout(10)
            log.append(("a2", sim.now))

        def boom():
            yield sim.timeout(5)
            raise RuntimeError("boom")

        sim.process(steady(), "a")
        sim.process(boom(), "boom")
        with pytest.raises(RuntimeError):
            sim.run()
        assert len(sim._sched) == 1
        sim.run()
        assert log == [("a", 5), ("a2", 15)]


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

