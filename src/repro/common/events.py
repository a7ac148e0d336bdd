"""A small discrete-event simulation kernel with coroutine processes.

Every hardware and software model in the reproduction runs on this
kernel.  Time is a bare integer; the Firefly models interpret one unit
as a 100 ns MBus cycle, but the kernel itself is unit-agnostic.

Processes are Python generators.  A process yields *waitables*:

``yield sim.timeout(n)``
    suspend for ``n`` time units.

``yield event``
    suspend until :meth:`Event.succeed` is called; the yield expression
    evaluates to the value passed to ``succeed``.

``yield resource.acquire(priority=...)``
    suspend until the resource grants this process; lower ``priority``
    numbers are served first (the MBus uses fixed per-cache priorities).

A process may also yield another :class:`Process` to join it (suspend
until that process returns), and its final ``return`` value becomes the
join value.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def pinger():
...     yield sim.timeout(5)
...     log.append(sim.now)
>>> _ = sim.process(pinger(), name="ping")
>>> sim.run()
>>> log
[5]

Event wheel
-----------
Pending events live in a calendar-queue **event wheel** tuned for the
dominant fixed-latency events (bus transfer slots, interned timeouts,
scheduler quanta).  It pops events in ``(time, seq)`` order, exactly as
a binary heap keyed on ``(time, seq)`` would; the heap survives only as
the test-suite's oracle (``tests/test_engine_equivalence.py`` swaps it
in and requires identical pop order, metrics and telemetry).  See
docs/PERFORMANCE.md for the wheel design (bucket width, overflow heap,
rotation cost).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterator, List, Optional, Tuple

from repro.common.errors import DeadlockError, SimulationError

#: Slots in the event wheel (one simulated tick per slot).  Power of
#: two so slot indexing is a mask.  Delays below this land directly in
#: a slot; longer delays wait in the overflow heap and migrate as the
#: wheel rotates.  1024 covers every fixed hardware latency in the
#: models (bus cycles, tick widths, scheduler quanta) with room to
#: spare, while keeping a full empty-wheel rotation scan cheap.
WHEEL_SIZE = 1024

class Event:
    """A one-shot condition that processes can wait on.

    An ``Event`` starts pending.  Calling :meth:`succeed` fires it,
    resuming every waiter with the supplied value.  Firing twice is an
    error (these model hardware strobes, which do not re-arm).
    """

    __slots__ = ("_sim", "_value", "_fired", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self._value: Any = None
        self._fired = False
        self._waiters: List["Process"] = []
        self.name = name

    @property
    def fired(self) -> bool:
        """Whether :meth:`succeed` has been called."""
        return self._fired

    @property
    def value(self) -> Any:
        """The value the event fired with (``None`` before firing)."""
        return self._value

    def succeed(self, value: Any = None) -> None:
        """Fire the event, resuming all waiters at the current time."""
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self._sim._schedule(0, proc, value)

    def _add_waiter(self, proc: "Process") -> None:
        if self._fired:
            # Late waiters see the value immediately (next delta).
            self._sim._schedule(0, proc, self._value)
        else:
            self._waiters.append(proc)


class _Timeout:
    """Internal waitable produced by :meth:`Simulator.timeout`."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: int, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.delay = delay
        self.value = value


class Process:
    """A running coroutine registered with the simulator.

    Processes should be created via :meth:`Simulator.process`.  Other
    processes may ``yield`` a Process to join it; the join value is
    whatever the generator returned.
    """

    __slots__ = ("_sim", "_gen", "name", "_done", "_result", "_joiners",
                 "_blocked_on", "_blocked_obj")

    def __init__(self, sim: "Simulator", gen: Generator, name: str) -> None:
        self._sim = sim
        self._gen = gen
        self.name = name
        self._done = False
        self._result: Any = None
        self._joiners: List["Process"] = []
        self._blocked_on: Optional[str] = None
        # The waited-on Resource/Process, kept only for the deadlock
        # report's wait-for edges (holder lookup).  Set together with
        # _blocked_on in the matching branches; the label's prefix says
        # whether it is current, so the hot branches never clear it.
        self._blocked_obj: Any = None

    @property
    def done(self) -> bool:
        """Whether the underlying generator has returned."""
        return self._done

    @property
    def result(self) -> Any:
        """The generator's return value (``None`` until done)."""
        return self._result

    def _add_waiter(self, proc: "Process") -> None:
        if self._done:
            self._sim._schedule(0, proc, self._result)
        else:
            self._joiners.append(proc)

    def _step(self, send_value: Any) -> None:
        """Advance the generator by one yield, then dispatch the waitable."""
        sim = self._sim
        sim._current = self
        try:
            waitable = self._gen.send(send_value)
        except StopIteration as stop:
            self._done = True
            self._result = stop.value
            self._blocked_on = None
            sim._live.discard(self)
            joiners, self._joiners = self._joiners, []
            for j in joiners:
                sim._schedule(0, j, self._result)
            return
        # Timeouts dominate every workload (one per simulated tick), so
        # that branch is checked first and its scheduling goes straight
        # through the wheel's pre-bound push — no _schedule() frame, no
        # negative-delay re-check (the _Timeout constructor already
        # validated the delay).
        if waitable.__class__ is _Timeout:
            self._blocked_on = "timeout"
            sim._seq += 1
            sim._push(sim.now + waitable.delay, sim._seq, self,
                      waitable.value, None)
        elif waitable.__class__ is _AcquireRequest:
            # Second-hottest waitable (one per bus transaction); exact
            # class check, mirroring the timeout branch.  The isinstance
            # fallback below keeps hypothetical subclasses working.
            self._blocked_on = waitable.resource._blocked_label
            self._blocked_obj = waitable.resource
            waitable.resource._enqueue(waitable, self)
        elif isinstance(waitable, Event):
            self._blocked_on = f"event:{waitable.name}"
            waitable._add_waiter(self)
        elif isinstance(waitable, Process):
            self._blocked_on = f"join:{waitable.name}"
            self._blocked_obj = waitable
            waitable._add_waiter(self)
        elif isinstance(waitable, _AcquireRequest):
            self._blocked_on = waitable.resource._blocked_label
            self._blocked_obj = waitable.resource
            waitable.resource._enqueue(waitable, self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported waitable {waitable!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self._done else (self._blocked_on or "ready")
        return f"<Process {self.name} {state}>"


class _AcquireRequest:
    """Internal waitable produced by :meth:`Resource.acquire`."""

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: int) -> None:
        self.resource = resource
        self.priority = priority


class Resource:
    """A mutually-exclusive resource with priority queuing.

    The MBus is a ``Resource``: caches request it with their fixed
    hardware priority, and the arbiter grants the highest-priority
    (lowest number) waiter when the bus frees.  Ties are served in
    request order (FIFO), which matches a daisy-chained arbiter.
    """

    __slots__ = ("_sim", "name", "_holder", "_queue", "_seq", "_wait_cycles",
                 "_grants", "_blocked_label", "_requests")

    def __init__(self, sim: "Simulator", name: str = "resource") -> None:
        self._sim = sim
        self.name = name
        # Formatted once: _step assigns this on every acquire.
        self._blocked_label = f"resource:{name}"
        # Interned acquire waitables, keyed by priority: a request is
        # immutable and read-only to _enqueue, and each client acquires
        # at a fixed priority (the MBus priority chain), so one object
        # per priority serves every transaction.
        self._requests: dict = {}
        self._holder: Optional[Process] = None
        self._queue: List = []  # heap of (priority, seq, enqueue_time, proc)
        self._seq = 0
        self._wait_cycles = 0
        self._grants = 0

    @property
    def holder(self) -> Optional[Process]:
        """The process currently holding the resource, if any."""
        return self._holder

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for a grant."""
        return len(self._queue)

    @property
    def total_wait(self) -> int:
        """Cumulative time units waiters spent queued before grant."""
        return self._wait_cycles

    @property
    def grants(self) -> int:
        """Number of grants issued so far."""
        return self._grants

    def acquire(self, priority: int = 0) -> _AcquireRequest:
        """Return a waitable that resolves when this process is granted."""
        request = self._requests.get(priority)
        if request is None:
            request = self._requests[priority] = _AcquireRequest(self, priority)
        return request

    def release(self, proc: Process) -> None:
        """Release the resource; the caller must be the holder."""
        if self._holder is not proc:
            raise SimulationError(
                f"{proc.name!r} released {self.name!r} held by "
                f"{self._holder.name if self._holder else None!r}"
            )
        self._holder = None
        self._grant_next()

    def _enqueue(self, request: _AcquireRequest, proc: Process) -> None:
        # heappush is the pre-bound C function (module import), matching
        # the treated run-loop/_step sites: one per bus transaction.
        self._seq += 1
        heappush(self._queue, (request.priority, self._seq, self._sim.now, proc))
        if self._holder is None:
            self._grant_next()

    def _grant_next(self) -> None:
        if self._holder is not None or not self._queue:
            return
        _, _, enqueued, proc = heappop(self._queue)
        self._holder = proc
        self._grants += 1
        self._wait_cycles += self._sim.now - enqueued
        self._sim._schedule(0, proc, self)


class _WheelScheduler:
    """A calendar-queue event wheel with an overflow heap.

    ``size`` slots of one simulated tick each; an event ``delay`` ticks
    out lands in slot ``time & mask`` when ``delay < size`` (the
    overwhelmingly common case: bus transfer slots, interned timeouts,
    scheduler quanta are all small fixed latencies), else waits in a
    binary heap of far-future events and migrates into a slot once the
    wheel's rotation brings it inside the horizon.

    Order contract (the whole point): pops occur in exactly ``(time,
    seq)`` order, as from a binary heap of the same entries.  The
    invariants that guarantee it:

    - every pending slotted entry has ``now <= time < now + size``, so
      within one rotation each residue class maps to exactly *one*
      pending timestamp — a slot never mixes timestamps;
    - same-slot entries are appended in increasing ``seq`` (the global
      schedule counter), except entries migrating from the overflow
      heap, which may arrive out of order — so a multi-entry slot is
      (cheaply, usually already-sorted) sorted before dispatch;
    - entries scheduled for the *current* timestamp while its slot is
      being drained append behind the cursor and are dispatched in the
      same pass, exactly as a heap would pop them.

    Cost model: push is O(1) (append) for in-horizon delays, O(log f)
    for the far-future fraction f; pop is O(1) amortised plus the
    empty-slot rotation scan, which is bounded by one slot check per
    elapsed simulated tick — negligible for the dense event populations
    the models generate (the exerciser dispatches roughly one event per
    tick) and bounded by ``size`` checks even for a lone sleeper.
    """

    __slots__ = ("_sim", "_size", "_mask", "_slots", "_overflow", "_count")

    def __init__(self, sim: "Simulator") -> None:
        # Read at construction, not bound as a default, so the tests can
        # shrink the wheel to force overflow churn.
        size = WHEEL_SIZE
        self._sim = sim
        self._size = size
        self._mask = size - 1
        self._slots: List[List[Tuple]] = [[] for _ in range(size)]
        self._overflow: List[Tuple] = []
        self._count = 0  # entries currently in slots (not overflow)

    def __len__(self) -> int:
        return self._count + len(self._overflow)

    def push(self, time: int, seq: int, proc: Optional[Process],
             value: Any, callback: Optional[Callable[[], None]]) -> None:
        # Horizon test against sim.now: pushes only ever happen with the
        # clock at the instant of the causing event, so ``now`` is the
        # wheel cursor.  Entries admitted here satisfy
        # ``time < now + size``, preserving the one-timestamp-per-slot
        # invariant documented above.
        if time - self._sim.now < self._size:
            self._slots[time & self._mask].append(
                (time, seq, proc, value, callback))
            self._count += 1
        else:
            heappush(self._overflow, (time, seq, proc, value, callback))

    def peek(self) -> Optional[int]:
        """Next pending timestamp without dispatching (not a hot path)."""
        soonest: Optional[int] = None
        if self._count:
            slots, mask = self._slots, self._mask
            cur = self._sim.now
            for _ in range(self._size):
                slot = slots[cur & mask]
                if slot:
                    soonest = slot[0][0]
                    break
                cur += 1
        if self._overflow:
            head = self._overflow[0][0]
            if soonest is None or head < soonest:
                soonest = head
        return soonest

    def drain(self, sim: "Simulator", limit: Optional[int]) -> None:
        """Dispatch events in ``(time, seq)`` order; all of them
        (``limit=None``) or only those with ``time <= limit``.

        One loop body for both :meth:`Simulator.run` and
        :meth:`Simulator.run_until`.  Each
        outer iteration migrates newly in-horizon overflow entries,
        finds the next populated slot, and dispatches that entire
        timestamp in one pass — ``sim.now`` is written once per
        timestamp, not once per event, and same-tick reschedules
        (event fires, resource grants, zero-delay timeouts) append
        behind the cursor with no heap traffic at all.
        """
        slots = self._slots
        mask = self._mask
        size = self._size
        overflow = self._overflow
        pop = heappop
        cur = sim.now
        while True:
            count = self._count
            if overflow:
                # Rotation brought some far-future entries inside the
                # horizon: move them into their slots.  Migration can
                # land behind pending same-time entries with higher
                # seq; the pre-dispatch sort below restores order.
                head = overflow[0][0]
                while head - cur < size:
                    entry = pop(overflow)
                    slots[entry[0] & mask].append(entry)
                    count += 1
                    if not overflow:
                        break
                    head = overflow[0][0]
                self._count = count
            if count == 0:
                if not overflow:
                    break
                # Wheel empty: jump straight to the overflow head (a
                # lone far-future timer costs no rotation scan at all).
                head = overflow[0][0]
                if limit is not None and head > limit:
                    break
                cur = head
                continue
            # Find the next populated slot.  Bounded by one rotation:
            # every pending slotted entry lies within [cur, cur + size).
            slot = slots[cur & mask]
            if not slot:
                end = cur + size
                while True:
                    cur += 1
                    slot = slots[cur & mask]
                    if slot:
                        break
                    if cur >= end:  # pragma: no cover - invariant guard
                        raise SimulationError(
                            "event wheel lost track of pending events")
            time = slot[0][0]
            if limit is not None and time > limit:
                break
            if len(slot) > 1:
                # Usually already sorted (append order == seq order);
                # Timsort makes this one comparison per entry.  Tuples
                # compare by (time, seq) and seq is unique, so the
                # payload fields never participate.
                slot.sort()
            sim.now = time
            index = 0
            # len(slot) is re-read every iteration on purpose: handlers
            # scheduling work for *this* timestamp append to this very
            # slot, and a heap would dispatch those too.
            while index < len(slot):
                entry = slot[index]
                index += 1
                callback = entry[4]
                if callback is None:
                    proc = entry[2]
                    if proc is not None:
                        proc._step(entry[3])
                else:
                    sim._current = None
                    callback()
            slot.clear()
            # Handlers may have pushed entries for other slots too, so
            # reconcile against the authoritative counter.
            self._count -= index
            cur += 1


class Simulator:
    """The event loop: an integer clock plus the pending-event wheel.

    The kernel distinguishes *processes* (coroutines stepped by the
    loop) from *callbacks* (bare functions, used by periodic hardware
    like the MDC's poll timer).
    """

    __slots__ = ("now", "_sched", "_push", "_seq", "_live", "_timeouts",
                 "_current")

    def __init__(self) -> None:
        self.now: int = 0
        self._sched = _WheelScheduler(self)
        #: The wheel's push, pre-bound: _step and _schedule call this
        #: once per scheduled event.
        self._push = self._sched.push
        self._seq = 0
        self._live: set = set()
        # Interned value-less timeouts, keyed by delay.  _Timeout is
        # immutable once built and _step only reads it, so one object
        # per distinct delay serves every yield; models yield a timeout
        # per simulated tick, making this the kernel's hottest
        # allocation.  Delays in practice form a tiny set (tick widths,
        # bus cycles, residual instruction budgets).
        self._timeouts: dict = {}
        #: The process whose generator is currently being stepped (None
        #: while idle or inside a bare callback); lets scheduling errors
        #: name their culprit.
        self._current: Optional[Process] = None

    # -- scheduling ---------------------------------------------------

    def _schedule(self, delay: int, proc: Optional[Process], value: Any = None,
                  callback: Optional[Callable[[], None]] = None) -> None:
        if delay < 0:
            raise SimulationError(
                f"cannot schedule {delay} units in the past "
                f"(now={self.now}{self._blame()})")
        self._seq += 1
        self._push(self.now + delay, self._seq, proc, value, callback)

    def _blame(self) -> str:
        """``", process 'name'"`` when a process is being stepped."""
        current = self._current
        return f", process {current.name!r}" if current is not None else ""

    def process(self, gen: Generator, name: str = "proc") -> Process:
        """Register a generator as a process, starting it at the current time."""
        proc = Process(self, gen, name)
        self._live.add(proc)
        self._schedule(0, proc, None)
        return proc

    def call_at(self, delay: int, callback: Callable[[], None]) -> None:
        """Invoke ``callback()`` after ``delay`` time units."""
        self._schedule(delay, None, None, callback)

    def timeout(self, delay: int, value: Any = None) -> _Timeout:
        """Waitable: suspend the yielding process for ``delay`` units."""
        if value is None:
            cached = self._timeouts.get(delay)
            if cached is None:
                if delay < 0:
                    raise SimulationError(
                        f"negative timeout {delay} requested at "
                        f"now={self.now}{self._blame()}")
                cached = self._timeouts[delay] = _Timeout(delay)
            return cached
        if delay < 0:
            raise SimulationError(
                f"negative timeout {delay} requested at "
                f"now={self.now}{self._blame()}")
        return _Timeout(delay, value)

    def event(self, name: str = "") -> Event:
        """Create a fresh one-shot :class:`Event`."""
        return Event(self, name)

    def resource(self, name: str = "resource") -> Resource:
        """Create a priority-queued mutually-exclusive :class:`Resource`."""
        return Resource(self, name)

    # -- running ------------------------------------------------------

    def run(self, check_deadlock: bool = False) -> None:
        """Run until no pending events remain.

        With ``check_deadlock=True``, raise :class:`DeadlockError` if
        live processes remain blocked when the queue drains (useful in
        tests of the synchronisation primitives).
        """
        self._sched.drain(self, None)
        if check_deadlock and self._live:
            blocked = sorted(
                (p.name, p._blocked_on or "?")
                for p in self._live if not p.done
            )
            if blocked:
                raise DeadlockError(blocked, now=self.now,
                                    edges=self._wait_edges())

    def _wait_edges(self):
        """(waiter, resource, holder) triples over the live processes.

        The holder is the owning process for resource waits and the
        joined process for joins; event waits have no holder (anyone
        may fire the event).
        """
        edges = []
        for proc in self._live:
            label = proc._blocked_on
            if proc.done or not label:
                continue
            obj = proc._blocked_obj
            holder = ""
            if label.startswith("resource:") and obj is not None:
                owner = obj.holder
                holder = owner.name if owner is not None else ""
            elif label.startswith("join:") and obj is not None:
                holder = obj.name
            edges.append((proc.name, label, holder))
        return sorted(edges)

    def run_until(self, end_time: int) -> None:
        """Run events with timestamps ``<= end_time``, then set ``now`` there.

        Models use this for fixed-horizon measurement windows: the clock
        always lands exactly on ``end_time`` even if no event occurs
        then.
        """
        if end_time < self.now:
            raise SimulationError(
                f"run_until({end_time}) is in the past (now={self.now})"
            )
        self._sched.drain(self, end_time)
        self.now = end_time

    def peek(self) -> Optional[int]:
        """Timestamp of the next pending event, or ``None`` if idle."""
        return self._sched.peek()

    def blocked_processes(self) -> Iterator[Process]:
        """Yield live processes that have not finished (debug/tests)."""
        return iter(p for p in self._live if not p.done)
