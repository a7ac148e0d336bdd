"""The Topaz kernel: threads, scheduling and the Nub, on simulated memory.

The kernel is a *reference source* for every CPU in a
:class:`~repro.system.machine.FireflyMachine`: each processor, when it
wants its next instruction, asks the kernel, and the kernel answers
from the thread it is running there — ordinary footprint instructions
for ``Compute``, explicit loads/stores for synchronisation operations,
and kernel-mode context-switch instructions when threads block,
yield, or exit.

Everything the scheduler and the synchronisation primitives touch is a
real word of simulated memory:

- the ready-queue head/lock words and thread control blocks live in the
  machine's *shared region*, so scheduling activity by different CPUs
  ping-pongs those lines exactly as the paper's Threads exerciser did
  ("75K of the 225K writes done by one CPU (33%) were write-throughs
  that received MShared");
- mutex and condition words are shared-heap words written with real
  values (held/free, signal sequence numbers), auditable by the
  coherence checker;
- thread footprints (text slice, stack, local data) move between caches
  when a thread migrates — the redundant-write-through cost that makes
  the Topaz scheduler prefer affinity.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.causal.context import ContextAllocator, TraceContext
from repro.common.errors import (ConfigurationError, DeadlockError,
                                 SimulationError)
from repro.common.events import Event
from repro.common.stats import StatSet
from repro.common.types import AccessKind, MemRef
from repro.telemetry.probe import NULL_PROBE
from repro.processor.cpu import InstructionBundle, Processor
from repro.processor.mix import VAX_MIX, ReferenceMix
from repro.system.config import FireflyConfig
from repro.system.machine import FireflyMachine
from repro.topaz import ops
from repro.topaz.address_space import AddressSpace, SpaceKind
from repro.topaz.scheduler import Scheduler
from repro.topaz.sync import Condition, Mutex
from repro.topaz.thread import ThreadFootprint, ThreadState, TopazThread

from dataclasses import dataclass


@dataclass(frozen=True)
class TopazParams:
    """Tunables of the modelled runtime.

    ``context_switch_instructions`` covers the Nub's dispatch path
    (save/restore, queue manipulation).  ``thread_base_cycles`` — when
    set — overrides the per-instruction cost of thread compute, to
    model programs whose instruction mix is lighter than the VAX
    average (the Table 2 exerciser).  ``time_slice_instructions`` is
    the Nub's preemption quantum: a thread that computes that long
    while others are runnable is placed back on the ready queue
    (None disables preemption).
    """

    context_switch_instructions: int = 40
    time_slice_instructions: Optional[int] = 1500
    interrupt_service_instructions: int = 20
    """Kernel-mode instructions the *I/O processor* (CPU 0) executes to
    service a device completion before the waiting thread is made
    ready — the asymmetric-I/O cost of §3: devices interrupt only the
    primary board.  Zero disables the charge."""
    thread_stack_words: int = 96
    thread_data_words: int = 256
    thread_text_words: int = 384
    text_region_words: int = 16384
    kernel_text_words: int = 2048
    tcb_words: int = 16
    avoid_migration: bool = True
    affinity_window: int = 4
    thread_mix: ReferenceMix = VAX_MIX
    thread_base_cycles: Optional[float] = None
    thread_loop_iterations: float = 6.0
    thread_sweep_fraction: float = 0.0
    thread_sweep_words: int = 2048

    def __post_init__(self) -> None:
        if self.context_switch_instructions < 1:
            raise ConfigurationError(
                "context switch must cost at least one instruction")
        for name in ("thread_stack_words", "thread_data_words",
                     "thread_text_words", "text_region_words",
                     "kernel_text_words", "tcb_words"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")


class TopazKernel:
    """The modelled Topaz runtime bound to one Firefly machine."""

    def __init__(self, config: FireflyConfig,
                 params: Optional[TopazParams] = None,
                 sim=None) -> None:
        self.params = params or TopazParams()
        self.machine = FireflyMachine(config,
                                      source_factory=self._make_source,
                                      sim=sim)
        self.sim = self.machine.sim
        self.stats = StatSet("topaz")
        self.scheduler = Scheduler(
            avoid_migration=self.params.avoid_migration,
            affinity_window=self.params.affinity_window)

        n = config.processors
        self._current: List[Optional[TopazThread]] = [None] * n
        self._switch_queue: List[Deque[InstructionBundle]] = [
            deque() for _ in range(n)]
        self._idle_events: List[Optional[Event]] = [None] * n
        self._slice_left: List[int] = [0] * n

        #: Telemetry probe; inert unless a TelemetryHub is attached.
        self.probe = NULL_PROBE
        self._cpu_tracks = [f"cpu{i}" for i in range(n)]
        self._run_since: List[Optional[int]] = [None] * n

        self.threads: List[TopazThread] = []
        self._next_tid = 0
        self._token = 1 << 50

        #: Deterministic trace/span id source (plain counters — never
        #: the machine's seeded RNG, so tracing cannot perturb a run).
        self.causal = ContextAllocator()
        self._cpu_ctx: List[Optional[TraceContext]] = [None] * n
        self.mutexes: List[Mutex] = []
        self.conditions: List[Condition] = []

        # Shared-heap allocator (scheduler data, TCBs, sync words).
        shared = self.machine.shared_region
        self._shared_cursor = shared.base_word
        self._shared_end = shared.base_word + shared.words
        # Private allocator (text, stacks, thread data) from word 0 up.
        self._private_cursor = 0
        self._private_end = shared.base_word

        self._ready_head_addr = self.alloc_shared(1, "ready queue head")
        self._ready_lock_addr = self.alloc_shared(1, "ready queue lock")
        self._text_base = self.alloc_private(self.params.text_region_words,
                                             "program text")
        self._kernel_text = self.alloc_private(self.params.kernel_text_words,
                                               "kernel text")
        self._kernel_pc = [self._kernel_text] * n
        self._rng = self.machine.streams.stream("topaz.kernel")

        # Every CPU fields scheduler IPIs (kicks from _kick_idle_cpu
        # and device-completion interrupts aimed at the I/O processor).
        # The handler only counts: the wake itself travels through the
        # idle Event, matching the hardware's separation of the
        # sideband strobe from the software wakeup path.
        for cpu_id in range(n):
            self.machine.mbus.register_interrupt_handler(
                cpu_id, self._ipi_received)

        # Lets the bus stamp trace/span onto bus.op events: the cache
        # initiator id equals the CPU id, and this kernel knows which
        # thread context each CPU is running.  Only consulted when the
        # bus probe is active.
        self.machine.mbus.context_source = self._context_for_initiator

        self.address_spaces: List[AddressSpace] = []
        self._default_space = self._create_default_spaces()

    @classmethod
    def build(cls, processors: int = 5, threads_hint: int = 32,
              params: Optional[TopazParams] = None,
              sim=None, **config_overrides) -> "TopazKernel":
        """Convenience constructor that sizes the shared region.

        The shared region must hold the scheduler words, every TCB and
        the sync objects; ``threads_hint`` reserves generous room.
        ``sim`` places this machine on an existing simulator
        (multi-machine experiments).
        """
        shared_words = config_overrides.pop(
            "shared_region_words", 4096 + 64 * max(threads_hint, 1))
        config = FireflyConfig(processors=processors,
                               shared_region_words=shared_words,
                               **config_overrides)
        return cls(config, params=params, sim=sim)

    # -- allocation -----------------------------------------------------

    def alloc_shared(self, words: int, what: str = "shared data") -> int:
        """Allocate words in the machine-wide shared region."""
        if self._shared_cursor + words > self._shared_end:
            raise ConfigurationError(
                f"shared region exhausted allocating {what} "
                f"({words} words); enlarge shared_region_words")
        base = self._shared_cursor
        self._shared_cursor += words
        return base

    def alloc_private(self, words: int, what: str = "private data") -> int:
        """Allocate words in the general (per-thread-private) area."""
        if self._private_cursor + words > self._private_end:
            raise ConfigurationError(
                f"memory exhausted allocating {what} ({words} words)")
        base = self._private_cursor
        self._private_cursor += words
        return base

    def _create_default_spaces(self) -> AddressSpace:
        """The standing boxes of Figure 2."""
        layout = [
            ("Nub", SpaceKind.NUB, self._kernel_text,
             self.params.kernel_text_words),
            ("Taos", SpaceKind.TAOS, self._text_base, 4096),
            ("UserTTD", SpaceKind.TTD, self._text_base + 4096, 1024),
            ("Trestle", SpaceKind.TRESTLE, self._text_base + 5120, 1024),
        ]
        for name, kind, base, size in layout:
            self.address_spaces.append(AddressSpace(name, kind, base, size))
        default = AddressSpace("TopazApp", SpaceKind.TOPAZ_APP,
                               self._text_base + 6144,
                               self.params.text_region_words - 6144)
        self.address_spaces.append(default)
        return default

    def create_space(self, name: str, kind: SpaceKind = SpaceKind.TOPAZ_APP,
                     size_words: int = 1024) -> AddressSpace:
        """Create an application address space (structural)."""
        base = self.alloc_private(size_words, f"space {name}")
        space = AddressSpace(name, kind, base, size_words)
        self.address_spaces.append(space)
        return space

    def threads_in_space(self, space: AddressSpace) -> List[TopazThread]:
        return [t for t in self.threads if t.space is space]

    # -- object creation ------------------------------------------------------

    def mutex(self, name: str = "") -> Mutex:
        """Allocate a mutex backed by one shared word."""
        address = self.alloc_shared(1, f"mutex {name or '?'}")
        mutex = Mutex(address, name or f"mutex@{address:#x}")
        self.mutexes.append(mutex)
        return mutex

    def condition(self, name: str = "") -> Condition:
        """Allocate a condition variable backed by one shared word."""
        address = self.alloc_shared(1, f"condition {name or '?'}")
        condition = Condition(address, name or f"cond@{address:#x}")
        self.conditions.append(condition)
        return condition

    def fork(self, fn, *args, name: str = "",
             space: Optional[AddressSpace] = None) -> TopazThread:
        """Create and enqueue a thread from host code (pre-run setup)."""
        thread = self._create_thread(fn, tuple(args), name, space)
        self._make_ready(thread)
        return thread

    def _create_thread(self, fn, args: Tuple, name: str,
                       space: Optional[AddressSpace],
                       parent: Optional[TopazThread] = None) -> TopazThread:
        tid = self._next_tid
        self._next_tid += 1
        space = space or self._default_space
        if not space.multi_threaded and self.threads_in_space(space):
            raise ConfigurationError(
                f"Ultrix address space {space.name!r} supports only one "
                f"thread (paper §4.1)")
        params = self.params
        tcb = self.alloc_shared(params.tcb_words, f"TCB {name or tid}")
        stack = self.alloc_private(params.thread_stack_words,
                                   f"stack {name or tid}")
        data = self.alloc_private(params.thread_data_words,
                                  f"data {name or tid}")
        text_span = max(1, params.text_region_words - params.thread_text_words)
        text = self._text_base + self._rng.randint(0, text_span - 1)
        sweep_base = sweep_words = 0
        if params.thread_sweep_fraction > 0:
            sweep_words = params.thread_sweep_words
            sweep_base = self.alloc_private(sweep_words,
                                            f"sweep {name or tid}")
        footprint = ThreadFootprint(
            rng=self.machine.streams.stream(f"thread{tid}.footprint"),
            text_base=text, text_words=params.thread_text_words,
            stack_base=stack, stack_words=params.thread_stack_words,
            data_base=data, data_words=params.thread_data_words,
            mix=params.thread_mix,
            loop_iterations=params.thread_loop_iterations,
            sweep_fraction=params.thread_sweep_fraction,
            sweep_base=sweep_base, sweep_words=sweep_words,
            base_cycles_per_instruction=params.thread_base_cycles)
        thread = TopazThread(tid, name, fn, args, footprint, tcb, space)
        # Host-forked threads root a new trace; ops.Fork children join
        # their parent's trace one span down.
        thread.ctx = (self.causal.child(parent.ctx) if parent is not None
                      else self.causal.root())
        self.threads.append(thread)
        self.stats.incr("threads_created")
        return thread

    # -- the reference-source face --------------------------------------------

    def _make_source(self, cpu_id: int, machine: FireflyMachine):
        kernel = self

        class _TopazSource:
            def next_instruction(self, cpu: Processor):
                return kernel._next_instruction(cpu_id)

        return _TopazSource()

    def _next_instruction(self, cpu_id: int):
        switch = self._switch_queue[cpu_id]
        if switch:
            return switch.popleft()

        thread = self._current[cpu_id]
        if thread is None:
            candidate = self.scheduler.pick(cpu_id)
            if candidate is None:
                event = self.sim.event(f"topaz.idle{cpu_id}")
                self._idle_events[cpu_id] = event
                self.stats.incr("idle_waits")
                return event
            self._dispatch(cpu_id, candidate)
            if switch:
                return switch.popleft()
            thread = candidate

        quantum = self.params.time_slice_instructions
        while True:
            if (quantum is not None and self._slice_left[cpu_id] <= 0
                    and self.scheduler.ready_count > 0):
                # Preemption: the quantum expired with other work ready.
                self.stats.incr("preemptions")
                self._note_offcpu(cpu_id, thread, "preempt")
                self._current[cpu_id] = None
                self.scheduler.enqueue(thread)
                return self._next_instruction(cpu_id)
            if thread.compute_remaining > 0:
                thread.compute_remaining -= 1
                thread.instructions_executed += 1
                self._slice_left[cpu_id] -= 1
                return thread.footprint.bundle()
            if thread.pending:
                self._slice_left[cpu_id] -= 1
                return thread.pending.popleft()
            if not self._advance(cpu_id, thread):
                return self._next_instruction(cpu_id)

    def _dispatch(self, cpu_id: int, thread: TopazThread) -> None:
        previous_cpu = thread.last_cpu
        was_elsewhere = (previous_cpu is not None
                         and previous_cpu != cpu_id)
        thread.note_dispatch(cpu_id)
        self._current[cpu_id] = thread
        self._cpu_ctx[cpu_id] = thread.ctx
        self._run_since[cpu_id] = self.sim.now
        if self.params.time_slice_instructions is not None:
            self._slice_left[cpu_id] = self.params.time_slice_instructions
        self.stats.incr("dispatches")
        self.stats.incr("context_switches")
        if was_elsewhere:
            self.stats.incr("migrations")
            if self.probe.active:
                # The paper's costly case: the thread's working set is
                # still in the old CPU's cache, so every write to it
                # writes through until those copies age out.
                self.probe.instant("sched.migrate", self._cpu_tracks[cpu_id],
                                   thread=thread.name,
                                   from_cpu=previous_cpu, to_cpu=cpu_id)
        self._switch_queue[cpu_id].extend(
            self._context_switch_bundles(cpu_id, thread))

    def _note_offcpu(self, cpu_id: int, thread: TopazThread,
                     reason: str) -> None:
        """Emit the dispatch-to-descheduling run slice for a CPU track."""
        start = self._run_since[cpu_id]
        self._run_since[cpu_id] = None
        if self.probe.active and start is not None:
            ctx = thread.ctx
            self.probe.complete("sched.run", self._cpu_tracks[cpu_id],
                                start, self.sim.now - start,
                                thread=thread.name, tid=thread.tid,
                                trace=ctx.trace_id if ctx else 0,
                                span=ctx.span_id if ctx else 0,
                                reason=reason)

    def _context_switch_bundles(self, cpu_id: int,
                                incoming: TopazThread) -> List[InstructionBundle]:
        """Kernel-mode dispatch: touches the shared scheduler state.

        Each instruction fetches from the Nub's text and alternates
        over the ready-queue words and the incoming thread's TCB —
        writes included, so dispatch on different CPUs produces the
        shared write-through traffic Table 2 exhibits.
        """
        bundles = []
        tcb = incoming.tcb_address
        words = self.params.tcb_words
        for i in range(self.params.context_switch_instructions):
            refs = [MemRef(self._kernel_code_word(cpu_id),
                           AccessKind.INSTRUCTION_READ)]
            values = ()
            slot = tcb + (i % words)
            phase = i % 6
            if phase == 0:
                refs.append(MemRef(self._ready_head_addr,
                                   AccessKind.DATA_READ))
            elif phase == 1:
                refs.append(MemRef(self._ready_lock_addr,
                                   AccessKind.DATA_WRITE))
                values = (self._next_token(),)
            elif phase in (2, 4):
                refs.append(MemRef(slot, AccessKind.DATA_READ))
            elif phase == 3:
                refs.append(MemRef(slot, AccessKind.DATA_WRITE))
                values = (self._next_token(),)
            # phase 5: register shuffling, instruction fetch only.
            bundles.append(InstructionBundle(refs=tuple(refs),
                                             write_values=values))
        return bundles

    def _kernel_code_word(self, cpu_id: int) -> int:
        pc = self._kernel_pc[cpu_id]
        self._kernel_pc[cpu_id] = (self._kernel_text
                                   + (pc - self._kernel_text + 1)
                                   % self.params.kernel_text_words)
        return pc

    def _next_token(self) -> int:
        self._token += 1
        return self._token

    # -- program advancement ------------------------------------------------------

    def _advance(self, cpu_id: int, thread: TopazThread) -> bool:
        """Run the thread's generator one step; False if it left the CPU."""
        inbox, thread.inbox = thread.inbox, None
        try:
            op = thread.gen.send(inbox)
        except StopIteration as stop:
            self._finish(cpu_id, thread, stop.value)
            return False

        if isinstance(op, ops.Compute):
            thread.compute_remaining = op.instructions
            return True
        if isinstance(op, ops.Read):
            thread.inbox = self._coherent_value(op.address)
            thread.pending.append(self._op_bundle(
                thread, [MemRef(op.address, AccessKind.DATA_READ)]))
            return True
        if isinstance(op, ops.Write):
            thread.pending.append(self._op_bundle(
                thread, [MemRef(op.address, AccessKind.DATA_WRITE)],
                (op.value,)))
            return True
        if isinstance(op, ops.Lock):
            return self._do_lock(cpu_id, thread, op.mutex)
        if isinstance(op, ops.Unlock):
            self._do_unlock(thread, op.mutex)
            return True
        if isinstance(op, ops.Wait):
            return self._do_wait(cpu_id, thread, op.condition, op.mutex)
        if isinstance(op, ops.Signal):
            self._do_signal(thread, op.condition, broadcast=False)
            return True
        if isinstance(op, ops.Broadcast):
            self._do_signal(thread, op.condition, broadcast=True)
            return True
        if isinstance(op, ops.Fork):
            child = self._create_thread(op.fn, op.args, op.name, thread.space,
                                        parent=thread)
            # Deadline propagation: a child spawned inside a deadlined
            # request shares the request's remaining budget.
            child.deadline = thread.deadline
            self.stats.incr("forks")
            if self.probe.active:
                ctx = child.ctx
                self.probe.instant("causal.fork", self._cpu_tracks[cpu_id],
                                   parent=thread.name, child=child.name,
                                   tid=child.tid, trace=ctx.trace_id,
                                   span=ctx.span_id,
                                   parent_span=ctx.parent_id)
            # Touch the child's TCB: thread creation is cheap but real.
            thread.pending.append(self._op_bundle(
                thread, [MemRef(child.tcb_address, AccessKind.DATA_WRITE)],
                (self._next_token(),)))
            self._make_ready(child)
            thread.inbox = child
            return True
        if isinstance(op, ops.Join):
            target: TopazThread = op.thread
            self.stats.incr("joins")
            if target.done:
                thread.inbox = target.result
                return True
            target.joiners.append(thread)
            self._block(cpu_id, thread, f"join:{target.name}")
            return False
        if isinstance(op, ops.CurrentThread):
            thread.inbox = thread
            return True
        if isinstance(op, ops.YieldCpu):
            self.stats.incr("yields")
            self._note_offcpu(cpu_id, thread, "yield")
            self._current[cpu_id] = None
            self.scheduler.enqueue(thread)
            return False
        if isinstance(op, ops.DeviceCall):
            self.stats.incr("device_calls")
            self.sim.process(self._device_wrapper(thread, op.gen),
                             name=f"dev:{op.label}:{thread.name}")
            self._block(cpu_id, thread, f"device:{op.label}")
            return False
        raise SimulationError(
            f"thread {thread.name} yielded unknown op {op!r}")

    def _device_wrapper(self, thread: TopazThread, gen):
        """Run a device operation; wake the blocked thread when done.

        Completion is serviced on the I/O processor (CPU 0): the
        interrupt routine's instructions are queued there, touching the
        woken thread's TCB — the §3 asymmetry, visible as extra load on
        the primary board under I/O-heavy workloads.
        """
        result = yield from gen
        thread.inbox = result
        wake_cause = thread.blocked_on or "device"
        if self.params.interrupt_service_instructions > 0:
            self.stats.incr("device_interrupts")
            self._switch_queue[0].extend(
                self._interrupt_bundles(thread))
            self.machine.mbus.send_interrupt(0, sender=-2)
            # If CPU 0 is idle, the pending interrupt work must pull it
            # out of its idle wait.
            event = self._idle_events[0]
            if event is not None and not event.fired:
                self._idle_events[0] = None
                event.succeed()
        self._make_ready(thread, cause=wake_cause)

    def _interrupt_bundles(self, thread: TopazThread):
        """The interrupt service routine's instruction stream."""
        bundles = []
        for i in range(self.params.interrupt_service_instructions):
            refs = [MemRef(self._kernel_code_word(0),
                           AccessKind.INSTRUCTION_READ)]
            values = ()
            if i % 5 == 2:
                refs.append(MemRef(thread.tcb_address + (i % 8),
                                   AccessKind.DATA_WRITE))
                values = (self._next_token(),)
            elif i % 5 == 4:
                refs.append(MemRef(self._ready_head_addr,
                                   AccessKind.DATA_READ))
            bundles.append(InstructionBundle(refs=tuple(refs),
                                             write_values=values))
        return bundles

    # -- synchronisation mechanics ----------------------------------------------------

    def _do_lock(self, cpu_id: int, thread: TopazThread,
                 mutex: Mutex) -> bool:
        test_and_set = [MemRef(mutex.address, AccessKind.DATA_READ),
                        MemRef(mutex.address, AccessKind.DATA_WRITE)]
        if not mutex.held:
            mutex.acquire_by(thread)
            self.stats.incr("lock_acquires")
            thread.pending.append(self._op_bundle(thread, test_and_set, (1,)))
            return True
        self.stats.incr("lock_contended")
        mutex.contentions += 1
        mutex.waiters.append(thread)
        # The failed interlocked test still cost a bus-visible probe; it
        # executes while this CPU switches away.
        self._switch_queue[cpu_id].append(self._op_bundle(
            thread, [MemRef(mutex.address, AccessKind.DATA_READ)]))
        self._block(cpu_id, thread, f"lock:{mutex.name}")
        return False

    def _do_unlock(self, thread: TopazThread, mutex: Mutex) -> None:
        successor = mutex.release_by(thread)
        self.stats.incr("lock_releases")
        value = 1 if successor is not None else 0
        thread.pending.append(self._op_bundle(
            thread, [MemRef(mutex.address, AccessKind.DATA_WRITE)], (value,)))
        if successor is not None:
            self._make_ready(successor, cause=f"unlock:{mutex.name}",
                             waker=thread)

    def _do_wait(self, cpu_id: int, thread: TopazThread,
                 condition: Condition, mutex: Mutex) -> bool:
        self.stats.incr("waits")
        successor = mutex.release_by(thread)
        # Touch both words: read the condition, drop the mutex.
        self._switch_queue[cpu_id].append(self._op_bundle(
            thread,
            [MemRef(condition.address, AccessKind.DATA_READ),
             MemRef(mutex.address, AccessKind.DATA_WRITE)],
            (1 if successor is not None else 0,)))
        if successor is not None:
            self._make_ready(successor, cause=f"unlock:{mutex.name}",
                             waker=thread)
        condition.add_waiter(thread)
        thread.wait_mutex = mutex
        self._block(cpu_id, thread, f"wait:{condition.name}")
        return False

    def _do_signal(self, thread: TopazThread, condition: Condition,
                   broadcast: bool) -> None:
        self.stats.incr("broadcasts" if broadcast else "signals")
        woken = (condition.take_all() if broadcast
                 else [w for w in [condition.take_one()] if w is not None])
        thread.pending.append(self._op_bundle(
            thread, [MemRef(condition.address, AccessKind.DATA_WRITE)],
            (condition.sequence,)))
        for waiter in woken:
            self._wake_from_wait(waiter, signaller=thread,
                                 condition=condition)

    def _wake_from_wait(self, waiter: TopazThread,
                        signaller: Optional[TopazThread] = None,
                        condition: Optional[Condition] = None) -> None:
        """Mesa semantics: a signalled waiter re-acquires its mutex."""
        mutex: Mutex = getattr(waiter, "wait_mutex")
        waiter.wait_mutex = None
        if mutex.held:
            mutex.waiters.append(waiter)
            waiter.blocked_on = f"lock:{mutex.name}"
        else:
            mutex.acquire_by(waiter)
            cause = f"signal:{condition.name}" if condition else "signal"
            self._make_ready(waiter, cause=cause, waker=signaller)

    def _block(self, cpu_id: int, thread: TopazThread, why: str) -> None:
        thread.state = ThreadState.BLOCKED
        thread.blocked_on = why
        self.stats.incr("blocks")
        self._note_offcpu(cpu_id, thread, why)
        self._current[cpu_id] = None

    def _finish(self, cpu_id: int, thread: TopazThread, result: Any) -> None:
        thread.state = ThreadState.DONE
        thread.result = result
        self.stats.incr("thread_exits")
        self._note_offcpu(cpu_id, thread, "exit")
        self._current[cpu_id] = None
        while thread.joiners:
            joiner = thread.joiners.popleft()
            joiner.inbox = result
            self._make_ready(joiner, cause=f"join:{thread.name}",
                             waker=thread)

    def _make_ready(self, thread: TopazThread,
                    cause: Optional[str] = None,
                    waker: Optional[TopazThread] = None) -> None:
        if cause is not None and self.probe.active:
            ctx = thread.ctx
            waker_ctx = waker.ctx if waker is not None else None
            self.probe.instant("causal.wake", "sched",
                               thread=thread.name, tid=thread.tid,
                               trace=ctx.trace_id if ctx else 0,
                               span=ctx.span_id if ctx else 0,
                               waker_span=(waker_ctx.span_id
                                           if waker_ctx else 0),
                               cause=cause)
        self.scheduler.enqueue(thread)
        self.stats.incr("wakeups")
        self._kick_idle_cpu(preferred=thread.last_cpu)

    def _ipi_received(self, sender: int) -> None:
        self.stats.incr("ipis_received")

    def _context_for_initiator(self, initiator: int) -> Optional[TraceContext]:
        """The trace context of the thread running on ``initiator``.

        Cache initiator ids equal CPU ids; DMA and other non-CPU
        initiators fall outside the range and carry no context.
        """
        if 0 <= initiator < len(self._cpu_ctx):
            return self._cpu_ctx[initiator]
        return None

    def offline_cpu(self, cpu_id: int):
        """Fail a CPU board under Topaz; its thread survives.

        The machine layer halts the board, flushes its cache and
        detaches it from the bus; this layer re-queues whatever thread
        was running there so a survivor picks it up — the scheduler-
        level half of the paper's keeps-running story.  Returns the
        machine's offline Process (join it to wait for the flush).
        """
        proc = self.machine.offline_cpu(cpu_id, absorb=False)
        self._idle_events[cpu_id] = None  # a dead board never wakes
        self._switch_queue[cpu_id].clear()
        thread = self._current[cpu_id]
        self._current[cpu_id] = None
        if thread is not None:
            self._note_offcpu(cpu_id, thread, "cpu-offline")
            self.stats.incr("offline_requeues")
            self.scheduler.enqueue(thread)
            self._kick_idle_cpu(preferred=None)
        return proc

    def _kick_idle_cpu(self, preferred: Optional[int]) -> None:
        order = list(range(len(self._idle_events)))
        if preferred is not None and preferred < len(order):
            order.remove(preferred)
            order.insert(0, preferred)
        for cpu_id in order:
            event = self._idle_events[cpu_id]
            if event is not None and not event.fired:
                self._idle_events[cpu_id] = None
                self.machine.mbus.send_interrupt(cpu_id, sender=-1)
                event.succeed()
                return

    def _op_bundle(self, thread: TopazThread, refs: List[MemRef],
                   write_values: Tuple[int, ...] = ()) -> InstructionBundle:
        """One instruction carrying explicit data refs (plus its fetch)."""
        all_refs = [MemRef(thread.footprint._code_word(),
                           AccessKind.INSTRUCTION_READ)] + refs
        return InstructionBundle(refs=tuple(all_refs),
                                 write_values=write_values)

    def _coherent_value(self, address: int) -> int:
        """The architecturally current value of a word (see ops.Read)."""
        for cache in self.machine.caches:
            value = cache.peek(address)
            if value is not None:
                return value
        return self.machine.memory.peek(address)

    # -- running -----------------------------------------------------------------------

    def run(self, warmup_cycles: int = 100_000, measure_cycles: int = 400_000):
        """Warm up, measure, return machine metrics (see FireflyMachine)."""
        return self.machine.run(warmup_cycles, measure_cycles)

    def run_until_quiescent(self, max_cycles: int = 50_000_000,
                            slice_cycles: int = 50_000) -> int:
        """Run until every thread is DONE; return the finish time.

        Raises :class:`DeadlockError` as soon as a slice ends with
        every live thread blocked on a lock, condition or join (nothing
        left that could wake them), and :class:`SimulationError` if the
        horizon passes first (livelock, or simply too small a budget).
        """
        self.machine.start()
        deadline = self.sim.now + max_cycles
        while self.sim.now < deadline:
            if all(t.done for t in self.threads):
                return self.sim.now
            if self._thread_deadlock():
                blocked = sorted((t.name, t.blocked_on or "?")
                                 for t in self.threads if not t.done)
                raise DeadlockError(blocked, now=self.sim.now,
                                    edges=self.wait_edges())
            self.sim.run_until(min(self.sim.now + slice_cycles, deadline))
        stuck = [f"{t.name}({t.blocked_on})" for t in self.threads
                 if not t.done]
        raise SimulationError(
            f"threads still live at horizon: {', '.join(stuck) or 'none?'}")

    def _thread_deadlock(self) -> bool:
        """True when no live thread can ever run again.

        Every live thread must be blocked on a lock/condition/join
        (device waits resolve externally), with nothing on a CPU, no
        ready work, and no queued kernel-mode instructions.
        """
        live = [t for t in self.threads if not t.done]
        if not live or self.scheduler.ready_count > 0:
            return False
        if any(t is not None for t in self._current):
            return False
        if any(self._switch_queue):
            return False
        for thread in live:
            why = thread.blocked_on
            if why is None or not why.startswith(("lock:", "wait:", "join:")):
                return False
        return True

    def wait_edges(self) -> List[Tuple[str, str, str]]:
        """(waiter, resource, holder) for every blocked thread.

        The holder is the mutex owner for ``lock:`` waits, the awaited
        thread for ``join:`` waits, and empty for condition waits
        (anyone could signal).  Sorted for deterministic reports.
        """
        mutex_by_name = {m.name: m for m in self.mutexes}
        edges = []
        for thread in self.threads:
            why = thread.blocked_on
            if thread.done or not why:
                continue
            holder = ""
            if why.startswith("lock:"):
                mutex = mutex_by_name.get(why[5:])
                if mutex is not None and mutex.owner is not None:
                    holder = mutex.owner.name
            elif why.startswith("join:"):
                holder = why[5:]
            edges.append((thread.name, why, holder))
        return sorted(edges)

    @property
    def total_migrations(self) -> int:
        return sum(t.migrations for t in self.threads)
