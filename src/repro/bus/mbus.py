"""The MBus: the Firefly's shared memory bus.

Characteristics (paper, §5 and §5.1):

- 100 ns cycles; every operation (``MRead`` or ``MWrite``) takes 4
  cycles, non-pipelined, giving one four-byte transfer per 400 ns and
  an aggregate bandwidth of 10 MB/s.
- Fixed-priority arbitration among the attached caches (plus the I/O
  processor's cache, through which all DMA flows).
- The ``MShared`` wire: during cycle 3 of an operation, every cache
  other than the initiator that holds the addressed line asserts
  ``MShared``.  The initiator's protocol logic uses the response to set
  its Shared tag; on an ``MRead`` an asserted ``MShared`` also inhibits
  memory, and the sharing caches supply the data (their copies are
  identical, so multiple drivers are harmless).
- Sideband wires carry interprocessor interrupts and initialisation;
  these do not consume data cycles.

Two operation kinds beyond the real MBus's pair — ``MREAD_EX`` and
``MINVALIDATE`` — exist so that baseline coherence protocols can run on
the identical bus model; see :class:`repro.common.types.BusOp`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Tuple

from repro.common.errors import (
    BusTransferError,
    ConfigurationError,
    SimulationError,
)
from repro.common.events import Simulator
from repro.common.stats import StatSet, Utilization
from repro.common.types import MBUS_OP_CYCLES, BusOp, BusTransaction
from repro.telemetry.probe import NULL_PROBE

LineData = Tuple[int, ...]


class SnoopResult:
    """What one snooper reports back during a bus operation.

    ``shared``
        The snooper holds the addressed line (drives ``MShared``).
    ``data``
        The line contents, if the snooper can supply them (dirty or
        clean — Firefly caches all drive identical values).  ``None``
        means this snooper does not drive the data wires.
    ``write_back``
        Ask the bus to *snarf* the supplied data into main memory
        during this transaction.  The Firefly never sets this (it
        asserts memory-inhibit instead and keeps the dirty copy);
        Illinois/MESI and write-once use it when a modified holder
        answers a read and simultaneously gives up ownership.

    Treat instances as immutable.  Slotted plain class (not a frozen
    dataclass): one is built per snooped transaction, inside the snoop
    fan-out that dominates multi-CPU runs.
    """

    __slots__ = ("shared", "data", "write_back")

    def __init__(self, shared: bool = False,
                 data: Optional[LineData] = None,
                 write_back: bool = False) -> None:
        self.shared = shared
        self.data = data
        self.write_back = write_back

    def __eq__(self, other: object) -> bool:
        if other.__class__ is SnoopResult:
            return (self.shared == other.shared and self.data == other.data
                    and self.write_back == other.write_back)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.shared, self.data, self.write_back))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SnoopResult(shared={self.shared!r}, data={self.data!r}, "
                f"write_back={self.write_back!r})")


class Snooper(Protocol):
    """Interface a cache exposes to the bus for snooping.

    ``snoop`` is invoked once per transaction, for every attached
    snooper except the initiator, logically during cycles 2-3 (tag
    probe then MShared).  It must apply the protocol's bus-induced
    state transition and return a :class:`SnoopResult`.
    """

    snooper_id: int

    def snoop(self, op: BusOp, line_address: int,
              data: Optional[LineData]) -> SnoopResult:
        ...


class MemoryPort(Protocol):
    """Interface main memory exposes to the bus."""

    def read_line(self, line_address: int) -> LineData:
        ...

    def write_line(self, line_address: int, data: LineData) -> None:
        ...

    def covers(self, line_address: int) -> bool:
        ...


class MBus:
    """The shared memory bus, including arbiter, snoop fan-out and stats.

    A bus *client* (cache or DMA port) performs a transaction with::

        txn = yield from mbus.transaction(priority, BusOp.MREAD, line_addr)

    inside a kernel process.  The call blocks through arbitration and
    the four bus cycles; the returned :class:`BusTransaction` carries
    the ``MShared`` response and (for reads) the line data is applied
    via the ``on_data`` callback the initiator passed, or available as
    ``txn.data`` for single-word lines.

    State changes in snoopers and memory are applied atomically at the
    grant instant; the initiating process is resumed only after the
    final data cycle, so all *timing* (bus occupancy, queueing delay,
    CPU stall) is cycle-exact while *state* is transaction-atomic.
    """

    __slots__ = ("sim", "memory", "words_per_line", "_resource",
                 "_snoopers", "_snoop_peers", "_interrupt_handlers",
                 "faults", "stats", "utilization", "probe", "context_source",
                 "_c_ops", "_c_read_memory", "_c_read_cache",
                 "_c_write_mshared", "_c_write_not_mshared",
                 "_c_write_victim", "_c_per_op")

    def __init__(self, sim: Simulator, memory: Optional[MemoryPort] = None,
                 words_per_line: int = 1) -> None:
        if words_per_line < 1:
            raise ConfigurationError(
                f"words_per_line must be >= 1, got {words_per_line}")
        self.sim = sim
        self.memory = memory
        self.words_per_line = words_per_line
        self._resource = sim.resource("MBus")
        self._snoopers: List[Snooper] = []
        # Per-initiator snoop fan-out lists: (snooper, bound snoop), in
        # attach order minus the initiator itself.  Rebuilt lazily after
        # any attach/detach; saves re-filtering the initiator and
        # re-creating the bound method on every transaction.
        self._snoop_peers: Dict[int, List] = {}
        self._interrupt_handlers: Dict[int, List[Callable[[int], None]]] = {}
        #: Optional fault model (see :mod:`repro.faults.models`).  When
        #: None — the default — every fault branch below is a single
        #: attribute test, so the happy path is cycle-identical to a
        #: build without the fault subsystem.
        self.faults = None
        self.stats = StatSet("mbus")
        self.utilization = Utilization("mbus")
        #: Telemetry probe; inert unless a TelemetryHub is attached.
        self.probe = NULL_PROBE
        #: Optional ``initiator -> TraceContext`` callable (the Topaz
        #: kernel installs one); consulted only when the probe is
        #: active, to stamp trace/span ids onto ``bus.op`` events.
        self.context_source = None
        # The reporting counters exist from construction (not lazily on
        # first increment), so metric collection can tell "zero events"
        # apart from "counter renamed" — see StatSet.get_windowed.  They
        # are also kept pre-bound: _count runs once per bus operation
        # and a bound Counter.add skips the StatSet key lookup.
        stats = self.stats
        self._c_ops = stats.counter("ops")
        self._c_read_memory = stats.counter("read.memory_supplied")
        self._c_read_cache = stats.counter("read.cache_supplied")
        self._c_write_mshared = stats.counter("write.mshared")
        self._c_write_not_mshared = stats.counter("write.not_mshared")
        self._c_write_victim = stats.counter("write.victim")
        self._c_per_op = {op: stats.counter(f"op.{op.value}")
                          for op in BusOp}

    # -- configuration -------------------------------------------------

    def attach_memory(self, memory: MemoryPort) -> None:
        """Attach the main-memory module array (exactly once)."""
        if self.memory is not None:
            raise ConfigurationError("MBus already has memory attached")
        self.memory = memory

    def attach_snooper(self, snooper: Snooper) -> None:
        """Attach a cache's snoop port; order is irrelevant to results.

        Arbitration priorities are validated here, eagerly: the fixed
        priority chain of the real arbiter cannot hold a negative slot,
        and two clients on the same level would tie every arbitration
        — a miswired machine, not a runnable one.
        """
        if any(s.snooper_id == snooper.snooper_id for s in self._snoopers):
            raise ConfigurationError(
                f"duplicate snooper id {snooper.snooper_id}")
        priority = getattr(snooper, "priority", None)
        if priority is not None:
            if priority < 0:
                raise ConfigurationError(
                    f"snooper {snooper.snooper_id} has negative arbitration "
                    f"priority {priority}")
            for other in self._snoopers:
                if getattr(other, "priority", None) == priority:
                    raise ConfigurationError(
                        f"snoopers {other.snooper_id} and "
                        f"{snooper.snooper_id} share fixed arbitration "
                        f"priority {priority}")
        self._snoopers.append(snooper)
        self._snoop_peers.clear()

    def detach_snooper(self, snooper_id: int) -> None:
        """Remove a cache from the snoop fan-out (CPU-board offlining)."""
        for i, snooper in enumerate(self._snoopers):
            if snooper.snooper_id == snooper_id:
                del self._snoopers[i]
                self._snoop_peers.clear()
                return
        raise ConfigurationError(f"no snooper {snooper_id} attached")

    @property
    def snoopers(self) -> Tuple[Snooper, ...]:
        return tuple(self._snoopers)

    # -- transactions ---------------------------------------------------

    def transaction(self, priority: int, op: BusOp, line_address: int,
                    initiator: int, data: Optional[LineData] = None,
                    is_victim: bool = False, update_memory: bool = True):
        """Perform one bus operation.  Generator; use ``yield from``.

        Parameters
        ----------
        priority:
            Arbitration priority (lower wins), fixed per cache slot.
        op:
            The bus operation kind.
        line_address:
            First word address of the (aligned) line.
        initiator:
            Snooper id of the initiating cache (or a DMA port id);
            the initiator is excluded from the snoop fan-out.
        data:
            For MWRITE: the line data driven in cycle 2 — either the
            tuple itself, or a zero-argument callable evaluated at the
            grant instant.  The callable form exists because a writer
            can be *queued* behind another write to the same line: the
            earlier write updates the queued writer's cached copy via
            snooping, and the queued writer must then drive its own
            word merged into that updated line, exactly as byte-enable
            hardware would.  Capturing the payload at request time
            would regress the earlier write.
        is_victim:
            Marks an MWRITE as a victim write-back (measurement
            category only; the wire protocol is identical).
        update_memory:
            When False, an MWRITE updates snoopers but not main memory
            (the Dragon's shared-update broadcast, where the writer
            remains owner and memory stays stale until victimisation).
            The Firefly always updates memory.
        """
        if op is BusOp.MWRITE and data is None:
            raise SimulationError(f"{op} requires write data")
        wpl = self.words_per_line
        if wpl != 1 and line_address % wpl != 0:
            raise SimulationError(
                f"unaligned line address {line_address:#x} "
                f"(words_per_line={wpl})")
        attempts = 0
        sim = self.sim
        resource = self._resource
        while True:
            requested = sim.now
            yield resource.acquire(priority=priority)
            start = sim.now
            faults = self.faults
            corrupted = (faults is not None
                         and faults.corrupts(op, line_address, initiator))
            if not corrupted:
                txn = self._execute(op, line_address, initiator, data,
                                    is_victim, update_memory)
            yield sim.timeout(MBUS_OP_CYCLES)
            holder = resource.holder
            if holder is None:  # pragma: no cover - defensive
                raise SimulationError("bus released mid-transaction")
            resource.release(holder)
            if not corrupted:
                break
            # Parity failed during the data cycles: the tenure occupied
            # the bus but applied no state.  Back off, then re-arbitrate.
            attempts += 1
            self.utilization.add_busy(MBUS_OP_CYCLES)
            self.stats.incr("parity.errors")
            if self.probe.active:
                self.probe.instant("fault.bus_parity", "bus", op=op.value,
                                   address=line_address, initiator=initiator,
                                   attempt=attempts)
            if attempts > faults.max_retries:
                faults.notify_exhausted(op, line_address, initiator,
                                        attempts)
                raise BusTransferError(op, line_address, initiator, attempts)
            yield self.sim.timeout(faults.backoff_cycles(attempts))
        if attempts:
            self.stats.incr("parity.recovered")
            if faults is not None:
                faults.notify_recovered(op, line_address, initiator,
                                        attempts)
        probe = self.probe
        if probe.active:
            # The tenure's one record besides the counters.  `wait`
            # makes it a self-contained latency span: request at
            # start-wait, grant at start, release at start+duration —
            # the decomposition the span tracers rebuild transaction
            # spans from; repro.bus.signals draws Figure 4 from it.
            causal = {}
            source = self.context_source
            if source is not None:
                ctx = source(initiator)
                if ctx is not None:
                    causal = {"trace": ctx.trace_id, "span": ctx.span_id}
            probe.complete("bus.op", "bus", start, MBUS_OP_CYCLES,
                           op=op.value, address=line_address,
                           initiator=initiator, wait=start - requested,
                           shared=txn.shared_response,
                           cache_supplied=txn.supplied_by_cache,
                           victim=is_victim, **causal)
        return txn

    def _execute(self, op: BusOp, line_address: int, initiator: int,
                 data: Optional[LineData], is_victim: bool,
                 update_memory: bool = True) -> BusTransaction:
        """Apply the transaction's state effects and gather responses."""
        if callable(data):
            data = data()
        shared = False
        snarf = False
        cache_data: Optional[LineData] = None
        faults = self.faults
        peers = self._snoop_peers.get(initiator)
        if peers is None:
            peers = self._snoop_peers[initiator] = [
                (s, s.snoop) for s in self._snoopers
                if s.snooper_id != initiator]
        for snooper, probe_snoop in peers:
            if (faults is not None
                    and faults.drops_snoop(snooper, op, line_address)):
                # The snoop probe never reached this cache: it neither
                # updates its copy nor asserts MShared.  Whatever state
                # damage follows is the invariant checkers' to find.
                self.stats.incr("snoop.dropped")
                if self.probe.active:
                    self.probe.instant("fault.snoop_drop", "bus",
                                       op=op.value, address=line_address,
                                       victim=snooper.snooper_id)
                continue
            result = probe_snoop(op, line_address, data)
            if result.shared:
                shared = True
            if result.write_back:
                snarf = True
            rdata = result.data
            if rdata is not None:
                if cache_data is not None and cache_data != rdata:
                    raise SimulationError(
                        f"caches drove conflicting data for {line_address:#x}: "
                        f"{cache_data} vs {rdata}")
                cache_data = rdata

        supplied_by_cache = False
        returned: Optional[LineData] = None
        if op is BusOp.MWRITE:
            # Write-throughs and victim writes always update main memory
            # ("other caches that share the datum are updated, as is
            # main storage").
            if update_memory and self.memory is not None:
                self.memory.write_line(line_address, data)
        elif op is not BusOp.MINVALIDATE:  # MRead / MReadEx return data
            if cache_data is not None:
                supplied_by_cache = True
                returned = cache_data
            elif self.memory is not None:
                returned = self.memory.read_line(line_address)
            else:
                raise SimulationError("MRead with no memory and no sharer")
            if snarf and self.memory is not None:
                # Illinois-style reflection: the previous owner's data is
                # written to memory in the same transaction.
                self.memory.write_line(line_address, returned)
                self.stats.incr("read.snarfed")

        self._count(op, shared, is_victim, supplied_by_cache)
        word = None
        if returned is not None and self.words_per_line == 1:
            word = returned[0]
        return BusTransaction(
            shared_response=shared,
            supplied_by_cache=supplied_by_cache,
            data=word if word is not None else (returned if returned else None),
        )

    def _count(self, op: BusOp, shared: bool, is_victim: bool,
               supplied_by_cache: bool) -> None:
        self.utilization.add_busy(MBUS_OP_CYCLES)
        self._c_ops.add()
        self._c_per_op[op].add()
        if op is BusOp.MWRITE:
            if is_victim:
                self._c_write_victim.add()
            elif shared:
                self._c_write_mshared.add()
            else:
                self._c_write_not_mshared.add()
        elif op is not BusOp.MINVALIDATE:  # MRead / MReadEx
            (self._c_read_cache if supplied_by_cache
             else self._c_read_memory).add()

    # -- measurement ----------------------------------------------------

    def mark_window(self) -> None:
        """Open a measurement window on load and all counters."""
        self.utilization.mark(self.sim.now)
        self.stats.mark_all()

    def load(self) -> float:
        """Bus load L (busy fraction) over the open window."""
        return self.utilization.load(self.sim.now)

    @property
    def queue_wait_cycles(self) -> int:
        """Cumulative cycles initiators spent waiting for grants."""
        return self._resource.total_wait

    @property
    def busy(self) -> bool:
        """Whether a transaction is in flight right now (prefetch throttle)."""
        return self._resource.holder is not None

    @property
    def queue_depth(self) -> int:
        """Initiators currently waiting for a grant (sampler gauge)."""
        return self._resource.queue_length

    # -- interprocessor interrupts ---------------------------------------

    def register_interrupt_handler(self, target: int,
                                   handler: Callable[[int], None]) -> None:
        """Register ``handler(sender)`` for IPIs aimed at ``target``."""
        self._interrupt_handlers.setdefault(target, []).append(handler)

    def send_interrupt(self, target: int, sender: int) -> None:
        """Deliver an interprocessor interrupt over the sideband wires.

        IPIs use dedicated MBus wires, so they consume no data cycles;
        delivery is immediate (handlers run at the current time).
        Sending to a target with no registered handler is a wiring
        error: the interrupt would assert a line nothing listens to.
        """
        handlers = self._interrupt_handlers.get(target)
        if not handlers:
            raise ConfigurationError(
                f"IPI to target {target} with no registered interrupt "
                f"handler")
        self.stats.incr("ipi")
        if self.probe.active:
            self.probe.instant("bus.ipi", "bus", target=target, sender=sender)
        for handler in handlers:
            handler(sender)
