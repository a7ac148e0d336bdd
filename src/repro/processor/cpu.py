"""The stochastic processor model.

A :class:`Processor` is a kernel process that repeatedly asks its
*reference source* for the next instruction — a small bundle of memory
references plus control-flow metadata — and executes it against its
cache with cycle-exact timing:

- the instruction's base cost comes from the timing model's
  ``base_cycles_per_instruction`` (11.9 ticks on the MicroVAX),
  converted to integer cycles by error diffusion so the long-run mean
  is exact;
- each reference that has to visit the MBus consumes its budgeted tick
  *during* the bus wait, so a miss on a free bus costs exactly one tick
  more than a hit, and a dirty victim adds one full bus operation —
  matching the paper's accounting;
- a CPU access that collides with a snoop probe of its own tag store
  stalls one tick (the analytic model's SP term);
- the MicroVAX instruction prefetcher is modelled behaviourally:
  sequential instruction fetches that hit are partially overlapped with
  execution (refunding base cycles, raising the issue rate toward the
  paper's 10.5 TPI perfect-prefetch figure), and jumps waste prefetches
  — extra instruction reads that raise the reference rate without
  raising the issue rate.  The prefetcher defers wasted fetches when
  the bus is busy, which reproduces Table 2's observation that the
  read:write ratio drops as bus load rises.

The source abstraction lets the same CPU model run synthetic workloads
(:mod:`repro.processor.refgen`), Topaz threads
(:mod:`repro.topaz.runtime`) or recorded traces (:mod:`repro.trace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Tuple, Union

from repro.cache.cache import SnoopyCache
from repro.common.errors import ConfigurationError
from repro.common.events import Event, Simulator
from repro.common.rng import FractionalAccumulator, RandomStream
from repro.common.stats import StatSet
from repro.common.types import AccessKind, MemRef
from repro.processor.onchip import OnChipICache
from repro.processor.timing import ProcessorTiming


class InstructionBundle:
    """One instruction's worth of memory references.

    ``is_jump`` marks a control-flow discontinuity (the prefetcher's
    queued fetches beyond it are wasted).  ``prefetch_addresses`` are
    the sequential instruction addresses the prefetcher had speculated
    past the jump; the CPU may issue some of them as wasted fetches.
    ``write_values`` supplies the value for each DATA_WRITE ref in
    order; sources that don't care get monotonic tokens instead.
    ``base_cycles`` overrides the CPU's per-instruction base cost for
    this bundle — sources use it to model workload-dependent
    instruction mixes (the Threads exerciser of Table 2 executes
    simpler, faster instructions than the VAX-average 11.9 TPI).

    Treat instances as immutable.  Slotted plain class (not a frozen
    dataclass): reference sources build one per simulated instruction,
    so construction cost is hot — see docs/PERFORMANCE.md.
    """

    __slots__ = ("refs", "is_jump", "prefetch_addresses", "write_values",
                 "base_cycles")

    def __init__(self, refs: Tuple[MemRef, ...], is_jump: bool = False,
                 prefetch_addresses: Tuple[int, ...] = (),
                 write_values: Tuple[int, ...] = (),
                 base_cycles: Optional[int] = None) -> None:
        self.refs = refs
        self.is_jump = is_jump
        self.prefetch_addresses = prefetch_addresses
        self.write_values = write_values
        self.base_cycles = base_cycles

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"InstructionBundle(refs={self.refs!r}, "
                f"is_jump={self.is_jump!r}, "
                f"prefetch_addresses={self.prefetch_addresses!r}, "
                f"write_values={self.write_values!r}, "
                f"base_cycles={self.base_cycles!r})")


class ReferenceSource(Protocol):
    """Supplies instructions to a :class:`Processor`.

    ``next_instruction`` returns an :class:`InstructionBundle` to
    execute, an :class:`Event` to sleep on (CPU idle — e.g. no runnable
    thread), or ``None`` to halt the processor permanently.
    """

    def next_instruction(self, cpu: "Processor") -> Union[
            InstructionBundle, Event, None]:
        ...


@dataclass(frozen=True)
class PrefetchConfig:
    """Behavioural prefetcher parameters.

    ``refund_cycles`` — base cycles refunded per sequential instruction
    fetch that hits (overlap with execution).  The default of 3 cycles
    yields an effective ~10.7 TPI at full coverage on the MicroVAX,
    close to the paper's perfect-prefetch estimate of 10.5.

    ``wasted_per_jump`` — mean discarded prefetches per jump; each is
    an extra instruction read on the reference stream.
    """

    enabled: bool = False
    refund_cycles: int = 3
    wasted_per_jump: float = 1.5

    def __post_init__(self) -> None:
        if self.refund_cycles < 0:
            raise ConfigurationError("refund_cycles must be >= 0")
        if self.wasted_per_jump < 0:
            raise ConfigurationError("wasted_per_jump must be >= 0")


class InterleavedSource:
    """Round-robin merge of two reference sources (CPU failover).

    Created by :meth:`Processor.absorb_source` when a survivor takes
    over a failed board's stream.  A constituent source that halts
    (returns ``None``) drops out; the other keeps the CPU busy.  An
    idle :class:`Event` from one source is passed through unchanged —
    the CPU sleeps on it exactly as it would single-sourced.
    """

    def __init__(self, primary: "ReferenceSource",
                 orphan: "ReferenceSource") -> None:
        self._sources = [primary, orphan]
        self._turn = 0

    def next_instruction(self, cpu: "Processor") -> Union[
            "InstructionBundle", Event, None]:
        for _ in range(len(self._sources)):
            source = self._sources[self._turn % len(self._sources)]
            self._turn += 1
            item = source.next_instruction(cpu)
            if item is None:
                self._sources.remove(source)
                if not self._sources:
                    return None
                continue
            return item
        return None


class Processor:
    """One CPU: timing model + cache + reference source, as a process."""

    __slots__ = ("sim", "cpu_id", "timing", "cache", "source", "prefetch",
                 "_rng", "stats", "_base_acc", "_wasted_acc", "onchip",
                 "_write_token", "_halted", "failed", "_window_start",
                 "process",
                 "_c_refs_ifetch", "_c_refs_dread", "_c_refs_dwrite",
                 "_c_sp_stalls", "_c_bus_stall_cycles", "_c_instructions",
                 "_c_prefetch_covered")

    def __init__(self, sim: Simulator, cpu_id: int, timing: ProcessorTiming,
                 cache: SnoopyCache, source: ReferenceSource,
                 prefetch: Optional[PrefetchConfig] = None,
                 rng: Optional[RandomStream] = None) -> None:
        self.sim = sim
        self.cpu_id = cpu_id
        self.timing = timing
        self.cache = cache
        self.source = source
        self.prefetch = prefetch or PrefetchConfig()
        if self.prefetch.enabled and rng is None:
            raise ConfigurationError(
                "prefetch modelling requires a random stream")
        self._rng = rng
        self.stats = StatSet(f"cpu{cpu_id}")
        self._base_acc = FractionalAccumulator(
            timing.base_cycles_per_instruction)
        self._wasted_acc = FractionalAccumulator(self.prefetch.wasted_per_jump)
        self.onchip: Optional[OnChipICache] = None
        if timing.has_onchip_icache:
            self.onchip = OnChipICache(timing.onchip_icache_lines,
                                       name=f"cpu{cpu_id}.onchip")
            # Stale-code safety: any snooped bus write to a line this
            # CPU holds on-chip drops the on-chip copy (the board logic
            # the CVAX docs describe).
            words = cache.geometry.words_per_line

            def invalidate_onchip(line_address, _onchip=self.onchip,
                                  _words=words):
                for offset in range(_words):
                    _onchip.invalidate_line(line_address + offset)

            cache.on_snooped_write = invalidate_onchip
        self._write_token = (cpu_id + 1) << 40
        self._halted = False
        self.failed = False
        self._window_start = 0
        self.process = None  # set by start()
        # Per-reference counters, pre-created so the execute loop does
        # bound Counter.add calls instead of keyed StatSet lookups.
        stats = self.stats
        self._c_refs_ifetch = stats.counter("refs.ifetch")
        self._c_refs_dread = stats.counter("refs.dread")
        self._c_refs_dwrite = stats.counter("refs.dwrite")
        self._c_sp_stalls = stats.counter("sp_stalls")
        self._c_bus_stall_cycles = stats.counter("bus_stall_cycles")
        self._c_instructions = stats.counter("instructions")
        self._c_prefetch_covered = stats.counter("prefetch_covered")

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Register the CPU's execution loop with the simulator."""
        self.process = self.sim.process(self._run(), name=f"cpu{self.cpu_id}")

    def halt(self) -> None:
        """Stop fetching after the current instruction completes."""
        self._halted = True

    def fail(self) -> None:
        """Mark this CPU board as failed (fault injection).

        The execution loop stops at the next fetch boundary; the board-
        level recovery (cache flush, bus detach, work re-sourcing) is
        orchestrated by :meth:`FireflyMachine.offline_cpu`.
        """
        self.failed = True
        self._halted = True
        self.stats.incr("failed_at", self.sim.now)

    def absorb_source(self, orphan: "ReferenceSource") -> None:
        """Interleave a failed CPU's reference stream into this one's.

        The survivor alternates between its own work and the orphaned
        stream — the simplest work-conserving re-sourcing, standing in
        for the scheduler migrating the dead board's runnable threads.
        """
        self.source = InterleavedSource(self.source, orphan)
        self.stats.incr("absorbed_sources")

    def _run(self):
        while not self._halted:
            item = self.source.next_instruction(self)
            if item is None:
                break
            if isinstance(item, Event):
                idle_from = self.sim.now
                yield item
                self.stats.incr("idle_cycles", self.sim.now - idle_from)
                continue
            yield from self.execute(item)
        self.stats.incr("halted_at", self.sim.now)

    # -- execution ---------------------------------------------------------

    def execute(self, bundle: InstructionBundle):
        """Generator: run one instruction with cycle-exact timing."""
        timing = self.timing
        budget = (bundle.base_cycles if bundle.base_cycles is not None
                  else self._base_acc.next())
        spent = 0
        refund = 0
        write_index = 0
        # Hot-loop locals: every name below is touched once or more per
        # reference, and the per-tick reference loop IS the simulator's
        # profile peak (see docs/PERFORMANCE.md).
        sim = self.sim
        cache = self.cache
        onchip = self.onchip
        tick = timing.tick_cycles
        miss_overhead = timing.miss_overhead_cycles
        prefetch_enabled = self.prefetch.enabled
        refund_cycles = self.prefetch.refund_cycles

        for ref in bundle.refs:
            if sim.now < cache.tag_busy_until:
                self._c_sp_stalls.add()
                yield sim.timeout(tick)

            # Hits are serviced by the cache's non-generator fast paths
            # (no generator construction, no suspension); only misses
            # and protocol-loud hits pay for the coroutine machinery.
            # Counter ordering matters: the reference counters increment
            # after the access completes, exactly as the generator path
            # did, so a measurement window opened mid-miss attributes
            # the reference to the same side of the mark.
            kind = ref.kind
            if kind is AccessKind.DATA_WRITE:
                value = self._next_write_value(bundle, write_index)
                write_index += 1
                if cache.cpu_write_fast(ref, value):
                    elapsed = 0
                else:
                    started = sim.now
                    yield from cache.cpu_write(ref, value)
                    elapsed = sim.now - started
                self._c_refs_dwrite.add()
            elif kind is AccessKind.INSTRUCTION_READ:
                if onchip is not None and onchip.access(ref.address):
                    elapsed = 0
                elif cache.cpu_read_fast(ref):
                    elapsed = 0
                else:
                    started = sim.now
                    yield from cache.cpu_read(ref)
                    elapsed = sim.now - started
                self._c_refs_ifetch.add()
            else:
                if cache.cpu_read_fast(ref):
                    elapsed = 0
                else:
                    started = sim.now
                    yield from cache.cpu_read(ref)
                    elapsed = sim.now - started
                self._c_refs_dread.add()

            if elapsed > 0:
                # This reference visited the bus: its budgeted tick was
                # consumed during the wait, plus any fixed overhead.
                spent += tick
                self._c_bus_stall_cycles.add(elapsed)
                if miss_overhead:
                    yield sim.timeout(miss_overhead)
            elif (prefetch_enabled
                  and kind is AccessKind.INSTRUCTION_READ
                  and not bundle.is_jump):
                # Sequential fetch that hit: overlapped with execution.
                refund += refund_cycles
                self._c_prefetch_covered.add()

        if prefetch_enabled and bundle.is_jump:
            yield from self._wasted_prefetches(bundle)

        remaining = budget - spent - refund
        if remaining > 0:
            yield sim.timeout(remaining)
        self._c_instructions.add()

    def _timed(self, access):
        """Generator: run a cache access, returning elapsed cycles."""
        started = self.sim.now
        yield from access
        return self.sim.now - started

    def _wasted_prefetches(self, bundle: InstructionBundle):
        """Generator: issue the prefetches discarded by a jump.

        The prefetcher defers when the bus is busy — under load it
        fetches less aggressively, so wasted traffic self-throttles
        (the mechanism behind Table 2's read:write ratio shift).
        """
        count = self._wasted_acc.next()
        for address in bundle.prefetch_addresses[:count]:
            if self.cache.mbus.busy:
                self.stats.incr("prefetch_deferred")
                continue
            ref = MemRef(address, AccessKind.INSTRUCTION_READ, prefetch=True)
            if self.onchip is not None and self.onchip.access(address):
                continue
            yield from self._timed(self.cache.cpu_read(ref))
            self.stats.incr("refs.ifetch")
            self.stats.incr("wasted_prefetches")

    def _next_write_value(self, bundle: InstructionBundle, index: int) -> int:
        if index < len(bundle.write_values):
            return bundle.write_values[index]
        self._write_token += 1
        return self._write_token

    # -- measurement -------------------------------------------------------------

    def mark_window(self) -> None:
        """Open a measurement window (start counting after warm-up)."""
        self.stats.mark_all()
        self._window_start = self.sim.now

    def measured_tpi(self) -> float:
        """Realised ticks per instruction over the open window."""
        instructions = self.stats["instructions"].windowed
        if instructions == 0:
            return 0.0
        busy = (self.sim.now - self._window_start
                - self.stats["idle_cycles"].windowed)
        return busy / self.timing.tick_cycles / instructions

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Processor {self.cpu_id} {self.timing.name}>"
