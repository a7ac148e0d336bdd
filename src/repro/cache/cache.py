"""The direct-mapped snoopy cache.

:class:`SnoopyCache` owns the *structure* — tag array, indexing, the
snoop port, DMA port, statistics, and tag-store contention tracking —
and delegates every coherence decision to a
:class:`~repro.cache.protocols.base.CoherenceProtocol`.

CPU-side entry points (``cpu_read`` / ``cpu_write``) are generators run
inside a kernel process: a hit returns without advancing time (the
CPU's tick already covers it), a miss advances time by exactly the bus
transactions the protocol performs.  The DMA entry points implement the
paper's rule that QBus DMA goes *through* the I/O processor's cache but
misses do not allocate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.bus.mbus import MBus, SnoopResult
from repro.cache.line import CacheLine, LineState
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.stats import StatSet
from repro.common.types import AccessKind, BusOp, MemRef
from repro.telemetry.probe import NULL_PROBE


@dataclass(frozen=True)
class CacheGeometry:
    """Size and shape of a direct-mapped cache.

    The MicroVAX Firefly cache is ``CacheGeometry(4096, 1)`` (16 KB);
    the CVAX board uses ``CacheGeometry(16384, 1)`` (64 KB).  Larger
    ``words_per_line`` values exist for the line-size ablation (the
    paper's footnote 4 discusses why 4-byte lines were chosen).
    """

    lines: int
    words_per_line: int = 1

    def __post_init__(self) -> None:
        if self.lines <= 0 or (self.lines & (self.lines - 1)) != 0:
            raise ConfigurationError(
                f"line count must be a positive power of two, got {self.lines}")
        if self.words_per_line <= 0 or \
                (self.words_per_line & (self.words_per_line - 1)) != 0:
            raise ConfigurationError(
                f"words_per_line must be a positive power of two, "
                f"got {self.words_per_line}")

    @property
    def size_bytes(self) -> int:
        return self.lines * self.words_per_line * 4

    def split(self, word_address: int) -> Tuple[int, int, int]:
        """Return (index, tag, word offset) for a word address."""
        line_number = word_address // self.words_per_line
        return (line_number % self.lines, line_number // self.lines,
                word_address % self.words_per_line)

    def line_address(self, word_address: int) -> int:
        """First word address of the line containing ``word_address``."""
        return (word_address // self.words_per_line) * self.words_per_line

    def rebuild_address(self, index: int, tag: int) -> int:
        """Word address of the first word of the line (index, tag)."""
        return (tag * self.lines + index) * self.words_per_line

    MICROVAX = None  # populated below
    CVAX = None


CacheGeometry.MICROVAX = CacheGeometry(4096, 1)
CacheGeometry.CVAX = CacheGeometry(16384, 1)

#: Shared "no match" snoop response (immutable; see SnoopyCache.snoop).
_SNOOP_MISS = SnoopResult(shared=False)


class SnoopyCache:
    """One processor's cache, attached to the MBus as a snooper.

    Parameters
    ----------
    mbus:
        The shared memory bus.
    protocol:
        Coherence protocol instance (stateless; shared across caches is
        fine).
    cache_id:
        Snooper id; doubles as the default arbitration priority, so
        cache 0 (the I/O processor's) has the highest priority, like
        the hardware's fixed priority chain.
    geometry:
        Cache shape; must agree with the bus's ``words_per_line``.
    """

    __slots__ = ("mbus", "_sim", "protocol", "snooper_id", "priority",
                 "geometry", "lines", "stats", "probe",
                 "_track", "tag_busy_until", "on_snooped_write",
                 "_wpl_shift", "_off_mask", "_idx_mask", "_tag_shift",
                 "_silent_states", "_silent_result",
                 "_c_ifetch_hit", "_c_ifetch_miss", "_c_dread_hit",
                 "_c_dread_miss", "_c_dwrite_hit", "_c_dwrite_miss",
                 "_c_snoop_probes", "_c_snoop_hits")

    def __init__(self, mbus: MBus, protocol, cache_id: int,
                 geometry: CacheGeometry,
                 priority: Optional[int] = None) -> None:
        if geometry.words_per_line != mbus.words_per_line:
            raise ConfigurationError(
                f"cache line of {geometry.words_per_line} words does not "
                f"match bus line of {mbus.words_per_line} words")
        self.mbus = mbus
        self._sim = mbus.sim
        self.protocol = protocol
        self.snooper_id = cache_id
        self.priority = cache_id if priority is None else priority
        self.geometry = geometry
        self.lines = [CacheLine(geometry.words_per_line)
                      for _ in range(geometry.lines)]
        self.stats = StatSet(f"cache{cache_id}")
        #: Telemetry probe; inert unless a TelemetryHub is attached.
        self.probe = NULL_PROBE
        self._track = f"cache{cache_id}"
        self.tag_busy_until = 0
        #: Optional hook invoked with the line address of every snooped
        #: bus write (or invalidating operation).  The CVAX CPU wires
        #: its instruction-only on-chip cache here so another
        #: processor's (or DMA's) code modification drops the stale
        #: on-chip copy.
        self.on_snooped_write = None
        # Geometry as shifts and masks (both dimensions are validated
        # powers of two), so the hit fast path splits an address with
        # two shifts and two ands instead of divmod.
        self._wpl_shift = geometry.words_per_line.bit_length() - 1
        self._off_mask = geometry.words_per_line - 1
        self._idx_mask = geometry.lines - 1
        self._tag_shift = geometry.lines.bit_length() - 1
        # Protocol facts the write fast path needs per access, hoisted.
        self._silent_states = protocol.silent_write_states
        self._silent_result = protocol.silent_write_result
        # Hot counters pre-created (the MBus does the same) so the hit
        # path increments a bound Counter instead of formatting a key
        # and resolving it through the StatSet dict on every access.
        stats = self.stats
        self._c_ifetch_hit = stats.counter("ifetch.hit")
        self._c_ifetch_miss = stats.counter("ifetch.miss")
        self._c_dread_hit = stats.counter("dread.hit")
        self._c_dread_miss = stats.counter("dread.miss")
        self._c_dwrite_hit = stats.counter("dwrite.hit")
        self._c_dwrite_miss = stats.counter("dwrite.miss")
        self._c_snoop_probes = stats.counter("snoop.probes")
        self._c_snoop_hits = stats.counter("snoop.hits")
        mbus.attach_snooper(self)

    # -- lookup helpers --------------------------------------------------

    def lookup(self, word_address: int) -> Tuple[CacheLine, int, int, int]:
        """Return (line, index, tag, offset); the line may not match."""
        # Shift/mask address split (precomputed in __init__); same
        # result as geometry.split for the validated power-of-two shape.
        line_number = word_address >> self._wpl_shift
        index = line_number & self._idx_mask
        return (self.lines[index], index, line_number >> self._tag_shift,
                word_address & self._off_mask)

    def present(self, word_address: int) -> bool:
        """Whether the word's line is valid in this cache (no side effects)."""
        line, _, tag, _ = self.lookup(word_address)
        return line.valid and line.tag == tag

    def state_of(self, word_address: int) -> LineState:
        """Current state of the word's line (INVALID if absent)."""
        line, _, tag, _ = self.lookup(word_address)
        if line.valid and line.tag == tag:
            return line.state
        return LineState.INVALID

    def peek(self, word_address: int) -> Optional[int]:
        """Read a cached word without side effects (checker/tests)."""
        line, _, tag, offset = self.lookup(word_address)
        if line.valid and line.tag == tag:
            return line.data[offset]
        return None

    # -- CPU port ----------------------------------------------------------

    def cpu_read_fast(self, ref: MemRef) -> bool:
        """Service a read hit without suspending; True if fully handled.

        The non-generator twin of :meth:`cpu_read` for the
        overwhelmingly common case, a tag match (a read hit is silent
        in every protocol, so no protocol sees it).  Takes zero
        simulated time, performs the same counter update as the
        generator path, and emits nothing (read hits never emit).  The
        CPU discards the value, so none is returned.  Returns False —
        with no side effects at all — on a miss, where the generator
        path must run.
        """
        line_number = ref.address >> self._wpl_shift
        line = self.lines[line_number & self._idx_mask]
        if (line.state is LineState.INVALID
                or line.tag != line_number >> self._tag_shift):
            return False
        if ref.kind is AccessKind.INSTRUCTION_READ:
            self._c_ifetch_hit.add()
        else:
            self._c_dread_hit.add()
        return True

    def cpu_write_fast(self, ref: MemRef, value: int) -> bool:
        """Service a silent write hit without suspending; True if handled.

        Handles the tag-match case where the protocol's
        :attr:`~repro.cache.protocols.base.CoherenceProtocol.silent_write_states`
        says the write needs no bus operation: stores the word, applies
        the protocol's declared
        :attr:`~repro.cache.protocols.base.CoherenceProtocol.silent_write_result`
        state, and (when telemetry is live) emits the same zero-elapsed
        ``Pwrite.hit`` transition event the generator path would.
        Returns False with no side effects for misses and loud hits.
        """
        line_number = ref.address >> self._wpl_shift
        line = self.lines[line_number & self._idx_mask]
        if (line.state is LineState.INVALID
                or line.tag != line_number >> self._tag_shift):
            return False
        before = line.state
        if before not in self._silent_states:
            return False
        self._c_dwrite_hit.add()
        line.data[ref.address & self._off_mask] = value
        result = self._silent_result
        if result is not None:
            line.state = result
        probe = self.probe
        if probe.active and line.state is not before:
            now = self.mbus.sim.now
            probe.complete(
                "cache.transition", self._track, now, 0,
                stimulus="Pwrite.hit", before=before.name,
                after=line.state.name,
                address=self.geometry.line_address(ref.address))
        return True

    def cpu_read(self, ref: MemRef):
        """Generator: service a CPU read, returning the word value."""
        line, index, tag, offset = self.lookup(ref.address)
        ifetch = ref.kind is AccessKind.INSTRUCTION_READ
        if line.state is not LineState.INVALID and line.tag == tag:
            (self._c_ifetch_hit if ifetch else self._c_dread_hit).add()
            return line.data[offset]
        (self._c_ifetch_miss if ifetch else self._c_dread_miss).add()
        start = self.mbus.sim.now
        value = yield from self.protocol.read_miss(self, line, index, tag, offset)
        if self.probe.active:
            # Figure 3 FSM event: a miss is the P-arc out of INVALID.
            self.probe.complete(
                "cache.transition", self._track, start,
                self.mbus.sim.now - start,
                stimulus="Pifetch.miss" if ifetch else "Pdread.miss",
                before=LineState.INVALID.name,
                after=line.state.name,
                address=self.geometry.line_address(ref.address))
        return value

    def cpu_write(self, ref: MemRef, value: int):
        """Generator: service a CPU write."""
        if ref.kind is not AccessKind.DATA_WRITE:
            raise SimulationError(f"cpu_write given non-write ref {ref}")
        line, index, tag, offset = self.lookup(ref.address)
        probe = self.probe
        if line.state is not LineState.INVALID and line.tag == tag:
            self._c_dwrite_hit.add()
            if not probe.active:
                yield from self.protocol.write_hit(self, line, index, offset,
                                                   value)
                return
            before = line.state
            start = self.mbus.sim.now
            yield from self.protocol.write_hit(self, line, index, offset,
                                               value)
            # Self-loops with no bus work (e.g. DIRTY write-back hits)
            # are the common case and carry no FSM information.
            if line.state is not before or self.mbus.sim.now != start:
                probe.complete(
                    "cache.transition", self._track, start,
                    self.mbus.sim.now - start, stimulus="Pwrite.hit",
                    before=before.name, after=line.state.name,
                    address=self.geometry.line_address(ref.address))
        else:
            self._c_dwrite_miss.add()
            start = self.mbus.sim.now
            yield from self.protocol.write_miss(
                self, line, index, tag, offset, value, ref.partial)
            if probe.active:
                probe.complete(
                    "cache.transition", self._track, start,
                    self.mbus.sim.now - start,
                    stimulus="Pwrite.miss", before=LineState.INVALID.name,
                    after=line.state.name,
                    address=self.geometry.line_address(ref.address))

    # -- DMA port (the I/O processor's cache only, in practice) -------------

    def dma_read(self, word_address: int):
        """Generator: DMA read through this cache; misses do not allocate.

        DMA and the attached CPU share this cache, and a bus operation
        the DMA queued does NOT snoop its own cache (it is the
        initiator) — so a line the CPU filled or dirtied *while the DMA
        transaction waited for the bus* must be re-checked after the
        grant: at that serialisation point the cache's own copy is the
        freshest value.
        """
        line, _, tag, offset = self.lookup(word_address)
        if line.valid and line.tag == tag:
            self.stats.incr("dma.read_hit")
            return line.data[offset]
        self.stats.incr("dma.read_miss")
        line_addr = self.geometry.line_address(word_address)
        txn = yield from self.bus_op(BusOp.MREAD, line_addr)
        fresher = self.peek(word_address)
        if fresher is not None:
            return fresher
        data = self._txn_line_data(txn)
        return data[offset]

    def dma_write(self, word_address: int, value: int):
        """Generator: DMA write through this cache; misses do not allocate.

        The payload is built at the bus-grant instant (see
        :meth:`dma_read` for why): if the CPU filled the line while the
        write was queued, the write is merged into that copy — the own-
        cache equivalent of the snoop update the initiator exclusion
        skips — and driven to the bus from it.  The resident copy ends
        clean (memory is updated by the same transaction).
        """
        line_addr = self.geometry.line_address(word_address)
        _, _, _, offset = self.lookup(word_address)
        was_hit = self.present(word_address)
        self.stats.incr("dma.write_hit" if was_hit else "dma.write_miss")

        base: Optional[Tuple[int, ...]] = None
        if self.geometry.words_per_line > 1 and not was_hit:
            # Read-modify-write without allocation for multi-word lines.
            txn = yield from self.bus_op(BusOp.MREAD, line_addr)
            base = self._txn_line_data(txn)

        def payload():
            resident, _, tag_now, offset_now = self.lookup(word_address)
            if resident.valid and resident.tag == tag_now:
                resident.data[offset_now] = value
                return resident.snapshot()
            if self.geometry.words_per_line == 1:
                return (value,)
            merged = list(base if base is not None
                          else (0,) * self.geometry.words_per_line)
            merged[offset] = value
            return tuple(merged)

        txn = yield from self.bus_op(BusOp.MWRITE, line_addr, data=payload)
        # If the line is (still, or newly) resident, it now matches
        # memory exactly: mark it clean, letting the protocol choose
        # the state (not every vocabulary has a shared-clean state).
        resident, _, tag_now, _ = self.lookup(word_address)
        if resident.valid and resident.tag == tag_now:
            resident.state = self.protocol.resident_after_dma_write(
                txn.shared_response)

    # -- bus helpers ---------------------------------------------------------

    def bus_op(self, op: BusOp, line_address: int,
               data: Optional[Tuple[int, ...]] = None,
               is_victim: bool = False, update_memory: bool = True):
        """Generator: run one bus transaction as this cache."""
        txn = yield from self.mbus.transaction(
            self.priority, op, line_address, self.snooper_id,
            data=data, is_victim=is_victim, update_memory=update_memory)
        return txn

    def _txn_line_data(self, txn) -> Tuple[int, ...]:
        if txn.data is None:
            raise SimulationError("read transaction returned no data")
        if isinstance(txn.data, tuple):
            return txn.data
        return (txn.data,)

    # -- snoop port ------------------------------------------------------------

    def snoop(self, op: BusOp, line_address: int, data) -> SnoopResult:
        """Bus-side tag probe: delegate the transition to the protocol.

        Every probe occupies this cache's tag store for one cycle
        (semantically cycle 2 of the transaction), which is what delays
        concurrent CPU accesses — the paper's SP term.
        """
        self.tag_busy_until = self._sim.now + 2
        self._c_snoop_probes.add()
        if self.on_snooped_write is not None and (
                op.carries_write_data or op.invalidates):
            self.on_snooped_write(line_address)
        line_number = line_address >> self._wpl_shift
        line = self.lines[line_number & self._idx_mask]
        if (line.state is LineState.INVALID
                or line.tag != line_number >> self._tag_shift):
            # The overwhelmingly common outcome on a busy bus: the probe
            # misses this cache's tags.  A shared immutable result
            # avoids one allocation per (transaction x snooper).
            return _SNOOP_MISS
        self._c_snoop_hits.add()
        if not self.probe.active:
            return self.protocol.snoop(self, line, line_address, op, data)
        before = line.state
        result = self.protocol.snoop(self, line, line_address, op, data)
        after = (line.state
                 if line.state is not LineState.INVALID
                 and line.tag == line_number >> self._tag_shift
                 else LineState.INVALID)
        self.probe.instant(
            "cache.transition", self._track, stimulus=f"M{op.value}",
            before=before.name, after=after.name, address=line_address,
            shared=result.shared)
        return result

    def tag_contention_stall(self, now: int) -> bool:
        """Whether a CPU access at ``now`` collides with a snoop probe."""
        return now < self.tag_busy_until

    # -- maintenance --------------------------------------------------------------

    def flush_for_tests(self) -> None:
        """Invalidate every line without bus traffic (tests only)."""
        for line in self.lines:
            line.invalidate()

    def flush_lines(self):
        """Generator: write back every dirty line, then invalidate all.

        This is the graceful-offlining sweep a failing CPU board runs
        before detaching from the bus: dirty lines go to memory as
        victim writes (snooped by the survivors like any other
        write-back), clean lines are simply dropped.  Returns the
        number of write-backs performed.
        """
        written = 0
        for index, line in enumerate(self.lines):
            if not line.valid:
                continue
            if line.state.is_dirty:
                address = self.geometry.rebuild_address(index, line.tag)
                # Snapshot at the grant instant: a snooped update that
                # lands while this write-back waits for the bus must be
                # included, exactly as in dma_write.
                yield from self.bus_op(BusOp.MWRITE, address,
                                       data=line.snapshot, is_victim=True)
                written += 1
            line.invalidate()
        self.stats.incr("flush.writebacks", written)
        return written

    def valid_lines(self):
        """Yield (index, line) for every valid line (checker use)."""
        for index, line in enumerate(self.lines):
            if line.valid:
                yield index, line

    def dirty_fraction(self) -> float:
        """Fraction of valid lines whose state requires write-back (D)."""
        valid = dirty = 0
        for _, line in self.valid_lines():
            valid += 1
            if line.state.is_dirty:
                dirty += 1
        return dirty / valid if valid else 0.0

    def occupancy(self) -> float:
        """Fraction of lines that are valid."""
        return sum(1 for _ in self.valid_lines()) / self.geometry.lines

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SnoopyCache id={self.snooper_id} "
                f"{self.geometry.size_bytes // 1024}KB "
                f"protocol={self.protocol.name}>")
