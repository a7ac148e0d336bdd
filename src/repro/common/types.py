"""Core value types and hardware timing constants.

Address convention
------------------
Addresses throughout the library are **longword indices**: address ``a``
names the 4-byte aligned word at byte address ``4*a``.  The Firefly's
cache line is exactly one longword, so in the default geometry a line
index equals a word address; the generalized geometry (line-size
ablation, A7 in DESIGN.md) groups ``words_per_line`` consecutive words
per line.

Timing constants (from the paper)
---------------------------------
- MBus cycle: 100 ns; every MBus operation takes 4 cycles (400 ns),
  non-pipelined, so peak bandwidth is one longword per 400 ns = 10 MB/s.
- MicroVAX tick: 200 ns (2 MBus cycles); base CPI is 11.9 ticks.
- CVAX cycle: 100 ns (1 MBus cycle); cache hits complete in 200 ns.
"""

from __future__ import annotations

import enum

# --- timing constants -------------------------------------------------

MBUS_CYCLE_NS = 100
"""Duration of one MBus cycle in nanoseconds (the simulator time unit)."""

MBUS_OP_CYCLES = 4
"""MBus cycles per MRead/MWrite operation (Figure 4)."""

MICROVAX_TICK_CYCLES = 2
"""MBus cycles per MicroVAX tick (200 ns ticks)."""

CVAX_CYCLE_CYCLES = 1
"""MBus cycles per CVAX processor cycle (100 ns)."""

SECONDS_PER_CYCLE = MBUS_CYCLE_NS * 1e-9
"""Physical seconds represented by one simulator time unit."""

BYTES_PER_LONGWORD = 4
"""VAX longword size; also the Firefly cache line size."""


class AccessKind(enum.Enum):
    """The three CPU reference categories the paper's mix distinguishes."""

    INSTRUCTION_READ = "ifetch"
    DATA_READ = "dread"
    DATA_WRITE = "dwrite"

    @property
    def is_write(self) -> bool:
        return self is AccessKind.DATA_WRITE

    @property
    def is_instruction(self) -> bool:
        return self is AccessKind.INSTRUCTION_READ


class BusOp(enum.Enum):
    """Bus operation kinds.

    The Firefly MBus has only ``MREAD`` and ``MWRITE``.  The two extra
    kinds exist so the baseline protocols (Berkeley, MESI, write-once)
    can be expressed on the same bus model: ``MREAD_EX`` is a read that
    also claims ownership (invalidating other copies), ``MINVALIDATE``
    is an address-only invalidation.  All four occupy the same 4 bus
    cycles, so protocol comparisons isolate traffic counts rather than
    bus redesigns (see DESIGN.md).
    """

    MREAD = "MRead"
    MWRITE = "MWrite"
    MREAD_EX = "MReadEx"
    MINVALIDATE = "MInvalidate"

    @property
    def carries_write_data(self) -> bool:
        return self is BusOp.MWRITE

    @property
    def returns_data(self) -> bool:
        return self in (BusOp.MREAD, BusOp.MREAD_EX)

    @property
    def invalidates(self) -> bool:
        return self in (BusOp.MREAD_EX, BusOp.MINVALIDATE)


class MemRef:
    """One CPU memory reference presented to a cache.

    ``partial`` marks a sub-longword write (byte or word store), which
    cannot use the Firefly longword write-miss optimisation and must
    take the read-miss-then-write-hit path.  ``prefetch`` marks
    instruction reads issued by the prefetcher ahead of execution.

    Instances are immutable (:meth:`__setattr__` raises).  This is a
    hand-rolled slotted class rather than a frozen dataclass because
    reference sources construct one per memory reference — the single
    hottest allocation in the simulator — and the generated frozen
    ``__init__`` costs more than the rest of construction combined.
    Equality, hashing and repr keep the dataclass semantics.
    """

    __slots__ = ("address", "kind", "partial", "prefetch")

    def __init__(self, address: int, kind: AccessKind,
                 partial: bool = False, prefetch: bool = False,
                 _set=object.__setattr__) -> None:
        if address < 0:
            raise ValueError(f"negative address {address}")
        if partial and kind is not AccessKind.DATA_WRITE:
            raise ValueError("only data writes can be partial")
        _set(self, "address", address)
        _set(self, "kind", kind)
        _set(self, "partial", partial)
        _set(self, "prefetch", prefetch)

    def __setattr__(self, name, value):
        raise AttributeError(f"MemRef is immutable (tried to set {name})")

    def _key(self):
        return (self.address, self.kind, self.partial, self.prefetch)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is MemRef:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"MemRef(address={self.address!r}, kind={self.kind!r}, "
                f"partial={self.partial!r}, prefetch={self.prefetch!r})")


class BusTransaction:
    """What the initiator of a completed MBus transaction reads back.

    ``shared_response`` says whether any snooper asserted ``MShared``
    during cycle 3 (the initiator's protocol sets its Shared tag from
    it), ``supplied_by_cache`` whether a cache rather than memory drove
    the read data, and ``data`` is that data: the word for single-word
    lines, the line tuple otherwise, ``None`` for operations that
    return none.  Everything else about the tenure — operation,
    address, initiator, grant time, wait — is recorded once, in its
    ``bus.op`` telemetry event.

    Treat instances as immutable; slotted plain class for the same
    per-transaction allocation-cost reason as :class:`MemRef`.
    """

    __slots__ = ("shared_response", "supplied_by_cache", "data")

    def __init__(self, shared_response: bool, supplied_by_cache: bool,
                 data=None) -> None:
        self.shared_response = shared_response
        self.supplied_by_cache = supplied_by_cache
        self.data = data

    def __repr__(self) -> str:
        return (f"BusTransaction(shared_response={self.shared_response!r}, "
                f"supplied_by_cache={self.supplied_by_cache!r}, "
                f"data={self.data!r})")


def align_to_line(address: int, words_per_line: int) -> int:
    """First word address of the line containing ``address``."""
    return (address // words_per_line) * words_per_line
