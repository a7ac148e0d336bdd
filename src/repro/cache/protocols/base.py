"""The coherence-protocol interface.

A protocol answers two kinds of stimulus (Figure 3's P and M arcs):

- **Processor side** — ``read_miss`` / ``write_hit`` / ``write_miss``.
  These are generators so they can perform bus transactions with
  ``yield from cache.bus_op(...)``; a processor access therefore takes
  exactly as long as the bus work the protocol performs.  A read hit
  is silent in every protocol, so the cache serves it without asking
  the protocol.
- **Bus side** — ``snoop``, called synchronously by the MBus for every
  transaction that probes a line this cache holds.  It applies the
  M-arc transition and returns the MShared / data-supply response.

Protocols are stateless; all per-line state lives in
:class:`~repro.cache.line.CacheLine`.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

from repro.bus.mbus import SnoopResult
from repro.cache.line import CacheLine, LineState
from repro.common.types import BusOp


class CoherenceProtocol(abc.ABC):
    """Abstract snoopy coherence protocol."""

    #: Registry name; subclasses override.
    name = "abstract"

    #: States in which a write hit performs NO bus operation.  The
    #: coherence checker uses this: when a word has several holders,
    #: none may be in a silent-write state (a local write would leave
    #: the other copies stale).
    silent_write_states: frozenset = frozenset()

    #: State a silent write hit leaves the line in, or ``None`` to keep
    #: the current state.  The cache's non-generator write-hit fast
    #: path applies ``line.data[offset] = value`` plus this state; it
    #: must match what :meth:`write_hit` does for every state in
    #: :attr:`silent_write_states` (the fast-path equivalence test in
    #: tests/test_fastpath.py checks all registered protocols).
    silent_write_result: Optional[LineState] = LineState.DIRTY

    # -- processor side -------------------------------------------------

    @abc.abstractmethod
    def read_miss(self, cache, line: CacheLine, index: int, tag: int,
                  offset: int):
        """Generator: fill the line and return the requested word."""

    @abc.abstractmethod
    def write_hit(self, cache, line: CacheLine, index: int, offset: int,
                  value: int):
        """Generator: apply a write that hit in the cache."""

    @abc.abstractmethod
    def write_miss(self, cache, line: CacheLine, index: int, tag: int,
                   offset: int, value: int, partial: bool):
        """Generator: apply a write that missed."""

    # -- bus side ----------------------------------------------------------

    @abc.abstractmethod
    def snoop(self, cache, line: CacheLine, line_address: int, op: BusOp,
              data: Optional[Tuple[int, ...]]) -> SnoopResult:
        """Apply the bus-induced transition; return the snoop response.

        Called only when ``line`` is valid and matches ``line_address``
        (the cache filters misses).
        """

    # -- DMA side ---------------------------------------------------------

    def resident_after_dma_write(self, shared_response: bool) -> LineState:
        """State of a clean resident copy after a DMA write through us.

        Main memory was updated by the same transaction, so the copy is
        clean; the default keeps the MShared response in the tag.
        Protocols without a shared-clean state override this — leaking
        ``SHARED`` into a protocol whose write policy does not know the
        state can silently disable its write announcement (the static
        verifier's write-once DMA counterexample).
        """
        return LineState.SHARED if shared_response else LineState.VALID

    # -- shared helpers ---------------------------------------------------------

    def victimize(self, cache, line: CacheLine, index: int):
        """Generator: evict the line currently at ``index``.

        Dirty victims are written back with a victim MWrite; clean
        victims are dropped silently.  Safe to call on invalid lines.
        """
        if line.valid and line.state.is_dirty:
            victim_address = cache.geometry.rebuild_address(index, line.tag)
            cache.stats.incr("victim_writes")
            # Payload evaluated at grant: a write queued ahead of this
            # victim may refresh the line via snooping, and the victim
            # write must not regress memory to the older contents.
            yield from cache.bus_op(BusOp.MWRITE, victim_address,
                                    data=line.snapshot, is_victim=True)
        line.invalidate()

    def fill_from_read(self, cache, line: CacheLine, index: int, tag: int,
                       shared_state: LineState, exclusive_state: LineState):
        """Generator: victimize, MRead the line, fill with the right state.

        Returns the filled line's data tuple.
        """
        yield from self.victimize(cache, line, index)
        line_address = cache.geometry.rebuild_address(index, tag)
        txn = yield from cache.bus_op(BusOp.MREAD, line_address)
        data = _line_data(txn, cache.geometry.words_per_line)
        state = shared_state if txn.shared_response else exclusive_state
        line.fill(tag, data, state)
        return data


def _line_data(txn, words_per_line: int) -> Tuple[int, ...]:
    """Normalise a transaction's returned data to a words tuple."""
    if isinstance(txn.data, tuple):
        return txn.data
    if txn.data is None:
        return (0,) * words_per_line
    return (txn.data,)


def merged_payload(line: CacheLine, offset: int, value: int):
    """A grant-time MWrite payload: this write merged into the line.

    Re-applies ``value`` at ``offset`` when the bus grants, so a write
    that queued behind another write to the same line drives the
    freshest other-words contents (delivered to it by snooping) with
    its own word on top — the byte-enable merge real hardware does.
    """
    def payload():
        line.data[offset] = value
        return line.snapshot()
    return payload
