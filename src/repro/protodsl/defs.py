"""The guarded-action protocol description language (the nouns).

A snoopy (or directory-style) coherence protocol is declared as a
:class:`ProtocolDef`: a state vocabulary plus small tables of guarded
rules, one table per stimulus family.  Each rule pairs a *guard* (the
set of line states it covers, plus — for write misses — a predicate
over the access shape) with a single *action* drawn from a closed
vocabulary.  The closed vocabulary is the point: because every action
is a declarative value rather than imperative code, two artefacts
can be generated from one definition —

- the runtime :class:`~repro.cache.protocols.base.CoherenceProtocol`
  subclass ``SnoopyCache`` drives (:mod:`repro.protodsl.runtime`),
  whose handlers are the protocol's only operational semantics, and
- the protocol facts the cache's fast paths and the DMA port gate on
  (:class:`ProtocolFacts`),

and a static **guard checker** (:mod:`repro.protodsl.check`) can prove
exhaustiveness, disjointness, reachability and fact consistency over
the finite guard space before any simulation runs.

The modelling follows the guarded-action style of protocol
specification (see PAPERS.md, "Modeling a Cache Coherence Protocol
with the Guarded Action Language"); the BedRock directory protocol
definition demonstrates that the vocabulary is not snoopy-specific.

Stimulus families and their action vocabularies
-----------------------------------------------
``read_miss`` (exactly one rule)
    :class:`ReadMissRule` — victimize, MRead, fill with the shared or
    exclusive state selected by the MShared response.
``write_hit`` (one rule per covered state set)
    :class:`SilentWrite` — store locally, optionally change state; no
    bus operation (the fast-path case).
    :class:`WriteThrough` — drive an MWrite with the merged line
    (optionally caches-only, Dragon style); successor state selected
    by the MShared response.
    :class:`AcquireThenWrite` — MInvalidate to claim exclusivity, then
    store locally; falls back to the write-miss path if a competing
    writer serialised first.
    :class:`AsWriteMiss` — delegate to the write-miss table (Synapse's
    clean-hit re-fetch).
``write_miss`` (guarded by access shape)
    :class:`ReadForOwnership` — victimize, MReadEx, merge, fill dirty.
    :class:`ReadThenWrite` — read-miss then write-hit composition.
    :class:`WriteAllocate` — aligned-longword write-through allocate
    (the Firefly optimisation).
    :class:`WriteNoAllocate` — write-through without allocation.
``snoop`` (one rule per (bus op, state set))
    :class:`SnoopRule` with an effect of :class:`Stay`, :class:`Goto`,
    :class:`TakeData` or :class:`Invalidate`, plus supply/write-back/
    MShared response flags and an optional statistics counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.cache.line import LineState
from repro.common.types import BusOp

#: Guard predicates over the access shape of a write miss.  The only
#: shape fact the protocols consult is whether the access is an
#: aligned full-longword store on a one-word line (the Firefly's
#: write-allocate shortcut); the guard space is therefore a single
#: boolean, which keeps exhaustiveness/disjointness checking exact.
GUARD_ALWAYS = "always"
GUARD_ALIGNED_LONGWORD = "aligned-longword"
GUARD_NOT_ALIGNED_LONGWORD = "not-aligned-longword"

WRITE_MISS_GUARDS = (GUARD_ALWAYS, GUARD_ALIGNED_LONGWORD,
                     GUARD_NOT_ALIGNED_LONGWORD)


def guard_matches(guard: str, aligned_longword: bool) -> bool:
    """Evaluate a write-miss guard on one assignment of the guard var."""
    if guard == GUARD_ALWAYS:
        return True
    if guard == GUARD_ALIGNED_LONGWORD:
        return aligned_longword
    return not aligned_longword


# -- read miss ---------------------------------------------------------------

@dataclass(frozen=True)
class ReadMissRule:
    """Victimize, MRead, fill; the MShared response picks the state."""

    shared_state: LineState
    exclusive_state: LineState


# -- write-hit actions -------------------------------------------------------

@dataclass(frozen=True)
class SilentWrite:
    """Store locally with no bus operation; ``None`` keeps the state."""

    next_state: Optional[LineState] = None


@dataclass(frozen=True)
class WriteThrough:
    """MWrite the merged line; successor chosen by the MShared response.

    ``update_memory=False`` is the Dragon caches-only update broadcast.
    The store is skipped (line left dropped) if a competing writer's
    invalidation serialised first — the write still reached the bus.
    """

    counter: str
    shared_state: LineState
    exclusive_state: LineState
    update_memory: bool = True


@dataclass(frozen=True)
class AcquireThenWrite:
    """MInvalidate to claim exclusivity, then store locally.

    If the copy was lost while the invalidation waited for the bus (a
    competing writer serialised first), the access is retried through
    the write-miss table.
    """

    next_state: LineState
    counter: str = "invalidations_sent"


@dataclass(frozen=True)
class AsWriteMiss:
    """Delegate the hit to the write-miss table (ownership re-fetch)."""


@dataclass(frozen=True)
class WriteHitRule:
    """One guarded write-hit action covering a set of line states."""

    states: FrozenSet[LineState]
    action: object  # SilentWrite | WriteThrough | AcquireThenWrite | AsWriteMiss


# -- write-miss actions ------------------------------------------------------

@dataclass(frozen=True)
class ReadForOwnership:
    """Victimize, MReadEx (fetch + invalidate all copies), merge, fill."""

    fill_state: LineState


@dataclass(frozen=True)
class ReadThenWrite:
    """A read miss followed immediately by a write hit (the paper's
    rule for the Firefly's partial/multi-word write misses and the
    Dragon's only write-miss path)."""


@dataclass(frozen=True)
class WriteAllocate:
    """Aligned-longword shortcut: victimize, MWrite the word, allocate
    clean with the state the MShared response selects."""

    counter: str
    shared_state: LineState
    exclusive_state: LineState


@dataclass(frozen=True)
class WriteNoAllocate:
    """Write through without allocating (multi-word lines read-merge
    first); the cache contents are untouched."""

    counter: str


@dataclass(frozen=True)
class WriteMissRule:
    """One guarded write-miss action; the guard is over access shape."""

    guard: str  # one of WRITE_MISS_GUARDS
    action: object  # ReadForOwnership | ReadThenWrite | WriteAllocate | WriteNoAllocate


# -- snoop rules -------------------------------------------------------------

@dataclass(frozen=True)
class Stay:
    """Keep the current state."""


@dataclass(frozen=True)
class Goto:
    """Move the line to a fixed state."""

    state: LineState


@dataclass(frozen=True)
class TakeData:
    """Refresh the copy from the bus data, then move to a fixed state."""

    state: LineState


@dataclass(frozen=True)
class Invalidate:
    """Drop the copy."""


@dataclass(frozen=True)
class SnoopRule:
    """The M-arc for one (bus op, state set) cell.

    ``supply`` drives the line's data onto the bus (memory inhibit);
    ``write_back`` additionally asks the bus to snarf the supplied
    data into main memory in the same transaction; ``shared`` asserts
    the MShared wire; ``counter`` increments a cache statistic.
    """

    op: BusOp
    states: FrozenSet[LineState]
    effect: object  # Stay | Goto | TakeData | Invalidate
    supply: bool = False
    write_back: bool = False
    counter: Optional[str] = None
    shared: bool = True


# -- the definition ----------------------------------------------------------

@dataclass(frozen=True)
class ProtocolFacts:
    """The generated facts table — the single source the cache layer,
    the DMA port, the fast paths and the FSM machinery consume.

    Every field is derived from (and proven consistent with, by the
    guard checker) the owning :class:`ProtocolDef`; nothing here is
    hand-maintained per protocol any more.
    """

    name: str
    states: Tuple[LineState, ...]
    peer_costate: LineState
    silent_write_states: FrozenSet[LineState]
    silent_write_result: Optional[LineState]
    dma_shared_state: LineState
    dma_exclusive_state: LineState


@dataclass(frozen=True)
class ProtocolDef:
    """One protocol, fully declared.

    ``states`` excludes INVALID (it is implicit, as in
    ``fsm.PROTOCOL_STATES``).  ``peer_costate`` is the state a peer
    cache naturally holds while sharing the line (the probe rigs and
    the figure both need it).  The ``silent_write_*`` and ``dma_*``
    fields are *declared facts*: the guard checker proves them
    consistent with the rule tables, and the compiler wires them onto
    the generated class — they are never transcribed by hand anywhere
    else.
    """

    name: str
    states: Tuple[LineState, ...]
    peer_costate: LineState
    read_miss: ReadMissRule
    write_hit: Tuple[WriteHitRule, ...]
    write_miss: Tuple[WriteMissRule, ...]
    snoop: Tuple[SnoopRule, ...]
    silent_write_states: FrozenSet[LineState] = field(default=frozenset())
    silent_write_result: Optional[LineState] = LineState.DIRTY
    dma_shared_state: LineState = LineState.SHARED
    dma_exclusive_state: LineState = LineState.VALID

    def facts(self) -> ProtocolFacts:
        """The generated facts table for this definition."""
        return ProtocolFacts(
            name=self.name,
            states=self.states,
            peer_costate=self.peer_costate,
            silent_write_states=self.silent_write_states,
            silent_write_result=self.silent_write_result,
            dma_shared_state=self.dma_shared_state,
            dma_exclusive_state=self.dma_exclusive_state,
        )

    # -- small lookup helpers shared by runtime and checker ------------

    def write_hit_rule(self, state: LineState) -> Optional[WriteHitRule]:
        for rule in self.write_hit:
            if state in rule.states:
                return rule
        return None

    def write_miss_rule(self, aligned_longword: bool
                        ) -> Optional[WriteMissRule]:
        for rule in self.write_miss:
            if guard_matches(rule.guard, aligned_longword):
                return rule
        return None

    def snoop_rule(self, op: BusOp, state: LineState
                   ) -> Optional[SnoopRule]:
        for rule in self.snoop:
            if rule.op is op and state in rule.states:
                return rule
        return None

    def emitted_bus_ops(self) -> FrozenSet[BusOp]:
        """Every bus op this protocol's own actions can initiate.

        Victim write-backs mean every protocol with a dirty state
        emits MWrite; DMA traffic means every protocol must tolerate
        snooped MRead and MWrite regardless — the checker folds that
        in separately.
        """
        ops = {BusOp.MREAD}  # read misses always read
        for rule in self.write_hit:
            action = rule.action
            if isinstance(action, WriteThrough):
                ops.add(BusOp.MWRITE)
            elif isinstance(action, AcquireThenWrite):
                ops.add(BusOp.MINVALIDATE)
        for rule in self.write_miss:
            action = rule.action
            if isinstance(action, ReadForOwnership):
                ops.add(BusOp.MREAD_EX)
            elif isinstance(action, (WriteAllocate, WriteNoAllocate)):
                ops.add(BusOp.MWRITE)
        if any(state.is_dirty for state in self.states):
            ops.add(BusOp.MWRITE)  # victim write-backs
        return frozenset(ops)
