"""The DSL compiler's runtime target: definitions become protocols.

``class FireflyProtocol(DSLProtocol): definition = FIREFLY`` is the
whole of a protocol implementation now.  ``__init_subclass__`` is the
compiler driver: it runs the static guard checker over the definition
(**before any simulation** — an ill-formed definition cannot even be
imported), then wires the generated artefacts onto the class:

- ``name`` / ``silent_write_states`` / ``silent_write_result``, which
  the cache's write fast path reads, and the full
  :class:`~repro.protodsl.defs.ProtocolFacts` table (``facts``) that
  the DMA hook consumes,
- dispatch indexes (state → write-hit action, (bus op, state) → snoop
  rule) the generator handlers below interpret.

The handlers are a protocol's only operational semantics: the Figure 3
table and the model checker run them too, on the live single-line rig
of :mod:`repro.protodsl.oracle`.  They reproduce the legacy
hand-written protocols action for action — same bus operations, same
statistics counters, same grant-time payload merging — which the
table-equivalence, lockstep-fuzz and fastpath tests pin.  Subclasses
*without* their own ``definition`` (the verifier's deliberately-broken
mutants) inherit the parent's compiled tables and may override
individual handlers.

This module lives inside the protocols package (rather than in
:mod:`repro.protodsl`) so the import graph stays acyclic from every
entry point: ``repro.protodsl`` never imports the protocols package,
and the protocol modules import this sibling.  The public name is
re-exported as :mod:`repro.protodsl.runtime`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.bus.mbus import SnoopResult
from repro.cache.line import CacheLine, LineState
from repro.cache.protocols.base import (
    CoherenceProtocol,
    _line_data,
    merged_payload,
)
from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.types import BusOp
from repro.protodsl.check import check_guards
from repro.protodsl.defs import (
    AcquireThenWrite,
    AsWriteMiss,
    Goto,
    Invalidate,
    ProtocolDef,
    ReadForOwnership,
    ReadThenWrite,
    SilentWrite,
    TakeData,
    WriteAllocate,
    WriteThrough,
)


class ProtocolDefinitionError(ConfigurationError):
    """A protocol definition failed the static guard checker.

    Raised at class-creation (import) time, so a broken definition can
    never reach a simulator.  ``findings`` carries the individual
    :class:`~repro.protodsl.check.GuardFinding` counterexamples.
    """

    def __init__(self, name, findings):
        lines = "\n".join(f"  {finding}" for finding in findings)
        super().__init__(
            f"protocol definition {name!r} failed the guard checker "
            f"({len(findings)} finding(s)):\n{lines}")
        self.findings = tuple(findings)


class DSLProtocol(CoherenceProtocol):  # lint: allow(V105)
    """Interprets a :class:`~repro.protodsl.defs.ProtocolDef`."""

    #: Set by subclasses; compiled by ``__init_subclass__``.
    definition: Optional[ProtocolDef] = None
    facts = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        defn = cls.__dict__.get("definition")
        if defn is None:
            # A behavioural subclass (e.g. a verifier mutant): it
            # inherits the parent's compiled tables untouched.
            return
        findings = check_guards(defn)
        if findings:
            raise ProtocolDefinitionError(defn.name, findings)
        cls.name = defn.name
        cls.silent_write_states = frozenset(defn.silent_write_states)
        cls.silent_write_result = defn.silent_write_result
        cls.facts = defn.facts()
        cls._write_hit_index = {
            state: rule.action
            for rule in defn.write_hit
            for state in rule.states
        }
        cls._snoop_index = {
            (rule.op, state): rule
            for rule in defn.snoop
            for state in rule.states
        }

    # -- processor side -------------------------------------------------

    def read_miss(self, cache, line: CacheLine, index: int, tag: int,
                  offset: int):
        rule = self.definition.read_miss
        data = yield from self.fill_from_read(
            cache, line, index, tag,
            shared_state=rule.shared_state,
            exclusive_state=rule.exclusive_state)
        return data[offset]

    def write_hit(self, cache, line: CacheLine, index: int, offset: int,
                  value: int):
        action = self._write_hit_index.get(line.state)
        if action is None:
            raise ProtocolError(
                f"{self.name} write hit in unhandled state "
                f"{line.state.value}")

        if isinstance(action, SilentWrite):
            line.data[offset] = value
            if action.next_state is not None:
                line.state = action.next_state
            return

        if isinstance(action, WriteThrough):
            # The copy updates at grant time (merged_payload): eager
            # update would let this cache answer an intervening bus
            # read with data the other sharers do not yet have.
            cache.stats.incr(action.counter)
            tag = line.tag
            line_address = cache.geometry.rebuild_address(index, tag)
            txn = yield from cache.bus_op(
                BusOp.MWRITE, line_address,
                data=merged_payload(line, offset, value),
                update_memory=action.update_memory)
            if line.valid and line.tag == tag:
                line.state = (action.shared_state if txn.shared_response
                              else action.exclusive_state)
            # else: a concurrent writer serialised first and
            # invalidated us; our write still reached the bus, so the
            # line stays dropped.
            return

        if isinstance(action, AcquireThenWrite):
            cache.stats.incr(action.counter)
            tag = line.tag
            line_address = cache.geometry.rebuild_address(index, tag)
            yield from cache.bus_op(BusOp.MINVALIDATE, line_address)
            if not (line.valid and line.tag == tag):
                # A competing writer's invalidation serialised first;
                # our copy is gone, so this is now a write miss.
                yield from self.write_miss(cache, line, index, tag,
                                           offset, value, partial=False)
                return
            line.data[offset] = value
            line.state = action.next_state
            return

        # AsWriteMiss: the clean hit cannot trust its copy is current
        # once ownership moves — re-fetch exactly as a miss would.
        tag = line.tag
        yield from self.write_miss(cache, line, index, tag, offset, value,
                                   partial=False)

    def write_miss(self, cache, line: CacheLine, index: int, tag: int,
                   offset: int, value: int, partial: bool):
        aligned_longword = (not partial
                            and cache.geometry.words_per_line == 1)
        rule = self.definition.write_miss_rule(aligned_longword)
        if rule is None:
            raise ProtocolError(
                f"{self.name} write miss has no rule for "
                f"aligned_longword={aligned_longword}")
        action = rule.action

        if isinstance(action, ReadThenWrite):
            yield from self.read_miss(cache, line, index, tag, offset)
            yield from self.write_hit(cache, line, index, offset, value)
            return

        if isinstance(action, ReadForOwnership):
            yield from self.victimize(cache, line, index)
            line_address = cache.geometry.rebuild_address(index, tag)
            txn = yield from cache.bus_op(BusOp.MREAD_EX, line_address)
            data = list(_line_data(txn, cache.geometry.words_per_line))
            data[offset] = value
            line.fill(tag, tuple(data), action.fill_state)
            return

        if isinstance(action, WriteAllocate):
            yield from self.victimize(cache, line, index)
            cache.stats.incr(action.counter)
            line_address = cache.geometry.rebuild_address(index, tag)
            txn = yield from cache.bus_op(BusOp.MWRITE, line_address,
                                          data=(value,))
            state = (action.shared_state if txn.shared_response
                     else action.exclusive_state)
            line.fill(tag, (value,), state)
            return

        # WriteNoAllocate: send the write to memory, leave the cache
        # untouched (any resident line at this index belongs to some
        # other address and stays).
        cache.stats.incr(action.counter)
        line_address = cache.geometry.rebuild_address(index, tag)
        if cache.geometry.words_per_line == 1:
            yield from cache.bus_op(BusOp.MWRITE, line_address,
                                    data=(value,))
            return
        # Multi-word lines need the rest of the line's current contents.
        txn = yield from cache.bus_op(BusOp.MREAD, line_address)
        data = list(_line_data(txn, cache.geometry.words_per_line))
        data[offset] = value
        yield from cache.bus_op(BusOp.MWRITE, line_address,
                                data=tuple(data))

    # -- bus side ---------------------------------------------------------

    def snoop(self, cache, line: CacheLine, line_address: int, op: BusOp,
              data: Optional[Tuple[int, ...]]) -> SnoopResult:
        rule = self._snoop_index.get((op, line.state))
        if rule is None:
            raise ProtocolError(
                f"{self.name} cache snooped foreign bus op {op} "
                f"at {line_address:#x}")
        # Snapshot before the effect runs: an invalidating supplier
        # (Synapse's surrender) still drives its pre-drop contents.
        supplied = line.snapshot() if rule.supply else None
        if rule.counter is not None:
            cache.stats.incr(rule.counter)
        effect = rule.effect
        if isinstance(effect, Goto):
            line.state = effect.state
        elif isinstance(effect, TakeData):
            line.data[:] = data
            line.state = effect.state
        elif isinstance(effect, Invalidate):
            line.invalidate()
        return SnoopResult(shared=rule.shared, data=supplied,
                           write_back=rule.write_back)

    # -- DMA side ---------------------------------------------------------

    def resident_after_dma_write(self, shared_response: bool) -> LineState:
        facts = self.facts
        return (facts.dma_shared_state if shared_response
                else facts.dma_exclusive_state)

