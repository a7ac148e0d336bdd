"""The transition oracle: one line on the live cache/bus stack.

A protocol has exactly one operational semantics — the runtime
handlers :class:`~repro.cache.protocols.dsl.DSLProtocol` compiles from
its definition.  Everything that needs a protocol's transition
function runs those handlers in a :class:`LineRig` rather than
re-interpreting the definition:

- :func:`repro.cache.fsm.full_transition_table` measures Figure 3 on a
  two-cache rig, cell by cell;
- :class:`repro.verify.model.ModelChecker` explores the N-cache global
  state space on an N-cache rig, step by step.

A rig is built once and re-materialised for every step: building its
memory, MBus and caches costs more than the step itself.

States are the model checker's version-abstracted
:data:`GlobalState`: concrete words only matter up to equality, so
each distinct word is a version number, renamed in first-appearance
order (memory first, then cache 0..N-1) by :func:`abstract_state_of`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bus.mbus import MBus
from repro.cache.cache import CacheGeometry, SnoopyCache
from repro.cache.line import LineState
from repro.common.errors import ConfigurationError
from repro.common.events import Simulator
from repro.common.types import AccessKind, BusOp, MemRef
from repro.memory.main_memory import MainMemory, MemoryModule

#: (state value, version) per cache — version None when INVALID — plus
#: the memory version, e.g. ((("D", 1), ("I", None)), 0).
GlobalState = Tuple[Tuple[Tuple[str, Optional[int]], ...], int]

ADDRESS = 0         # the single line a rig tracks
_VALUE_BASE = 1000  # version v is materialised as the word 1000 + v


class LineRig:
    """N snoopy caches on one MBus, tracking the line at :data:`ADDRESS`.

    ``protocol`` is one instance shared by every cache (protocols are
    stateless singletons; the verifier's mutants pass through here).
    """

    def __init__(self, protocol, caches: int) -> None:
        self.sim = Simulator()
        self.memory = MainMemory([MemoryModule(0, 1 << 10, is_master=True)])
        self.mbus = MBus(self.sim, self.memory)
        geometry = CacheGeometry(1, 1)
        self.caches = [SnoopyCache(self.mbus, protocol, i, geometry)
                       for i in range(caches)]
        self._ops_before = self._op_counts()

    def materialise(self, state: GlobalState) -> None:
        """Place the tracked line in every cache, and the memory word.

        Injection (rather than replaying a reachability prefix) is what
        lets the table and the model checker reach every state of the
        domain directly.
        """
        views, memory_version = state
        self.memory.poke(ADDRESS, _VALUE_BASE + memory_version)
        for cache, (value, version) in zip(self.caches, views):
            line, _, tag, _ = cache.lookup(ADDRESS)
            if version is None:
                line.invalidate()
            else:
                line.fill(tag, (_VALUE_BASE + version,), LineState(value))
        self._ops_before = self._op_counts()

    def apply(self, kind: str, cache: int, version: int) -> None:
        """Run one stimulus to completion.

        ``P-read``, ``P-write``, ``DMA-read`` and ``DMA-write`` go
        through cache ``cache``; ``M-read`` and ``M-write`` are raw bus
        operations issued from its port (it does not snoop them).  A
        write stores the word of ``version``.
        """
        word = _VALUE_BASE + version
        port = self.caches[cache]
        if kind == "P-read":
            stimulus = port.cpu_read(MemRef(ADDRESS, AccessKind.DATA_READ))
        elif kind == "P-write":
            stimulus = port.cpu_write(
                MemRef(ADDRESS, AccessKind.DATA_WRITE), word)
        elif kind == "DMA-read":
            stimulus = port.dma_read(ADDRESS)
        elif kind == "DMA-write":
            stimulus = port.dma_write(ADDRESS, word)
        elif kind == "M-read":
            stimulus = self.mbus.transaction(cache, BusOp.MREAD, ADDRESS,
                                             initiator=cache)
        elif kind == "M-write":
            stimulus = self.mbus.transaction(cache, BusOp.MWRITE, ADDRESS,
                                             initiator=cache, data=(word,))
        else:
            raise ConfigurationError(f"unknown stimulus {kind!r}")
        self.sim.process(stimulus, "stimulus")
        self.sim.run()

    def observe(self) -> GlobalState:
        """Every cache's line and the memory word, canonicalised."""
        return abstract_state_of(self.caches, self.memory, ADDRESS)

    def bus_ops(self) -> Tuple[str, ...]:
        """Sorted labels of the bus ops since the last materialise.

        A victim write-back is labelled ``MWrite(victim)``.
        """
        delta = {key: count - self._ops_before[key]
                 for key, count in self._op_counts().items()}
        labels: List[str] = []
        for key, count in delta.items():
            if key != "write.victim":
                labels.extend([key[len("op."):]] * count)
        for _ in range(delta["write.victim"]):
            # One of the MWrites was a victim write; relabel it.
            labels.remove("MWrite")
            labels.append("MWrite(victim)")
        return tuple(sorted(labels))

    def _op_counts(self) -> Dict[str, int]:
        return {key: counter.total for key, counter in self.mbus.stats.items()
                if key.startswith("op.") or key == "write.victim"}


def abstract_state_of(caches, memory, address: int) -> GlobalState:
    """The canonical abstract state of one word in a live machine.

    ``caches`` is any sequence of :class:`~repro.cache.cache.
    SnoopyCache`.  Concrete words are renamed to versions in
    first-appearance order, memory first, so two machines that differ
    only in which words happen to be involved compare equal — and the
    result is comparable against a model checker's ``reachable`` set.
    """
    memory_word = memory.peek(address)
    rename: Dict[int, int] = {memory_word: 0}
    views = []
    for cache in caches:
        state = cache.state_of(address)
        if state is LineState.INVALID:
            views.append((state.value, None))
        else:
            word = cache.peek(address)
            views.append((state.value, rename.setdefault(word, len(rename))))
    return tuple(views), 0
