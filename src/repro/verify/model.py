"""Exhaustive model checking of the global N-cache state space.

The runtime checker only audits states a particular run happens to
reach; races that simulation never exercises stay unexamined.  This
module closes that gap by *enumerating* the reachable global states of
an N-cache system (default N=3) under every interleaving of processor
stimuli, checking the shared I1–I4 invariants
(:mod:`repro.verify.invariants`) on each one, and reporting a
shortest-possible counterexample stimulus trace on violation.

Abstraction
-----------
Coherence is a per-line property, and between bus transactions the
machine is quiescent, so the global state of one line is fully
described by::

    (per-cache (LineState, value), main-memory value)

Concrete values only matter up to equality, so they are abstracted to
*version numbers*: every processor write mints a fresh version, and
states are canonicalised by renaming versions in first-appearance
order (memory first, then cache 0..N-1).  With N caches at most N+1
distinct versions can be observed at once, so the abstract space is
finite and small — a few hundred states for three caches.

Soundness comes from using the real simulator as the transition
function: each exploration step materialises the abstract state into
one N-cache :class:`~repro.protodsl.oracle.LineRig` (the same rig
:mod:`repro.cache.fsm` measures Figure 3 on), applies one stimulus
through the actual cache/bus/protocol code, and reads the successor
state back.  Nothing about the protocols is re-modelled, so the
checker verifies the *implementation*, not a transcription of it.
A stimulus that raises (a protocol reaching a state its handlers
cannot serve) is reported as a counterexample too.

Breadth-first exploration makes the first trace that reaches a
violating state a minimal one (fewest stimuli).

Stimuli are ``P-read``/``P-write`` per cache, plus optional DMA
read/write through cache 0 (the I/O processor's cache) when
``include_dma=True``.  Conflict evictions are out of scope: the model
tracks one line, which is exactly the granularity at which the
invariants are stated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cache.fsm import PROTOCOL_STATES
from repro.cache.line import LineState
from repro.cache.protocols import protocol_by_name
from repro.common.errors import ConfigurationError, SimulationError
from repro.protodsl.oracle import ADDRESS, GlobalState, LineRig
from repro.verify.invariants import Violation, check_word
from repro.verify.structural import StructuralFinding, check_structure

#: One stimulus: ("P-read" | "P-write" | "DMA-read" | "DMA-write", cache).
Stimulus = Tuple[str, int]


@dataclass(frozen=True)
class Counterexample:
    """A minimal stimulus trace from reset to a violating state.

    ``trace`` lists (stimulus, resulting global state) pairs; applying
    the stimuli in order from the all-invalid reset state reproduces
    the violation in a live rig.  When a stimulus raised, it is the
    last step and its state is None.
    """

    protocol: str
    violation: Violation
    trace: Tuple[Tuple[Stimulus, GlobalState], ...]

    def render(self) -> str:
        lines = [f"counterexample for protocol {self.protocol!r} "
                 f"({len(self.trace)} stimuli):"]
        for step, (stimulus, state) in enumerate(self.trace, start=1):
            kind, cache = stimulus
            lines.append(f"  {step}. {kind} @cache{cache}  ->  "
                         f"{format_state(state)}")
        lines.append(f"  violated: {self.violation}")
        return "\n".join(lines)


@dataclass
class VerificationReport:
    """Everything one protocol's verification run established."""

    protocol: str
    caches: int
    states_explored: int = 0
    transitions_taken: int = 0
    structural_findings: List[StructuralFinding] = field(default_factory=list)
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None and not self.structural_findings

    def render(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        lines = [f"[{verdict}] {self.protocol}: {self.states_explored} "
                 f"reachable global states, {self.transitions_taken} "
                 f"transitions ({self.caches} caches)"]
        for finding in self.structural_findings:
            lines.append(f"  structural: {finding}")
        if self.counterexample is not None:
            lines.append("  " + self.counterexample.render()
                         .replace("\n", "\n  "))
        return "\n".join(lines)


def format_state(state: Optional[GlobalState]) -> str:
    """Compact rendering, e.g. ``caches[D:v1, I, S:v0] mem=v0``
    (``raised`` for a stimulus that left no successor)."""
    if state is None:
        return "raised"
    caches, memory = state
    cells = []
    for value, version in caches:
        cells.append(value if version is None else f"{value}:v{version}")
    return f"caches[{', '.join(cells)}] mem=v{memory}"


class ModelChecker:
    """Breadth-first exploration of one protocol's global state space.

    ``protocol`` may override the instance being driven (protocols are
    stateless singletons, so one instance serves every rig) — the
    mutation tests pass deliberately broken subclasses through this
    hook while keeping the registry untouched.
    """

    def __init__(self, protocol_name: str, caches: int = 3,
                 protocol=None, include_dma: bool = False) -> None:
        if protocol_name not in PROTOCOL_STATES:
            raise ConfigurationError(f"unknown protocol {protocol_name!r}")
        if caches < 2:
            raise ConfigurationError(
                f"model checking needs >= 2 caches, got {caches}")
        self.protocol_name = protocol_name
        self.protocol = (protocol if protocol is not None
                         else protocol_by_name(protocol_name))
        self.caches = caches
        self.include_dma = include_dma

    # -- stimuli ---------------------------------------------------------

    def stimuli(self) -> List[Stimulus]:
        kinds = [("P-read", i) for i in range(self.caches)]
        kinds += [("P-write", i) for i in range(self.caches)]
        if self.include_dma:
            # All DMA flows through the I/O processor's cache (cache 0).
            kinds += [("DMA-read", 0), ("DMA-write", 0)]
        return kinds

    @staticmethod
    def _fresh_version(state: GlobalState) -> int:
        caches, memory = state
        used = {memory} | {v for _, v in caches if v is not None}
        return max(used) + 1

    # -- exploration ------------------------------------------------------

    def explore(self, max_states: int = 100_000) -> VerificationReport:
        """BFS the reachable space; stop at the first violation.

        The structural pass over the measured transition table runs
        first — a non-total or non-deterministic table would make the
        exploration itself untrustworthy.  One rig serves the whole
        exploration, re-materialised for every step.
        """
        report = VerificationReport(self.protocol_name, self.caches)
        self.reachable: frozenset = frozenset()
        report.structural_findings = check_structure(
            self.protocol_name, protocol=self.protocol)

        initial: GlobalState = (
            tuple((LineState.INVALID.value, None)
                  for _ in range(self.caches)), 0)
        parent: Dict[GlobalState, Optional[Tuple[GlobalState, Stimulus]]] = {
            initial: None}
        frontier: List[GlobalState] = [initial]
        stimuli = self.stimuli()
        silent_states = self.protocol.silent_write_states
        rig = LineRig(self.protocol, self.caches)

        while frontier:
            next_frontier: List[GlobalState] = []
            for state in frontier:
                for stimulus in stimuli:
                    kind, cache = stimulus
                    rig.materialise(state)
                    try:
                        rig.apply(kind, cache, self._fresh_version(state))
                    except SimulationError as error:
                        report.states_explored = len(parent)
                        self.reachable = frozenset(parent)
                        report.counterexample = self._trace(
                            parent, state,
                            Violation("completion", ADDRESS,
                                      f"{type(error).__name__}: {error}"),
                            raised=stimulus)
                        return report
                    successor = rig.observe()
                    report.transitions_taken += 1
                    if successor not in parent:
                        parent[successor] = (state, stimulus)
                        violation = self._check(successor, silent_states)
                        if violation is not None:
                            report.states_explored = len(parent)
                            self.reachable = frozenset(parent)
                            report.counterexample = self._trace(
                                parent, successor, violation)
                            return report
                        if len(parent) > max_states:
                            raise ConfigurationError(
                                f"state space exceeded {max_states} states; "
                                f"raise max_states or reduce caches")
                        next_frontier.append(successor)
            frontier = next_frontier
        report.states_explored = len(parent)
        #: The reachable set survives on the checker for cross-
        #: validation against dynamic runs (the fuzz tests assert that
        #: every abstract state a simulation visits was explored here).
        self.reachable = frozenset(parent)
        return report

    def _check(self, state: GlobalState,
               silent_states) -> Optional[Violation]:
        caches, memory_version = state
        copies = [(cid, LineState(value), version)
                  for cid, (value, version) in enumerate(caches)
                  if version is not None]
        return check_word(ADDRESS, copies, memory_version, silent_states)

    def _trace(self, parent, state: GlobalState, violation: Violation,
               raised: Optional[Stimulus] = None) -> Counterexample:
        steps: List[Tuple[Stimulus, Optional[GlobalState]]] = []
        if raised is not None:
            steps.append((raised, None))
        cursor: Optional[GlobalState] = state
        while parent[cursor] is not None:
            predecessor, stimulus = parent[cursor]
            steps.append((stimulus, cursor))
            cursor = predecessor
        steps.reverse()
        return Counterexample(protocol=self.protocol_name,
                              violation=violation, trace=tuple(steps))


def verify_protocol(protocol_name: str, caches: int = 3,
                    protocol=None, include_dma: bool = False,
                    max_states: int = 100_000) -> VerificationReport:
    """Run the full static verification for one protocol.

    >>> verify_protocol("write-through", caches=2).ok
    True
    """
    checker = ModelChecker(protocol_name, caches=caches, protocol=protocol,
                           include_dma=include_dma)
    return checker.explore(max_states=max_states)
