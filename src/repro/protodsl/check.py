"""The guard checker: static proofs over a protocol definition.

Runs before any simulation — ``DSLProtocol.__init_subclass__`` (the
compiler driver, :mod:`repro.protodsl.runtime`) refuses to build a
runtime class from a definition with findings, and ``firefly-sim
verify`` reports them per protocol.
Because every guard ranges over a small finite space (the declared
state vocabulary, the four bus ops, one boolean of access shape), each
property is proved by exhaustive enumeration, and every finding names
the **minimal counterexample assignment** — the exact (state,
stimulus) cell, plus the guard-variable values where relevant — in
the style of the V1xx lint findings.

Rules
-----
``V200 exhaustiveness``
    Every (state, stimulus) cell the protocol can encounter is covered
    by some rule: each declared state has a write-hit rule, both
    access shapes have a write-miss rule, and every state has a snoop
    rule for every bus op the protocol can observe (the ops its own
    actions emit, plus MRead/MWrite which DMA and victim write-backs
    put on the bus regardless).
``V201 determinism``
    No cell is covered by two rules (overlapping guards make the
    dispatch order-dependent — the one thing a declarative table must
    never be).
``V202 reachability``
    Every declared state is reachable from INVALID along the rules'
    own edges (fills, successor states, snoop effects, DMA results).
    An unreachable state is dead vocabulary or a missing rule.
``V203 fact-consistency``
    The declared facts match the rules: ``silent_write_states`` is
    exactly the set of states whose write-hit action emits no bus op,
    ``silent_write_result`` reproduces those rules' successor states
    (the fast path applies the fact, not the rule), and the DMA result
    states are declared, clean, and — for the shared case — not
    silent-writable (the PR-2 DMA leak bug class).
``V204 vocabulary``
    Every state a rule mentions is declared (and INVALID is never
    declared); the peer co-state is part of the vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cache.line import LineState
from repro.common.types import BusOp
from repro.protodsl.defs import (
    AcquireThenWrite,
    AsWriteMiss,
    Goto,
    Invalidate,
    ProtocolDef,
    ReadForOwnership,
    ReadThenWrite,
    SilentWrite,
    Stay,
    TakeData,
    WriteAllocate,
    WriteHitRule,
    WriteMissRule,
    WriteNoAllocate,
    WriteThrough,
    WRITE_MISS_GUARDS,
    guard_matches,
)

#: The stimulus labels findings use; chosen to match the transition
#: tables (P-/M- prefixes) so a finding's cell can be looked up there.
STIMULUS_WRITE_HIT = "P-write hit"
STIMULUS_WRITE_MISS = "P-write miss"
STIMULUS_READ_MISS = "P-read miss"

_SNOOP_STIMULUS = {
    BusOp.MREAD: "M-read",
    BusOp.MWRITE: "M-write",
    BusOp.MREAD_EX: "M-read-ex",
    BusOp.MINVALIDATE: "M-invalidate",
}


@dataclass(frozen=True)
class GuardFinding:
    """One guard-checker hit: which rule, which cell, and why.

    ``state`` / ``stimulus`` name the offending (state, stimulus) cell
    when the finding is cell-shaped (None for whole-table findings
    such as an undeclared-state reference).
    """

    rule: str           # "V200" .. "V204"
    protocol: str
    state: Optional[str]
    stimulus: Optional[str]
    message: str

    def __str__(self) -> str:
        cell = ""
        if self.state is not None or self.stimulus is not None:
            parts = []
            if self.state is not None:
                parts.append(f"state {self.state}")
            if self.stimulus is not None:
                parts.append(self.stimulus)
            cell = f" ({', '.join(parts)})"
        return f"{self.protocol}{cell}: {self.rule} {self.message}"

    def sort_key(self):
        return (self.rule, self.state or "", self.stimulus or "",
                self.message)


def check_guards(defn: ProtocolDef) -> List[GuardFinding]:
    """Run every guard-checker rule; empty list means the definition
    is well-formed.  Findings are sorted (rule, state, stimulus) so
    reports and ``--json`` output are stable."""
    findings: List[GuardFinding] = []
    findings += _check_vocabulary(defn)          # V204 first: the other
    declared = set(defn.states)                  # checks assume a sane
    if LineState.INVALID in declared:            # vocabulary.
        declared.discard(LineState.INVALID)
    findings += _check_write_hit_cover(defn, declared)
    findings += _check_write_miss_cover(defn)
    findings += _check_snoop_cover(defn, declared)
    findings += _check_reachability(defn, declared)
    findings += _check_facts(defn, declared)
    return sorted(findings, key=GuardFinding.sort_key)


# -- V204: vocabulary --------------------------------------------------------

def _referenced_states(defn: ProtocolDef):
    """Yield (state, where) for every state the rule tables mention."""
    yield defn.read_miss.shared_state, STIMULUS_READ_MISS
    yield defn.read_miss.exclusive_state, STIMULUS_READ_MISS
    for rule in defn.write_hit:
        for state in sorted(rule.states, key=lambda s: s.value):
            yield state, STIMULUS_WRITE_HIT
        action = rule.action
        if isinstance(action, SilentWrite) and action.next_state is not None:
            yield action.next_state, STIMULUS_WRITE_HIT
        elif isinstance(action, WriteThrough):
            yield action.shared_state, STIMULUS_WRITE_HIT
            yield action.exclusive_state, STIMULUS_WRITE_HIT
        elif isinstance(action, AcquireThenWrite):
            yield action.next_state, STIMULUS_WRITE_HIT
    for rule in defn.write_miss:
        action = rule.action
        if isinstance(action, ReadForOwnership):
            yield action.fill_state, STIMULUS_WRITE_MISS
        elif isinstance(action, WriteAllocate):
            yield action.shared_state, STIMULUS_WRITE_MISS
            yield action.exclusive_state, STIMULUS_WRITE_MISS
    for rule in defn.snoop:
        stimulus = _SNOOP_STIMULUS.get(rule.op, str(rule.op))
        for state in sorted(rule.states, key=lambda s: s.value):
            yield state, stimulus
        if isinstance(rule.effect, (Goto, TakeData)):
            yield rule.effect.state, stimulus


def _check_vocabulary(defn: ProtocolDef) -> List[GuardFinding]:
    findings = []
    declared = set(defn.states)
    if LineState.INVALID in declared:
        findings.append(GuardFinding(
            "V204", defn.name, LineState.INVALID.value, None,
            "INVALID must not be declared; it is implicit in every "
            "vocabulary"))
    seen = set()
    for state, stimulus in _referenced_states(defn):
        if state is LineState.INVALID or state in declared:
            continue
        if (state, stimulus) in seen:
            continue
        seen.add((state, stimulus))
        findings.append(GuardFinding(
            "V204", defn.name, state.value, stimulus,
            f"rule references undeclared state {state.value}"))
    if defn.peer_costate not in declared:
        findings.append(GuardFinding(
            "V204", defn.name, defn.peer_costate.value, None,
            f"peer co-state {defn.peer_costate.value} is not a "
            f"declared state"))
    return findings


# -- V200/V201: write-hit coverage ------------------------------------------

def _check_write_hit_cover(defn: ProtocolDef,
                           declared) -> List[GuardFinding]:
    findings = []
    for state in sorted(declared, key=lambda s: s.value):
        covering = [rule for rule in defn.write_hit if state in rule.states]
        if not covering:
            findings.append(GuardFinding(
                "V200", defn.name, state.value, STIMULUS_WRITE_HIT,
                f"no guard covers the cell: a write hit in state "
                f"{state.value} has no action"))
        elif len(covering) > 1:
            kinds = ", ".join(type(rule.action).__name__
                              for rule in covering)
            findings.append(GuardFinding(
                "V201", defn.name, state.value, STIMULUS_WRITE_HIT,
                f"{len(covering)} guards overlap on the cell "
                f"({kinds}); dispatch would be order-dependent"))
    return findings


# -- V200/V201: write-miss coverage -----------------------------------------

def _check_write_miss_cover(defn: ProtocolDef) -> List[GuardFinding]:
    findings = []
    for rule in defn.write_miss:
        if rule.guard not in WRITE_MISS_GUARDS:
            findings.append(GuardFinding(
                "V204", defn.name, LineState.INVALID.value,
                STIMULUS_WRITE_MISS,
                f"unknown write-miss guard {rule.guard!r}"))
            return findings
    for aligned in (False, True):
        covering = [rule for rule in defn.write_miss
                    if guard_matches(rule.guard, aligned)]
        assignment = f"aligned_longword={aligned}"
        if not covering:
            findings.append(GuardFinding(
                "V200", defn.name, LineState.INVALID.value,
                STIMULUS_WRITE_MISS,
                f"no guard covers the assignment {assignment}"))
        elif len(covering) > 1:
            kinds = ", ".join(type(rule.action).__name__
                              for rule in covering)
            findings.append(GuardFinding(
                "V201", defn.name, LineState.INVALID.value,
                STIMULUS_WRITE_MISS,
                f"{len(covering)} guards overlap on the assignment "
                f"{assignment} ({kinds})"))
    return findings


# -- V200/V201: snoop coverage ----------------------------------------------

def _check_snoop_cover(defn: ProtocolDef, declared) -> List[GuardFinding]:
    findings = []
    # DMA reads/writes and victim write-backs reach every snooper no
    # matter what the protocol itself emits.
    required = sorted(defn.emitted_bus_ops() | {BusOp.MREAD, BusOp.MWRITE},
                      key=lambda op: op.value)
    for op in required:
        stimulus = _SNOOP_STIMULUS[op]
        for state in sorted(declared, key=lambda s: s.value):
            covering = [rule for rule in defn.snoop
                        if rule.op is op and state in rule.states]
            if not covering:
                findings.append(GuardFinding(
                    "V200", defn.name, state.value, stimulus,
                    f"no snoop guard covers the cell: a resident line "
                    f"in {state.value} would raise on a snooped "
                    f"{op.value}"))
            elif len(covering) > 1:
                findings.append(GuardFinding(
                    "V201", defn.name, state.value, stimulus,
                    f"{len(covering)} snoop guards overlap on the cell"))
    return findings


# -- V202: reachability ------------------------------------------------------

def _successor_states(defn: ProtocolDef, state: LineState):
    """States one rule application can move a line in ``state`` to.

    ``state`` may be INVALID (the miss rules apply); the walk includes
    snoop effects and the DMA result states, since those are real
    stimuli a line can experience.
    """
    successors = set()
    if state is LineState.INVALID:
        successors.add(defn.read_miss.shared_state)
        successors.add(defn.read_miss.exclusive_state)
        for rule in defn.write_miss:
            successors |= _write_miss_targets(defn, rule)
    else:
        rule = defn.write_hit_rule(state)
        if rule is not None:
            successors |= _write_hit_targets(defn, rule, state)
        for snoop_rule in defn.snoop:
            if state not in snoop_rule.states:
                continue
            effect = snoop_rule.effect
            if isinstance(effect, (Goto, TakeData)):
                successors.add(effect.state)
        successors.add(defn.dma_shared_state)
        successors.add(defn.dma_exclusive_state)
    successors.discard(LineState.INVALID)
    return successors


def _write_hit_targets(defn, rule: WriteHitRule, state: LineState):
    action = rule.action
    if isinstance(action, SilentWrite):
        return {action.next_state if action.next_state is not None
                else state}
    if isinstance(action, WriteThrough):
        return {action.shared_state, action.exclusive_state}
    if isinstance(action, AcquireThenWrite):
        return {action.next_state}
    if isinstance(action, AsWriteMiss):
        targets = set()
        for miss_rule in defn.write_miss:
            targets |= _write_miss_targets(defn, miss_rule)
        return targets
    return set()


def _write_miss_targets(defn, rule: WriteMissRule):
    action = rule.action
    if isinstance(action, ReadForOwnership):
        return {action.fill_state}
    if isinstance(action, WriteAllocate):
        return {action.shared_state, action.exclusive_state}
    if isinstance(action, ReadThenWrite):
        targets = set()
        for fill in (defn.read_miss.shared_state,
                     defn.read_miss.exclusive_state):
            hit_rule = defn.write_hit_rule(fill)
            if hit_rule is not None:
                targets |= _write_hit_targets(defn, hit_rule, fill)
        return targets
    return set()  # WriteNoAllocate fills nothing


def _check_reachability(defn: ProtocolDef, declared) -> List[GuardFinding]:
    reached = {LineState.INVALID}
    frontier = [LineState.INVALID]
    while frontier:
        state = frontier.pop()
        for successor in sorted(_successor_states(defn, state),
                                key=lambda s: s.value):
            if successor not in reached:
                reached.add(successor)
                frontier.append(successor)
    findings = []
    for state in sorted(declared, key=lambda s: s.value):
        if state not in reached:
            findings.append(GuardFinding(
                "V202", defn.name, state.value, None,
                f"declared state {state.value} is unreachable from "
                f"INVALID along the rules' own edges (orphan state)"))
    return findings


# -- V203: fact consistency --------------------------------------------------

def _check_facts(defn: ProtocolDef, declared) -> List[GuardFinding]:
    findings = []
    silent_by_rules = set()
    for state in sorted(declared, key=lambda s: s.value):
        rule = defn.write_hit_rule(state)
        if rule is not None and isinstance(rule.action, SilentWrite):
            silent_by_rules.add(state)

    for state in sorted(defn.silent_write_states, key=lambda s: s.value):
        if state not in declared:
            findings.append(GuardFinding(
                "V203", defn.name, state.value, STIMULUS_WRITE_HIT,
                f"declared silent-write state {state.value} is not in "
                f"the state vocabulary"))
        elif state not in silent_by_rules:
            rule = defn.write_hit_rule(state)
            kind = type(rule.action).__name__ if rule else "<uncovered>"
            findings.append(GuardFinding(
                "V203", defn.name, state.value, STIMULUS_WRITE_HIT,
                f"declared silent-write state {state.value} actually "
                f"performs {kind} (a bus operation) on a write hit"))
    for state in sorted(silent_by_rules, key=lambda s: s.value):
        if state not in defn.silent_write_states:
            findings.append(GuardFinding(
                "V203", defn.name, state.value, STIMULUS_WRITE_HIT,
                f"write hits in {state.value} are silent but the state "
                f"is not declared in silent_write_states — the runtime "
                f"checker and fast path would not know"))

    # The fast path applies the single declared result state to every
    # silent hit; each silent rule's successor must agree with it.
    for state in sorted(defn.silent_write_states & silent_by_rules,
                        key=lambda s: s.value):
        rule = defn.write_hit_rule(state)
        actual = (rule.action.next_state
                  if rule.action.next_state is not None else state)
        expected = (defn.silent_write_result
                    if defn.silent_write_result is not None else state)
        if actual is not expected:
            findings.append(GuardFinding(
                "V203", defn.name, state.value, STIMULUS_WRITE_HIT,
                f"silent write in {state.value} ends in {actual.value} "
                f"but the declared silent_write_result fact says "
                f"{expected.value} — the fast path would diverge"))

    if (defn.silent_write_result is not None
            and defn.silent_write_result not in declared):
        findings.append(GuardFinding(
            "V203", defn.name, defn.silent_write_result.value,
            STIMULUS_WRITE_HIT,
            "silent_write_result is not a declared state"))

    for label, state in (("dma_shared_state", defn.dma_shared_state),
                         ("dma_exclusive_state", defn.dma_exclusive_state)):
        if state not in declared:
            findings.append(GuardFinding(
                "V203", defn.name, state.value, "DMA-write",
                f"{label} {state.value} is not a declared state"))
        elif state.is_dirty:
            findings.append(GuardFinding(
                "V203", defn.name, state.value, "DMA-write",
                f"{label} {state.value} is a dirty state, but a DMA "
                f"write leaves the resident copy clean (memory was "
                f"updated by the same transaction)"))
    if defn.dma_shared_state in defn.silent_write_states:
        findings.append(GuardFinding(
            "V203", defn.name, defn.dma_shared_state.value, "DMA-write",
            f"dma_shared_state {defn.dma_shared_state.value} is a "
            f"silent-write state: a DMA write with sharers present "
            f"would let the next local write skip the bus and leave "
            f"the sharers stale (the DMA-leak bug class)"))
    return findings
