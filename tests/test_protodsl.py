"""The protocol DSL: guard checker rules, mutations, and the compiler.

The mutation tests are the headline: each one corrupts a known-good
definition in a specific way (drop a guard, overlap two guards, orphan
a state, lie about a fact) and asserts the guard checker names the
**exact (state, stimulus) cell** of the defect — not merely "something
is wrong".
"""

import dataclasses

import pytest

from repro.cache.line import LineState
from repro.cache.protocols import (
    PROTOCOL_DEFINITIONS,
    ProtocolDefinitionError,
    protocol_by_name,
)
from repro.cache.protocols.dsl import DSLProtocol
from repro.cache.protocols.firefly import FIREFLY
from repro.cache.protocols.mesi import MESI
from repro.common.errors import ConfigurationError
from repro.common.types import BusOp
from repro.protodsl import (
    GUARD_ALWAYS,
    AcquireThenWrite,
    SilentWrite,
    SnoopRule,
    Stay,
    WriteHitRule,
    WriteMissRule,
    WriteThrough,
    check_guards,
)

V = LineState.VALID
D = LineState.DIRTY
S = LineState.SHARED
SD = LineState.SHARED_DIRTY


def findings_of(defn):
    return [(f.rule, f.state, f.stimulus) for f in check_guards(defn)]


class TestCleanDefinitions:
    @pytest.mark.parametrize("name", sorted(PROTOCOL_DEFINITIONS))
    def test_every_registered_definition_is_clean(self, name):
        assert check_guards(PROTOCOL_DEFINITIONS[name]) == []

    def test_registry_covers_nine_protocols(self):
        assert len(PROTOCOL_DEFINITIONS) == 9
        assert {"moesi", "bedrock"} <= set(PROTOCOL_DEFINITIONS)


class TestMutationDropGuard:
    """Deleting a rule must name the exact uncovered cell (V200)."""

    def test_dropped_write_hit_rule(self):
        mutant = dataclasses.replace(
            FIREFLY,
            write_hit=tuple(rule for rule in FIREFLY.write_hit
                            if S not in rule.states))
        findings = findings_of(mutant)
        assert ("V200", "S", "P-write hit") in findings
        assert ("V200", "SD", "P-write hit") in findings
        # The surviving {V, D} rule's cells stay clean.
        assert ("V200", "V", "P-write hit") not in findings

    def test_dropped_snoop_rule(self):
        mutant = dataclasses.replace(
            FIREFLY,
            snoop=tuple(rule for rule in FIREFLY.snoop
                        if not (rule.op is BusOp.MREAD
                                and rule.states == frozenset({D}))))
        findings = findings_of(mutant)
        assert ("V200", "D", "M-read") in findings
        assert all(state == "D" for rule, state, stim in findings
                   if rule == "V200")

    def test_dropped_write_miss_guard(self):
        mutant = dataclasses.replace(
            FIREFLY,
            write_miss=tuple(
                rule for rule in FIREFLY.write_miss
                if rule.guard == "aligned-longword"))
        findings = check_guards(mutant)
        cells = [(f.rule, f.state, f.stimulus) for f in findings]
        assert ("V200", "I", "P-write miss") in cells
        # The counterexample names the guard-variable assignment.
        assert any("aligned_longword=False" in f.message for f in findings)


class TestMutationOverlapGuards:
    """Two rules covering one cell must be flagged there (V201)."""

    def test_overlapping_write_hit_rules(self):
        extra = WriteHitRule(frozenset({V}), SilentWrite(next_state=D))
        mutant = dataclasses.replace(FIREFLY,
                                     write_hit=FIREFLY.write_hit + (extra,))
        findings = findings_of(mutant)
        assert ("V201", "V", "P-write hit") in findings
        assert ("V201", "D", "P-write hit") not in findings

    def test_overlapping_snoop_rules(self):
        extra = SnoopRule(BusOp.MREAD, frozenset({V}), Stay())
        mutant = dataclasses.replace(FIREFLY, snoop=FIREFLY.snoop + (extra,))
        findings = findings_of(mutant)
        assert ("V201", "V", "M-read") in findings

    def test_overlapping_write_miss_guards(self):
        extra = WriteMissRule(GUARD_ALWAYS,
                              FIREFLY.write_miss[0].action)
        mutant = dataclasses.replace(FIREFLY,
                                     write_miss=FIREFLY.write_miss + (extra,))
        findings = check_guards(mutant)
        assert any(f.rule == "V201" and f.stimulus == "P-write miss"
                   and "aligned_longword=True" in f.message
                   for f in findings)


class TestMutationOrphanState:
    """A declared state no rule can reach is dead vocabulary (V202)."""

    def test_orphaned_state(self):
        # Declare SHARED_DIRTY in MESI's vocabulary and give it rules,
        # but let nothing transition *into* it.
        mutant = dataclasses.replace(
            MESI,
            states=MESI.states + (SD,),
            write_hit=MESI.write_hit + (
                WriteHitRule(frozenset({SD}), SilentWrite()),),
            snoop=tuple(
                dataclasses.replace(rule, states=rule.states | {SD})
                for rule in MESI.snoop),
        )
        findings = findings_of(mutant)
        assert ("V202", "SD", None) in findings
        # Every *other* finding (if any) also points at the orphan; the
        # original states stay clean.
        assert all(state == "SD" for _, state, _ in findings)


class TestMutationFactDrift:
    """Declared facts that contradict the rules are V203 cells."""

    def test_undeclared_silent_state(self):
        mutant = dataclasses.replace(
            FIREFLY, silent_write_states=frozenset({V}))
        findings = findings_of(mutant)
        # DIRTY hits are silent by rule but missing from the fact.
        assert ("V203", "D", "P-write hit") in findings

    def test_silent_fact_on_a_bus_writing_state(self):
        mutant = dataclasses.replace(
            FIREFLY, silent_write_states=frozenset({V, D, S}))
        findings = check_guards(mutant)
        assert any(f.rule == "V203" and f.state == "S"
                   and "WriteThrough" in f.message for f in findings)

    def test_silent_result_disagreement(self):
        mutant = dataclasses.replace(FIREFLY, silent_write_result=V)
        findings = check_guards(mutant)
        assert any(f.rule == "V203" and f.state == "V"
                   and "fast path would diverge" in f.message
                   for f in findings)

    def test_dma_leak_bug_class(self):
        # A silent-writable dma_shared_state reintroduces the PR-2 DMA
        # leak: sharers survive the DMA write, then a local write skips
        # the bus.
        mutant = dataclasses.replace(FIREFLY, dma_shared_state=D)
        findings = check_guards(mutant)
        dma = [f for f in findings
               if f.rule == "V203" and f.stimulus == "DMA-write"]
        assert any(f.state == "D" and "DMA-leak" in f.message for f in dma)


class TestMutationVocabulary:
    def test_undeclared_state_reference(self):
        extra = SnoopRule(BusOp.MREAD_EX, frozenset({SD}), Stay())
        mutant = dataclasses.replace(MESI, snoop=MESI.snoop + (extra,))
        findings = findings_of(mutant)
        assert ("V204", "SD", "M-read-ex") in findings

    def test_declaring_invalid_is_rejected(self):
        mutant = dataclasses.replace(MESI,
                                     states=MESI.states + (LineState.INVALID,))
        findings = findings_of(mutant)
        assert ("V204", "I", None) in findings


class TestFindingFormat:
    def test_str_names_protocol_cell_and_rule(self):
        mutant = dataclasses.replace(
            FIREFLY,
            write_hit=tuple(rule for rule in FIREFLY.write_hit
                            if S not in rule.states))
        finding = check_guards(mutant)[0]
        text = str(finding)
        assert text.startswith("firefly (state S, P-write hit): V200")

    def test_findings_are_sorted_and_stable(self):
        mutant = dataclasses.replace(FIREFLY, write_hit=(), snoop=())
        first = check_guards(mutant)
        second = check_guards(mutant)
        assert first == second
        keys = [f.sort_key() for f in first]
        assert keys == sorted(keys)


class TestCompiler:
    """__init_subclass__ refuses defective definitions outright."""

    def test_defective_definition_fails_class_creation(self):
        mutant = dataclasses.replace(
            FIREFLY, name="firefly-broken",
            write_hit=FIREFLY.write_hit[:1])
        with pytest.raises(ProtocolDefinitionError) as excinfo:
            class Broken(DSLProtocol):
                definition = mutant
        assert excinfo.value.findings
        assert "P-write hit" in str(excinfo.value)

    def test_error_is_a_configuration_error(self):
        assert issubclass(ProtocolDefinitionError, ConfigurationError)

    def test_compiled_class_carries_generated_facts(self):
        protocol = protocol_by_name("firefly")
        facts = protocol.facts
        assert facts.silent_write_states == frozenset({V, D})
        assert facts.silent_write_result is D
        assert protocol.silent_write_states == facts.silent_write_states
        assert protocol.resident_after_dma_write(True) is S
        assert protocol.resident_after_dma_write(False) is V


class TestMetricPins:
    """The DSL rewrite must not drift a single counter (spot check;
    the full pins live in test_fastpath.py and test_fsm.py)."""

    def test_write_through_counters_survive(self):
        from tests.conftest import make_rig
        rig = make_rig("firefly")
        rig.read(0, 40)
        rig.read(1, 40)       # now shared
        rig.write(0, 40, 9)   # shared hit -> write-through
        stats = rig.caches[0].stats
        assert stats["write_throughs"].total == 1
