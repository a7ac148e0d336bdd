"""The static protocol verifier: model checker + structural checks.

The positive half is the PR's acceptance gate — every shipped protocol
explores its full 3-cache reachable space with zero violations.  The
negative half injects deliberately broken protocol subclasses through
the checker's ``protocol=`` hook and demands that each class of defect
is caught: an invariant violation with a minimal counterexample trace,
hidden mutable state, an unreachable state, and a dead-end state.
"""

import pytest

from repro.bus.mbus import SnoopResult
from repro.cache.line import LineState
from repro.cache.protocols import available_protocols
from repro.cache.protocols.firefly import FireflyProtocol
from repro.cache.protocols.write_once import WriteOnceProtocol
from repro.cache.protocols.write_through import WriteThroughInvalidateProtocol
from repro.common.errors import ConfigurationError
from repro.common.types import BusOp
from repro.verify import (
    ModelChecker,
    check_structure,
    verify_protocol,
)
from repro.verify.model import format_state

ALL = sorted(available_protocols())


class TestShippedProtocolsVerify:
    """Acceptance: all seven protocols are statically clean."""

    @pytest.mark.parametrize("protocol", ALL)
    def test_three_cache_space_has_no_violations(self, protocol):
        report = verify_protocol(protocol, caches=3)
        assert report.ok, report.render()
        assert report.states_explored > 1
        assert report.transitions_taken >= 6 * report.states_explored - 6
        assert report.render().startswith(f"[OK] {protocol}:")

    @pytest.mark.parametrize("protocol", ALL)
    def test_dma_stimuli_stay_clean(self, protocol):
        report = verify_protocol(protocol, caches=2, include_dma=True)
        assert report.ok, report.render()

    def test_reachable_set_is_exposed_for_cross_validation(self):
        checker = ModelChecker("firefly", caches=2)
        report = checker.explore()
        assert report.ok
        assert len(checker.reachable) == report.states_explored
        initial = ((("I", None), ("I", None)), 0)
        assert initial in checker.reachable

    def test_rejects_degenerate_configurations(self):
        with pytest.raises(ConfigurationError):
            ModelChecker("no-such-protocol")
        with pytest.raises(ConfigurationError):
            ModelChecker("firefly", caches=1)
        with pytest.raises(ConfigurationError):
            ModelChecker("firefly", caches=3).explore(max_states=3)


class _LeakyFirefly(FireflyProtocol):
    """Mutated transition table: a read miss ignores MShared.

    The filled line claims exclusivity (VALID, a silent-write state)
    even when another cache answered the read — the classic bug the
    Firefly's MShared wire exists to prevent.  The next local write
    would skip the bus and leave the other holder stale.
    """

    def read_miss(self, cache, line, index, tag, offset):
        data = yield from self.fill_from_read(
            cache, line, index, tag,
            shared_state=LineState.VALID,       # the mutation
            exclusive_state=LineState.VALID)
        return data[offset]


class TestCounterexampleGeneration:
    """Acceptance: a mutated table demonstrably yields a counterexample."""

    def test_mutated_firefly_produces_counterexample(self):
        report = verify_protocol("firefly", caches=3,
                                 protocol=_LeakyFirefly())
        assert not report.ok
        assert report.counterexample is not None
        violation = report.counterexample.violation
        assert violation.invariant == "I4"
        assert "silent-write" in violation.detail

    def test_counterexample_trace_is_minimal(self):
        # Two reads of the same word from different caches suffice: the
        # second fills VALID next to the first holder.  BFS guarantees
        # no shorter trace exists, and depth 1 (a single stimulus from
        # all-invalid) cannot create two holders.
        report = verify_protocol("firefly", caches=3,
                                 protocol=_LeakyFirefly())
        trace = report.counterexample.trace
        assert len(trace) == 2
        kinds = [stimulus[0] for stimulus, _ in trace]
        assert all(kind in ("P-read", "P-write") for kind in kinds)
        caches_touched = {stimulus[1] for stimulus, _ in trace}
        assert len(caches_touched) == 2, "one cache alone cannot race"

    def test_counterexample_renders_replayable_steps(self):
        report = verify_protocol("firefly", caches=3,
                                 protocol=_LeakyFirefly())
        text = report.counterexample.render()
        assert "counterexample for protocol 'firefly'" in text
        assert "1." in text and "2." in text
        assert "violated: " in text
        assert "[FAIL] firefly" in report.render()

    def test_structural_shadow_also_fires(self):
        # The same mutation is visible in the transition table itself:
        # INVALID --P-read (peer holds)--> VALID is a silent capture.
        findings = check_structure("firefly", protocol=_LeakyFirefly())
        assert any(f.check == "silent-capture" for f in findings)


class _DmaLeakWriteOnce(WriteOnceProtocol):
    """A shared DMA write leaves the I/O cache in SHARED — a state
    outside write-once's vocabulary, so the next snooped MRead finds no
    rule and the handler raises instead of answering."""

    def resident_after_dma_write(self, shared_response):
        if shared_response:
            return LineState.SHARED
        return super().resident_after_dma_write(shared_response)


class TestRaisingStimulus:
    """A stimulus that raises is a counterexample, not a crash."""

    def test_raise_is_reported_with_its_minimal_trace(self):
        report = verify_protocol("write-once", caches=3,
                                 protocol=_DmaLeakWriteOnce(),
                                 include_dma=True)
        assert not report.ok
        counterexample = report.counterexample
        assert counterexample.violation.invariant == "completion"
        assert "snooped foreign bus op" in counterexample.violation.detail
        *path, (raised, final) = counterexample.trace
        assert final is None and raised[0] == "P-read"
        assert path[-1][0] == ("DMA-write", 0)
        assert "S:v" in format_state(path[-1][1])
        text = report.render()
        assert f"{len(path) + 1}. P-read @cache{raised[1]}  ->  raised" \
            in text

    def test_mutant_is_clean_without_dma(self):
        report = verify_protocol("write-once", caches=3,
                                 protocol=_DmaLeakWriteOnce())
        assert report.ok, report.render()


class _StatefulFirefly(FireflyProtocol):
    """Hidden mutable state: behaviour changes after the first miss."""

    def __init__(self):
        self._misses = 0

    def read_miss(self, cache, line, index, tag, offset):
        self._misses += 1
        if self._misses > 1:
            data = yield from self.fill_from_read(
                cache, line, index, tag,
                shared_state=LineState.SHARED,
                exclusive_state=LineState.SHARED)
            return data[offset]
        return (yield from super().read_miss(cache, line, index, tag,
                                             offset))


class _NoSharedDirtyFirefly(FireflyProtocol):
    """A dirty snooper never admits sharing: SHARED_DIRTY is dead code."""

    def snoop(self, cache, line, line_address, op, data):
        if op is BusOp.MREAD and line.state is LineState.DIRTY:
            return SnoopResult(shared=True, data=line.snapshot())
        return super().snoop(cache, line, line_address, op, data)


class _StickyWriteThrough(WriteThroughInvalidateProtocol):
    """Snooped writes update instead of invalidating: VALID is a trap."""

    def snoop(self, cache, line, line_address, op, data):
        if op is BusOp.MWRITE:
            line.data[:] = data
            return SnoopResult(shared=True)
        return super().snoop(cache, line, line_address, op, data)


class TestStructuralChecks:
    @pytest.mark.parametrize("protocol", ALL)
    def test_shipped_tables_are_structurally_sound(self, protocol):
        assert check_structure(protocol) == []

    def test_hidden_state_caught_as_nondeterminism(self):
        findings = check_structure("firefly", protocol=_StatefulFirefly())
        assert any(f.check == "determinism" for f in findings), findings

    def test_unreachable_state_caught(self):
        findings = check_structure("firefly",
                                   protocol=_NoSharedDirtyFirefly())
        reach = [f for f in findings if f.check == "reachability"]
        assert reach and "SD" in reach[0].detail

    def test_dead_end_state_caught(self):
        findings = check_structure("write-through",
                                   protocol=_StickyWriteThrough())
        dead = [f for f in findings if f.check == "dead-end"]
        assert dead and "V" in dead[0].detail

    def test_findings_render_with_check_and_protocol(self):
        findings = check_structure("write-through",
                                   protocol=_StickyWriteThrough())
        assert str(findings[0]).startswith("[")
        assert "write-through" in str(findings[0])


class TestStateFormatting:
    def test_format_state(self):
        state = ((("D", 1), ("I", None), ("S", 0)), 0)
        assert format_state(state) == "caches[D:v1, I, S:v0] mem=v0"
