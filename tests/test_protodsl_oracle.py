"""The DSL runtime vs the legacy classes vs pinned tables.

The compiled runtime handlers are a protocol's only semantics; three
independent checks hold them in place:

1. **Table equivalence** — for every pre-DSL protocol, the measured
   transition table of the DSL-compiled class equals the measured
   table of the frozen legacy class (:mod:`tests.legacy_protocols`).
2. **Fuzz** — seeded random stimulus walks drive a legacy rig and a
   DSL rig in lockstep; every read value, line state and statistics
   counter must match at every step.
3. **Pins** — every registered protocol's measured table and 3-cache
   reachable set (with DMA) hash to recorded digests; for MOESI and
   BedRock, which have no legacy twin, this is the only cross-check.
"""

import dataclasses
import hashlib

import pytest

from repro.cache.fsm import full_transition_table
from repro.cache.line import LineState
from repro.cache.protocols import PROTOCOL_DEFINITIONS, protocol_by_name
from repro.cache.protocols.dsl import DSLProtocol
from repro.cache.protocols.firefly import FIREFLY
from repro.common.rng import RandomStream
from repro.common.types import BusOp
from repro.protodsl.defs import Goto, Stay
from repro.verify.model import ModelChecker, verify_protocol
from tests.conftest import MiniRig
from tests.legacy_protocols import (
    LegacyBerkeleyProtocol,
    LegacyDragonProtocol,
    LegacyFireflyProtocol,
    LegacyMesiProtocol,
    LegacySynapseProtocol,
    LegacyWriteOnceProtocol,
    LegacyWriteThroughInvalidateProtocol,
)

LEGACY = {
    "firefly": LegacyFireflyProtocol,
    "dragon": LegacyDragonProtocol,
    "mesi": LegacyMesiProtocol,
    "berkeley": LegacyBerkeleyProtocol,
    "synapse": LegacySynapseProtocol,
    "write-once": LegacyWriteOnceProtocol,
    "write-through": LegacyWriteThroughInvalidateProtocol,
}

SEVEN = sorted(LEGACY)
NINE = sorted(PROTOCOL_DEFINITIONS)


class TestTableEquivalence:
    @pytest.mark.parametrize("name", SEVEN)
    def test_dsl_measures_identically_to_legacy(self, name):
        dsl = full_transition_table(name)
        legacy = full_transition_table(name, protocol=LEGACY[name]())
        assert set(dsl) == set(legacy)
        for cell in sorted(dsl, key=str):
            assert dsl[cell] == legacy[cell], f"{name} {cell}"


#: name -> (table cells, table sha256, reachable states, transitions,
#: reachable-set sha256) for every registered protocol: the measured
#: table and the 3-cache exploration with DMA stimuli.  A change to a
#: protocol's behaviour must update its pin deliberately.
PINS = {
    "bedrock": (16, "ded1d6fcb2a5d56ee913d8d3ee5f4d14d2befb8b24a2fd198d2a57f62d1c694e",
                11, 88, "c3df2a00e98c0eeb37072228ff010415a50c0ca4a3cc2375abccbcb025bba30f"),
    "berkeley": (22, "6aa0e76e63a14b8c86cfc99138d56174befb74be3ee257ee8c838129f3142ffb",
                 22, 176, "4fb9dd97fdb8bbf9bb272ddd5cf93af7d91db3a129a9179775a38b9ef02c7d9e"),
    "dragon": (28, "1822a90c416d2819d12133a2dd96f007633f1a0ae660cf89a8b05414edc2e780",
               24, 192, "4ce8492d7d27de57a61f1726bca856690317df9053e037fb024ed35d9db9e876"),
    "firefly": (28, "a8826691d09b24a1c76d75f55703a822e9f75fc1b2e3747b48eab7c63feee1f2",
                24, 192, "4ce8492d7d27de57a61f1726bca856690317df9053e037fb024ed35d9db9e876"),
    "mesi": (22, "1c0060c04e341df06340de0420691ec74be849d771ac8397ce4d187db583e116",
             13, 104, "63967fa22a89a60b1cd3032ff88075655227a4c76908b975b63bccc32f6b1f35"),
    "moesi": (28, "d34e5d6fa1a567b662dffe02a7ee6b6a538030e089d137faccb075ca05e704ea",
              24, 192, "4ce8492d7d27de57a61f1726bca856690317df9053e037fb024ed35d9db9e876"),
    "synapse": (16, "8ffac0360b249debcec6c58811c279178a89dddcf4e1da21a4fdf2ed4b504435",
                11, 88, "d5c190a782c5235be03039bce132559a5ad12195307fab567c16c77055bd6b1a"),
    "write-once": (22, "cb5bf271d303e5ae55b2f1427415dd2f399cd5963624e30847f98cfe021e6ad5",
                   14, 112, "1d9240a567c3b96d1c02f8c9999f8a17e7880e4ab9f23c8dd7a2612922b0d30f"),
    "write-through": (10, "d68f6114aeec7b5bea8314b597796a831e668a03024e1db1ef1fd48d751ec7c1",
                      8, 64, "fde39041a0c9d2a866251158828a25408d38cd472c88386d6058493607f84c58"),
}


def _render_table(table):
    """One sorted line per cell: (start, stimulus, peer_holds, end,
    bus_ops, peer_end)."""
    return "\n".join(sorted(
        repr((t.start.value, t.stimulus, t.peer_holds, t.end.value,
              t.bus_ops, None if t.peer_end is None else t.peer_end.value))
        for t in table.values()))


def _assert_pinned(rendering, digest, what):
    got = hashlib.sha256(rendering.encode()).hexdigest()
    assert got == digest, f"{what} drifted from its pin:\n{rendering}"


def _assert_table_pinned(name, table):
    cells, digest, _, _, _ = PINS[name]
    assert len(table) == cells
    _assert_pinned(_render_table(table), digest, f"{name} transition table")


#: FIREFLY with one snoop arc broken: a VALID holder answering an MRead
#: stays VALID (a silent-write state) instead of dropping to SHARED.
#: The guard checker cannot tell — the rule is still total and
#: disjoint — so only the measured table can.
_STAY_VALID_ON_MREAD = dataclasses.replace(FIREFLY, snoop=tuple(
    dataclasses.replace(rule, effect=Stay())
    if rule.op is BusOp.MREAD and LineState.VALID in rule.states
    and rule.effect == Goto(LineState.SHARED) else rule
    for rule in FIREFLY.snoop))


class _StayValidFirefly(DSLProtocol):
    definition = _STAY_VALID_ON_MREAD


class TestPins:
    """Every protocol's measured table and reachable set, pinned."""

    @pytest.mark.parametrize("name", NINE)
    def test_measured_table_matches_pin(self, name):
        _assert_table_pinned(name, full_transition_table(name))

    @pytest.mark.parametrize("name", NINE)
    def test_reachable_set_matches_pin(self, name):
        _, _, states, transitions, digest = PINS[name]
        checker = ModelChecker(name, caches=3, include_dma=True)
        report = checker.explore()
        assert report.ok, report.render()
        assert (report.states_explored, report.transitions_taken) == \
            (states, transitions)
        _assert_pinned("\n".join(sorted(map(repr, checker.reachable))),
                       digest, f"{name} reachable set")

    def test_table_pin_fires_on_a_mutated_definition(self):
        table = full_transition_table("firefly",
                                      protocol=_StayValidFirefly())
        assert table[(LineState.VALID, "M-read", False)].end \
            is LineState.VALID
        with pytest.raises(AssertionError, match="drifted"):
            _assert_table_pinned("firefly", table)


def _twin_rigs(name):
    dsl = MiniRig(protocol=name, caches=3, lines=4)
    legacy = MiniRig(protocol=name, caches=3, lines=4)
    legacy.protocol = LEGACY[name]()
    for cache in legacy.caches:
        cache.protocol = legacy.protocol
    return dsl, legacy


def _observable(rig, addresses):
    view = []
    for address in addresses:
        for cache in rig.caches:
            view.append((cache.state_of(address), cache.peek(address)))
        view.append(rig.memory.peek(address))
    for cache in rig.caches:
        view.append(sorted((key, counter.total)
                           for key, counter in cache.stats.items()))
    return view


class TestFuzzLegacyVsDsl:
    """Seeded random walks: bit-identical twins at every step.

    DMA stimuli are exercised for every protocol except write-through:
    its legacy class inherited the base-class DMA result state
    (``SHARED``), which is outside its own vocabulary — the DSL
    definition deliberately normalises that to ``VALID`` (documented
    in docs/PROTOCOL_DSL.md); nothing metric-visible changes.
    """

    @pytest.mark.parametrize("name", SEVEN)
    def test_random_walk_is_bit_identical(self, name):
        rng = RandomStream(1987, f"protodsl-fuzz-{name}")
        dsl, legacy = _twin_rigs(name)
        addresses = (0, 8, 64, 72)  # two indexes, two tags each
        with_dma = name != "write-through"
        for step in range(300):
            address = addresses[rng.randint(0, len(addresses) - 1)]
            cache = rng.randint(0, 2)
            kind = rng.randint(0, 7 if with_dma else 5)
            if kind < 3:
                got = dsl.read(cache, address)
                want = legacy.read(cache, address)
                assert got == want, f"{name} step {step} read"
            elif kind < 6:
                value = 10_000 + step
                partial = rng.randint(0, 3) == 0  # exercise both guards
                dsl.write(cache, address, value, partial=partial)
                legacy.write(cache, address, value, partial=partial)
            elif kind == 6:
                def gen(rig):
                    return rig.caches[0].dma_read(address)
                assert dsl.run(gen(dsl)) == legacy.run(gen(legacy))
            else:
                value = 20_000 + step
                dsl.run(dsl.caches[0].dma_write(address, value))
                legacy.run(legacy.caches[0].dma_write(address, value))
            assert _observable(dsl, addresses) == \
                _observable(legacy, addresses), f"{name} step {step}"
            dsl.check_coherence()


class TestModelCheckerOracles:
    @pytest.mark.parametrize("name", ("moesi", "bedrock"))
    def test_new_protocols_verify_clean(self, name):
        report = verify_protocol(name, caches=3, include_dma=True)
        assert report.ok


class TestMoesiBehaviour:
    """Dirty sharing without a memory update (the O state)."""

    def test_owner_supplies_and_memory_stays_stale(self):
        rig = MiniRig(protocol="moesi", caches=2)
        rig.write(0, 40, 7)      # M (silent after RFO)
        assert rig.read(1, 40) == 7
        assert rig.caches[0].state_of(40) is LineState.SHARED_DIRTY
        assert rig.caches[1].state_of(40) is LineState.SHARED
        assert rig.memory.peek(40) != 7  # owner, not memory, holds it
        rig.check_coherence()

    def test_write_to_shared_invalidates_the_owner(self):
        rig = MiniRig(protocol="moesi", caches=2)
        rig.write(0, 40, 7)
        rig.read(1, 40)          # cache0 O, cache1 S
        rig.write(1, 40, 9)      # upgrade invalidates the owner
        assert rig.caches[0].state_of(40) is LineState.INVALID
        assert rig.caches[1].state_of(40) is LineState.DIRTY
        assert rig.read(0, 40) == 9
        rig.check_coherence()


class TestBedrockBehaviour:
    """Directory-style MSI: S-grants and downgrade-with-writeback."""

    def test_read_fill_is_shared_even_without_sharers(self):
        rig = MiniRig(protocol="bedrock", caches=2)
        rig.read(0, 40)
        assert rig.caches[0].state_of(40) is LineState.SHARED

    def test_dirty_reader_downgrade_updates_home_node(self):
        rig = MiniRig(protocol="bedrock", caches=2)
        rig.write(0, 40, 7)      # M after the RFO
        assert rig.caches[0].state_of(40) is LineState.DIRTY
        assert rig.read(1, 40) == 7
        assert rig.caches[0].state_of(40) is LineState.SHARED
        assert rig.memory.peek(40) == 7  # write_back snarfed the data
        rig.check_coherence()

    def test_upgrade_from_shared(self):
        rig = MiniRig(protocol="bedrock", caches=2)
        rig.read(0, 40)
        rig.read(1, 40)
        rig.write(0, 40, 5)
        assert rig.caches[0].stats["invalidations_sent"].total == 1
        assert rig.caches[1].state_of(40) is LineState.INVALID
        assert rig.read(1, 40) == 5
        rig.check_coherence()
