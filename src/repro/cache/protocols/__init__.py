"""Coherence protocols.

:class:`FireflyProtocol` is the paper's contribution.  The baselines
are the protocols the paper's §5.1 discusses as alternatives: simple
write-through with invalidation ("not practical for more than a few
processors"), ownership protocols (Berkeley), the Xerox Dragon ("uses a
similar scheme"), plus Illinois MESI and Goodman write-once from the
Archibald & Baer survey the paper cites.  MOESI and the BedRock-style
directory MSI extend the set — both are pure DSL definitions.

Every protocol is a declarative
:class:`~repro.protodsl.defs.ProtocolDef` compiled by
:class:`~repro.cache.protocols.dsl.DSLProtocol`; the hand-maintained
per-protocol fact tables (state vocabularies, peer co-states,
silent-write facts, DMA result states) are *generated* here from the
definitions — see :data:`PROTOCOL_DEFINITIONS` / :data:`PROTOCOL_FACTS`.

All protocols are stateless singletons: per-line state lives in the
caches, and one protocol instance may serve every cache in a machine.
"""

from repro.cache.protocols.base import CoherenceProtocol
from repro.cache.protocols.bedrock import BedrockProtocol
from repro.cache.protocols.berkeley import BerkeleyProtocol
from repro.cache.protocols.dragon import DragonProtocol
from repro.cache.protocols.dsl import DSLProtocol, ProtocolDefinitionError
from repro.cache.protocols.firefly import FireflyProtocol
from repro.cache.protocols.mesi import MesiProtocol
from repro.cache.protocols.moesi import MoesiProtocol
from repro.cache.protocols.synapse import SynapseProtocol
from repro.cache.protocols.write_once import WriteOnceProtocol
from repro.cache.protocols.write_through import WriteThroughInvalidateProtocol

_REGISTRY = {
    cls.name: cls
    for cls in (
        FireflyProtocol,
        WriteThroughInvalidateProtocol,
        BerkeleyProtocol,
        DragonProtocol,
        MesiProtocol,
        SynapseProtocol,
        WriteOnceProtocol,
        MoesiProtocol,
        BedrockProtocol,
    )
}

#: name -> the declarative definition (the single source of truth).
PROTOCOL_DEFINITIONS = {
    name: cls.definition for name, cls in _REGISTRY.items()
}

#: name -> the generated facts table (states, peer co-state, silent-
#: write facts, DMA result states).  ``repro.cache.fsm`` derives its
#: state/co-state dictionaries from this; nothing transcribes these
#: facts by hand any more.
PROTOCOL_FACTS = {
    name: defn.facts() for name, defn in PROTOCOL_DEFINITIONS.items()
}


def protocol_by_name(name: str) -> CoherenceProtocol:
    """Instantiate a protocol from its registry name.

    >>> protocol_by_name("firefly").name
    'firefly'
    """
    try:
        return _REGISTRY[name]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown protocol {name!r}; known: {known}") from None


def available_protocols() -> tuple:
    """Names of every registered protocol."""
    return tuple(sorted(_REGISTRY))


__all__ = [
    "BedrockProtocol",
    "BerkeleyProtocol",
    "CoherenceProtocol",
    "DSLProtocol",
    "DragonProtocol",
    "FireflyProtocol",
    "MesiProtocol",
    "MoesiProtocol",
    "PROTOCOL_DEFINITIONS",
    "PROTOCOL_FACTS",
    "ProtocolDefinitionError",
    "SynapseProtocol",
    "WriteOnceProtocol",
    "WriteThroughInvalidateProtocol",
    "available_protocols",
    "protocol_by_name",
]
