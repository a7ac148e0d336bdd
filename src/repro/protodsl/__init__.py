"""Guarded-action protocol DSL and its static checker pipeline.

One :class:`~repro.protodsl.defs.ProtocolDef` generates everything the
rest of the system needs from a coherence protocol:

- the runtime ``CoherenceProtocol`` subclass ``SnoopyCache`` drives
  (:mod:`repro.protodsl.runtime`) — its handlers are the protocol's
  only operational semantics — and
- the :class:`~repro.protodsl.defs.ProtocolFacts` table the cache fast
  paths and DMA hook gate on;

with the static **guard checker** (:mod:`repro.protodsl.check`)
proving exhaustiveness, disjointness, reachability and fact
consistency over the finite guard space before any simulation runs.
The transition oracle (:mod:`repro.protodsl.oracle`) runs those
handlers on a live single-line rig for Figure 3 and the model checker.

Import note: this package deliberately re-exports only the simulator-
independent pieces (definitions and checker).  The runtime and oracle
live in their own submodules — import them as
``repro.protodsl.runtime`` / ``repro.protodsl.oracle`` — because they
depend on the cache layer, and pulling them in here would make the
package unimportable from inside that layer.
"""

from repro.protodsl.check import GuardFinding, check_guards
from repro.protodsl.defs import (
    GUARD_ALIGNED_LONGWORD,
    GUARD_ALWAYS,
    GUARD_NOT_ALIGNED_LONGWORD,
    AcquireThenWrite,
    AsWriteMiss,
    Goto,
    Invalidate,
    ProtocolDef,
    ProtocolFacts,
    ReadForOwnership,
    ReadMissRule,
    ReadThenWrite,
    SilentWrite,
    SnoopRule,
    Stay,
    TakeData,
    WriteAllocate,
    WriteHitRule,
    WriteMissRule,
    WriteNoAllocate,
    WriteThrough,
)

__all__ = [
    "AcquireThenWrite",
    "AsWriteMiss",
    "GUARD_ALIGNED_LONGWORD",
    "GUARD_ALWAYS",
    "GUARD_NOT_ALIGNED_LONGWORD",
    "Goto",
    "GuardFinding",
    "Invalidate",
    "ProtocolDef",
    "ProtocolFacts",
    "ReadForOwnership",
    "ReadMissRule",
    "ReadThenWrite",
    "SilentWrite",
    "SnoopRule",
    "Stay",
    "TakeData",
    "WriteAllocate",
    "WriteHitRule",
    "WriteMissRule",
    "WriteNoAllocate",
    "WriteThrough",
    "check_guards",
]
