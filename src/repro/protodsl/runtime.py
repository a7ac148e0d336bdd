"""Public alias for the DSL runtime compiler/interpreter.

The implementation lives in :mod:`repro.cache.protocols.dsl` (inside
the protocols package, which keeps the import graph acyclic from every
entry point); this module is the protodsl-facing name for it.
"""

from repro.cache.protocols.dsl import DSLProtocol, ProtocolDefinitionError

__all__ = ["DSLProtocol", "ProtocolDefinitionError"]
