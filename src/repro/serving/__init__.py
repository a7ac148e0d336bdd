"""The resilient RPC serving layer (deadlines, retries, breakers,
shedding, hedging) and the open-loop workload engine that exercises it
under chaos.  See ``docs/SERVING.md``.
"""

from repro.serving.policies import (CallOutcome, CircuitBreaker,
                                    ResilienceParams, ResilientTransport)
from repro.serving.workload import (ArrivalSpec, ClassMetrics, ServerSpec,
                                    ServingWorkload, SloSpec, TierSpec,
                                    Topology, TOPOLOGY_SCHEMA)
from repro.serving.engine import (SERVE_SCENARIOS, SERVE_SCHEMA,
                                  ServeOutcome, ServeReport,
                                  run_serve_campaign)

__all__ = [
    "ArrivalSpec", "CallOutcome", "CircuitBreaker", "ClassMetrics",
    "ResilienceParams", "ResilientTransport", "SERVE_SCENARIOS",
    "SERVE_SCHEMA", "ServeOutcome", "ServeReport", "ServerSpec",
    "ServingWorkload", "SloSpec", "TierSpec", "Topology",
    "TOPOLOGY_SCHEMA", "run_serve_campaign",
]
