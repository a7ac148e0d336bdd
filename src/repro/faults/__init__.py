"""Deterministic fault injection and graceful degradation.

The Firefly was a machine meant to keep serving its user through
imperfect hardware; this package turns the reproduction's passive
monitors — the I1-I4 invariant checkers, the observatory — into an
active robustness rig:

- :mod:`repro.faults.plan` — *what* goes wrong and *when*: seeded,
  fully deterministic fault schedules drawn from the machine's own
  named RNG streams, so one seed reproduces one fault timeline.
- :mod:`repro.faults.models` — *how* each layer misbehaves: bus parity
  corruption, SECDED memory flips, dropped snoop updates, CPU board
  failure, QBus device timeouts.
- :mod:`repro.faults.injector` — arms the models against a live
  machine and keeps the per-fault ledger (injected / detected /
  recovered times, outcome), emitting ``fault.*`` telemetry.
- :mod:`repro.faults.chaos` — the ``firefly-sim chaos`` campaigns:
  pinned scenarios, detection/recovery reporting, degradation vs a
  fault-free twin run at the same seed.

See docs/FAULTS.md.
"""

from repro.faults.chaos import (
    CHAOS_SCENARIOS,
    ChaosReport,
    ScenarioOutcome,
    run_campaign,
)
from repro.faults.injector import FaultInjector, FaultRecord
from repro.faults.models import (
    BusFaultModel,
    QBusFaultModel,
)
from repro.faults.plan import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    ScheduledFault,
    spec,
)

__all__ = [
    "CHAOS_SCENARIOS",
    "BusFaultModel",
    "ChaosReport",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultRecord",
    "FaultSpec",
    "QBusFaultModel",
    "ScenarioOutcome",
    "ScheduledFault",
    "run_campaign",
    "spec",
]
