"""Pinned scenarios: named simulation runs with quick and full horizons.

The ``bench``, ``chaos`` and ``serve`` trial kinds each read a pinned
table of scenarios of this one shape; the trial-kind registry
(:mod:`repro.observatory.trials`) selects from those tables and runs a
scenario as ``scenario.runner(scenario, scenario.horizon(quick), seed)``.
What a runner returns is the kind's outcome: ``(cycles, metrics)`` for a
bench scenario, a scenario outcome object for chaos and serve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Horizon:
    """Warm-up and measurement cycles for one scenario run."""

    warmup: int
    measure: int

    @property
    def total(self) -> int:
        return self.warmup + self.measure


@dataclass(frozen=True)
class Scenario:
    """One pinned scenario; ``runner(scenario, horizon, seed)`` runs it."""

    name: str
    description: str
    full: Horizon
    quick: Horizon
    runner: Callable[["Scenario", Horizon, int], Any]

    def horizon(self, quick: bool) -> Horizon:
        return self.quick if quick else self.full
