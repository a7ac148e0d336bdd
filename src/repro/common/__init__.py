"""Shared infrastructure for the Firefly reproduction.

This package holds everything that is not specific to the Firefly
hardware: the discrete-event simulation kernel, statistics counters,
deterministic random-stream management, fixed-point accumulators, and
the exception hierarchy.
"""

from repro.common.errors import (
    ConfigurationError,
    CoherenceViolation,
    ReproError,
    SimulationError,
)
from repro.common.events import Event, Process, Resource, Simulator
from repro.common.rng import FractionalAccumulator, RandomStream, StreamFactory
from repro.common.stats import Counter, StatSet, Utilization

__all__ = [
    "ConfigurationError",
    "CoherenceViolation",
    "Counter",
    "Event",
    "FractionalAccumulator",
    "Process",
    "RandomStream",
    "ReproError",
    "Resource",
    "SimulationError",
    "StatSet",
    "StreamFactory",
    "Simulator",
    "Utilization",
]
