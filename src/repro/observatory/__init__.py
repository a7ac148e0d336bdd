"""The performance observatory: spans, model divergence, benchmarks.

Three instruments over one simulated machine:

- :mod:`repro.observatory.spans` — every MBus transaction and cache
  miss as a latency span with causal decomposition and streaming
  p50/p95/p99 percentiles;
- :mod:`repro.observatory.divergence` — the §5.2 queueing model
  evaluated continuously at measured rates, with residual bands
  (the live Table 1 vs Table 2 gap);
- :mod:`repro.observatory.bench` — the four pinned simulated-metric
  canaries the ``bench`` trial kind runs (their records are campaign
  ledger rows and golden digests), and the paired CPU-time gates on
  the cost of observing that ``firefly-sim bench`` runs.

Every harness runs its seeded trials through one pipeline: the
trial-kind registry of :mod:`repro.observatory.trials` over the
deterministic executor of :mod:`repro.observatory.runner`.

See docs/OBSERVATORY.md.
"""

from repro.observatory.bench import SCENARIOS, measure_overhead
from repro.observatory.divergence import (
    DivergenceBands,
    DivergenceMonitor,
    DivergenceReport,
    DivergenceSample,
    MetricVerdict,
)
from repro.observatory.runner import (
    SWEEP_SCHEMA,
    TrialFailure,
    run_ordered,
    run_sweep,
)
from repro.observatory.spans import (
    CacheSpan,
    SpanTracer,
    trace_spans,
)

__all__ = [
    "SCENARIOS",
    "CacheSpan",
    "DivergenceBands",
    "DivergenceMonitor",
    "DivergenceReport",
    "DivergenceSample",
    "MetricVerdict",
    "SWEEP_SCHEMA",
    "SpanTracer",
    "TrialFailure",
    "measure_overhead",
    "run_ordered",
    "run_sweep",
    "trace_spans",
]
