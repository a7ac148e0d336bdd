"""The performance observatory: spans, model divergence, benchmarks.

Three instruments over one simulated machine:

- :mod:`repro.observatory.spans` — every MBus transaction and cache
  miss as a latency span with causal decomposition and streaming
  p50/p95/p99 percentiles;
- :mod:`repro.observatory.divergence` — the §5.2 queueing model
  evaluated continuously at measured rates, with residual bands
  (the live Table 1 vs Table 2 gap);
- :mod:`repro.observatory.bench` — the pinned ``firefly-sim bench``
  suite: simulated-metric canaries in BENCH_<n>.json files, and the
  paired wall-clock gates on the cost of observing.

Every harness runs its seeded trials through one pipeline: the
trial-kind registry of :mod:`repro.observatory.trials` over the
deterministic executor of :mod:`repro.observatory.runner`.

See docs/OBSERVATORY.md.
"""

from repro.observatory.bench import (
    BENCH_SCHEMA,
    SCENARIOS,
    bench_files,
    load_bench,
    measure_overhead,
    next_bench_path,
    run_suite,
    scenario_names,
    validate_bench,
    write_bench,
)
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
    "BENCH_SCHEMA",
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
    "bench_files",
    "load_bench",
    "measure_overhead",
    "next_bench_path",
    "run_ordered",
    "run_suite",
    "run_sweep",
    "scenario_names",
    "trace_spans",
    "validate_bench",
    "write_bench",
]
