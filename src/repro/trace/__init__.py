"""Address-trace tooling: record, store, and replay reference streams.

The paper's own methodology was trace-driven ("Trace-driven simulation
of the MicroVAX CPU, carried out for us by Deborrah Zukowski...").
This package provides the equivalent loop for the reproduction: any
reference source can be recorded to a trace file, and a trace file can
drive a CPU — so cache/protocol experiments can be replayed exactly,
compared across protocols on identical streams, or fed from externally
produced traces.

For pure statistical runs — anything that only needs the §5.2 model's
(M, D, S) inputs and outputs — :mod:`repro.trace.vectorized` skips the
event loop entirely: batched ``RandomStream`` draws, closed-form bus
service, and the analytic model evaluated at the empirical rates,
validated against the coroutine simulator within the divergence bands.
"""

from repro.trace.format import TraceRecord, decode_record, encode_record
from repro.trace.recorder import RecordingSource
from repro.trace.replay import TraceSource, load_trace, save_trace
from repro.trace.stats import TraceReduction, reduce_trace, working_set_curve
from repro.trace.vectorized import (VectorizedResult, divergence_check,
                                    params_from_reduction, run_vectorized)

__all__ = [
    "RecordingSource",
    "TraceRecord",
    "TraceReduction",
    "TraceSource",
    "VectorizedResult",
    "decode_record",
    "divergence_check",
    "encode_record",
    "load_trace",
    "params_from_reduction",
    "reduce_trace",
    "run_vectorized",
    "save_trace",
    "working_set_curve",
]
