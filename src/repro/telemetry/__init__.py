"""Unified telemetry: event probes, time-series samplers, exporters.

The observability layer the paper's authors had in hardware (event
counters and a logic analyser) rebuilt for the simulator:

- :mod:`repro.telemetry.catalog` — the event catalogue: every event
  name with the probe categories that emit it, its phase and its args;
- :mod:`repro.telemetry.probe` — typed, timestamped events emitted by
  the bus, caches, scheduler and devices, near-free when nobody reads
  them;
- :mod:`repro.telemetry.sampler` — periodic ring-buffered snapshots of
  bus load, TPI, miss rate and run-queue depth;
- :mod:`repro.telemetry.export` — ``chrome://tracing`` JSON and JSONL;
- :mod:`repro.telemetry.instrument` — one-call attachment to a built
  :class:`~repro.system.machine.FireflyMachine` or Topaz kernel.

See ``docs/TELEMETRY.md`` for the event taxonomy and format notes.
"""

from repro.telemetry.probe import (
    COMPLETE,
    INSTANT,
    NULL_PROBE,
    Probe,
    TelemetryEvent,
    TelemetryHub,
)
from repro.telemetry.sampler import RingBuffer, Sampler, Series, delta_gauge
from repro.telemetry.export import (
    chrome_trace,
    dump_jsonl,
    jsonl_records,
    write_chrome_trace,
    write_export,
    write_jsonl,
)
from repro.telemetry.instrument import (
    DEFAULT_SAMPLE_INTERVAL,
    attach_kernel,
    attach_machine,
    attach_rpc,
    attach_serving,
    kernel_sampler,
    machine_sampler,
    telemetry_for_kernel,
    telemetry_for_machine,
)

__all__ = [
    "COMPLETE",
    "INSTANT",
    "NULL_PROBE",
    "Probe",
    "TelemetryEvent",
    "TelemetryHub",
    "RingBuffer",
    "Sampler",
    "Series",
    "delta_gauge",
    "chrome_trace",
    "dump_jsonl",
    "jsonl_records",
    "write_chrome_trace",
    "write_export",
    "write_jsonl",
    "DEFAULT_SAMPLE_INTERVAL",
    "attach_kernel",
    "attach_machine",
    "attach_rpc",
    "attach_serving",
    "kernel_sampler",
    "machine_sampler",
    "telemetry_for_kernel",
    "telemetry_for_machine",
]
