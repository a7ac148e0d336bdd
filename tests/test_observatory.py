"""The performance observatory: spans, divergence, and its satellites.

The tentpole contracts under test:

- span decomposition is *exact*: a bus span's ``wait + transfer``
  equals its end-to-end latency, and a cache span's three stages sum
  to its duration, for every span of a real multiprocessor run;
- streaming percentiles (p50/p95/p99) come out of the bounded-bucket
  histograms in the right order;
- the divergence monitor reproduces the paper's Table 1 vs Table 2
  story: the analytic model's bus-load prediction is in-band for the
  1-CPU exerciser and flagged as an *underprediction* for the heavily
  sharing 5-CPU exerciser;

plus the satellite fixes: NaN-safe sparklines, NaN-safe trace
reduction, and the ``--telemetry-out`` overwrite guard.
"""

from __future__ import annotations

import math

import pytest

from repro.cli import main
from repro.common.events import Simulator
from repro.observatory import (
    DivergenceBands,
    DivergenceMonitor,
    SpanTracer,
    trace_spans,
)
from repro.observatory.spans import STAGES, CacheSpan
from repro.reporting import sparkline
from repro.system import FireflyConfig, FireflyMachine
from repro.telemetry import TelemetryHub
from repro.trace.format import TraceRecord
from repro.trace.stats import reduce_trace
from repro.workloads.threads_exerciser import ExerciserParams, build_exerciser
from tests.test_telemetry_catalog import MEASURE, WARMUP, _steady_workload

pytestmark = pytest.mark.observatory


@pytest.fixture(scope="module")
def traced_run():
    """A 3-CPU exerciser run with spans kept, shared across tests."""
    kernel = build_exerciser(3, ExerciserParams(threads=12), seed=1987)
    hub, tracer = trace_spans(kernel, keep_spans=True)
    kernel.run(warmup_cycles=10_000, measure_cycles=50_000)
    tracer.close()
    return kernel, hub, tracer


# -- span decomposition -------------------------------------------------


def _assert_stages_exact(spans):
    """Every stage is >= 0 and the stages sum to the span's duration."""
    assert spans, "run produced no cache spans"
    for span in spans:
        assert sum(span.stages.values()) == span.duration, span
        assert all(span.stages[s] >= 0 for s in STAGES), span


class TestSpanDecomposition:
    def test_bus_span_wait_plus_transfer_is_total(self):
        cases = (("MRead", True, {"cache": 1}),
                 ("MRead", False, {"memory": 1}),
                 ("MReadEx", False, {"memory": 1}),
                 ("MWrite", False, {"none": 1}))
        for op, cache_supplied, supply in cases:
            hub = TelemetryHub(Simulator())
            tracer = SpanTracer(hub)
            probe = hub.probe("bus")
            probe.complete("bus.op", "bus", start=20, duration=4, op=op,
                           initiator=2, wait=7,
                           cache_supplied=cache_supplied, victim=False)
            stats = tracer.kind_stats[f"bus.{op}"]
            assert stats.total.count == 1
            assert stats.total.mean == 11.0  # 7 wait + 4 transfer
            assert stats.wait.mean == 7.0
            assert stats.transfer.mean == 4.0
            assert stats.supply_counts == supply, op

    def test_every_cache_span_stages_sum_exactly(self, traced_run):
        _, _, tracer = traced_run
        _assert_stages_exact(tracer.cache_spans)

    def test_every_cache_span_stages_sum_exactly_under_dma(self):
        """steady-poisson: QBus DMA reaches the MBus through the I/O
        processor's cache, so CPU 0's misses and DMA share initiator 0
        and their bus ops overlap in time."""
        workload = _steady_workload()
        hub, tracer = trace_spans(workload.kernel, keep_spans=True)
        workload.run(warmup_cycles=WARMUP, measure_cycles=MEASURE)
        tracer.close()
        assert workload.kernel.machine.qbus.stats["dma_words_in"].total > 0
        _assert_stages_exact(tracer.cache_spans)

    def test_overlapping_ops_of_one_initiator_count_once(self):
        """Op A transfers over [0, 4) while op B, queued at 0, waits for
        the grant at 4.  Summing the two ops would split the 8-cycle
        episode into 4 arb + 8 transfer - 4 other."""
        hub = TelemetryHub(Simulator())
        tracer = SpanTracer(hub, keep_spans=True)
        bus, cache = hub.probe("bus"), hub.probe("cache")
        for grant, wait in ((0, 0), (4, 4)):
            bus.complete("bus.op", "bus", grant, 4, op="MWrite", address=0,
                         initiator=0, wait=wait, shared=True,
                         cache_supplied=False, victim=False)
        cache.complete("cache.transition", "cache0", 0, 8,
                       stimulus="Pwrite.hit", before="SHARED",
                       after="SHARED", address=0)
        (span,) = tracer.cache_spans
        assert span.stages == {"arb_wait": 0, "transfer": 8, "other": 0}

    def test_stage_cycles_aggregate_matches_span_durations(self, traced_run):
        _, _, tracer = traced_run
        for cpu, stats in tracer.cpu_stats.items():
            spans = [s for s in tracer.cache_spans if s.cpu == cpu]
            if not spans:
                continue
            total_stage = sum(stats.stage_cycles.values())
            total_duration = sum(s.duration for s in spans)
            assert total_stage == total_duration
            fractions = stats.stage_fractions()
            assert math.isclose(sum(fractions.values()), 1.0)

    def test_dominant_stage_ties_resolve_in_report_order(self):
        span = CacheSpan("cache.Pdread.miss", cpu=0, start=0, duration=0,
                         wait=0, transfer=0)
        assert span.dominant_stage == "arb_wait"

    def test_summary_is_json_shaped(self, traced_run):
        import json
        _, _, tracer = traced_run
        summary = tracer.summary()
        json.dumps(summary)  # must be serialisable as-is
        assert "bus.MRead" in summary["kinds"]
        assert summary["kinds"]["bus.MRead"]["total"]["count"] > 0

    def test_render_mentions_every_kind(self, traced_run):
        _, _, tracer = traced_run
        text = tracer.render()
        for kind in tracer.kind_stats:
            assert kind in text
        assert "critical path" in text


class TestPercentiles:
    def test_streaming_percentiles_are_ordered(self, traced_run):
        _, _, tracer = traced_run
        for stats in tracer.kind_stats.values():
            hist = stats.total
            assert hist.p50 <= hist.p95 <= hist.p99 <= hist.max

    def test_p99_resolves_tail_p95_misses(self):
        from repro.common.stats import Histogram
        hist = Histogram("t", bounds=(0, 1, 2, 4, 8, 16, 32))
        for _ in range(98):
            hist.record(1)
        hist.record(30)
        hist.record(30)
        assert hist.p95 == 1
        assert hist.p99 == 32
        assert hist.to_dict()["p99"] == 32


# -- divergence monitor -------------------------------------------------


class TestDivergenceMonitor:
    @pytest.mark.slow
    def test_one_cpu_bus_load_is_in_band(self):
        kernel = build_exerciser(1, ExerciserParams(threads=8), seed=1987)
        monitor = DivergenceMonitor(kernel, interval=10_000)
        monitor.start()
        kernel.run(warmup_cycles=20_000, measure_cycles=60_000)
        monitor.stop()
        report = monitor.report()
        assert report.windows > 0
        assert report.verdicts["bus_load"].verdict == "in-band"

    @pytest.mark.slow
    def test_five_cpu_heavy_sharing_flags_underprediction(self):
        kernel = build_exerciser(5, ExerciserParams(threads=16), seed=1987)
        monitor = DivergenceMonitor(kernel, interval=10_000)
        monitor.start()
        kernel.run(warmup_cycles=20_000, measure_cycles=60_000)
        monitor.stop()
        report = monitor.report()
        verdict = report.verdicts["bus_load"]
        assert verdict.verdict == "underpredicts"
        assert verdict.mean_residual > report.verdicts["bus_load"].band
        assert not report.ok
        text = report.render()
        assert "underpredicts" in text

    def test_idle_window_is_skipped_not_crashed(self):
        machine = FireflyMachine(FireflyConfig(processors=2, seed=1))
        monitor = DivergenceMonitor(machine, interval=1_000)
        monitor.start()
        # No workload started: time passes, nothing retires.
        machine.sim.run_until(5_000)
        monitor.stop()
        assert monitor.evaluate_window() is None
        assert monitor.skipped_windows >= 1
        report = monitor.report()
        assert report.windows == 0
        assert report.verdicts["bus_load"].verdict == "in-band"

    def test_bands_validate(self):
        from repro.common.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            DivergenceBands(bus_load_abs=0.0)
        with pytest.raises(ConfigurationError):
            DivergenceMonitor(
                FireflyMachine(FireflyConfig(processors=1, seed=1)),
                interval=0)

    def test_out_of_band_emits_divergence_event(self):
        kernel = build_exerciser(5, ExerciserParams(threads=16), seed=1987)
        hub = TelemetryHub(kernel.sim)
        from repro.telemetry import attach_kernel
        attach_kernel(hub, kernel)
        seen = []
        hub.subscribe(seen.append, prefix="model.divergence")
        monitor = DivergenceMonitor(kernel, interval=10_000)
        monitor.start()
        kernel.run(warmup_cycles=10_000, measure_cycles=30_000)
        monitor.stop()
        assert seen, "no divergence event despite out-of-band residuals"
        args = dict(seen[0].args)
        assert "metrics" in args


# -- satellite: NaN-safe sparklines -------------------------------------


class TestSparklinePlaceholders:
    def test_empty_series_renders_empty(self):
        assert sparkline([], width=8) == ""

    def test_constant_series_renders_low_blocks(self):
        assert sparkline([5, 5, 5], width=8) == "▁▁▁"

    def test_nan_point_renders_gap(self):
        assert sparkline([0.0, float("nan"), 1.0], width=4) == "▁·█"

    def test_all_nan_renders_gaps(self):
        assert sparkline([float("nan")] * 3, width=8) == "···"

    def test_inf_renders_gap(self):
        out = sparkline([0.0, float("inf"), 1.0], width=4)
        assert out[1] == "·"

    def test_bucketed_nan_series_stays_finite(self):
        values = [float("nan") if i % 2 else float(i) for i in range(100)]
        out = sparkline(values, width=10)
        assert len(out) == 10
        assert "·" not in out  # every bucket has finite members

    def test_timeline_tables_survive_nan_series(self):
        from repro.reporting import render_series_table
        from repro.telemetry import Sampler
        sim = Simulator()
        sampler = Sampler(sim, interval=10)
        sampler.add("nan_only", lambda: float("nan"))
        sampler.start()
        sim.run_until(50)
        assert "no finite samples" in render_series_table(sampler)


# -- satellite: NaN-safe trace reduction --------------------------------


class TestTraceReductionZeroRefs:
    def test_zero_reference_trace_reduces_to_nan_miss_rate(self):
        records = [TraceRecord(refs=()) for _ in range(4)]
        reduced = reduce_trace(records)
        assert reduced.instructions == 4
        assert reduced.references == 0
        assert math.isnan(reduced.miss_rate)
        assert reduced.dirty_fraction == 0.0
        assert reduced.mix.total == 0.0

    def test_nan_miss_rate_rejected_cleanly_by_model(self):
        from repro.analytic.queueing import AnalyticParameters
        from repro.common.errors import ConfigurationError
        records = [TraceRecord(refs=())]
        reduced = reduce_trace(records)
        with pytest.raises(ConfigurationError):
            AnalyticParameters(miss_rate=reduced.miss_rate)


# -- satellite: --telemetry-out overwrite guard -------------------------


class TestTelemetryOverwriteGuard:
    ARGS = ["exerciser", "--processors", "1", "--threads", "4",
            "--measure-cycles", "2000"]

    def test_refuses_existing_file(self, tmp_path, capsys):
        target = tmp_path / "run.trace.json"
        target.write_text("precious")
        code = main(self.ARGS + ["--telemetry-out", str(target)])
        assert code == 1
        assert "already exists" in capsys.readouterr().err
        assert target.read_text() == "precious"

    def test_force_overwrites(self, tmp_path):
        target = tmp_path / "run.trace.json"
        target.write_text("precious")
        code = main(self.ARGS + ["--telemetry-out", str(target), "--force"])
        assert code == 0
        assert target.read_text() != "precious"

    def test_fresh_file_needs_no_force(self, tmp_path):
        target = tmp_path / "run.trace.json"
        code = main(self.ARGS + ["--telemetry-out", str(target)])
        assert code == 0
        assert target.exists()


# -- CLI flags ----------------------------------------------------------


class TestObservatoryCli:
    def test_spans_and_divergence_flags(self, capsys):
        code = main(["exerciser", "--processors", "2", "--threads", "8",
                     "--measure-cycles", "20000", "--spans",
                     "--divergence"])
        assert code == 0
        out = capsys.readouterr().out
        assert "span latencies" in out
        assert "analytic-model divergence" in out

    def test_simulate_spans_flag(self, capsys):
        code = main(["simulate", "--processors", "2", "--skip-check",
                     "--warmup-cycles", "5000", "--measure-cycles",
                     "20000", "--spans"])
        assert code == 0
        assert "span latencies" in capsys.readouterr().out
