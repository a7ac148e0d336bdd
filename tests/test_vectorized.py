"""The vectorized statistical mode: identity, validity, and wiring.

Three contracts from docs/PERFORMANCE.md:

- the numpy and pure-Python backends consume the same draws and
  produce bit-identical results (the reduction is over integer
  counts, never backend-dependent float sums);
- the mode's (M, D, S) statistics and derived load/TPI/RP agree with
  the coroutine simulator within the DivergenceMonitor's noise bands
  (the paper's own slide-rule accuracy standard, never byte equality);
- the bench scenario and campaign trial kind that expose it stay
  deterministic and JSON-safe.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analytic.queueing import AnalyticParameters
from repro.common.errors import ConfigurationError
from repro.trace.stats import TraceReduction
from repro.trace.vectorized import (BACKENDS, VectorizedResult,
                                    divergence_check, numpy_available,
                                    params_from_reduction, run_vectorized)


class TestBackendIdentity:
    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_numpy_and_python_are_bit_identical(self):
        numpy = run_vectorized(3, 50_000, 1987, backend="numpy")
        python = run_vectorized(3, 50_000, 1987, backend="python")
        n, p = numpy.metrics(), python.metrics()
        assert n.pop("backend") == "numpy"
        assert p.pop("backend") == "python"
        assert n == p
        assert numpy.ticks == python.ticks

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    @pytest.mark.parametrize("processors", (2, 4, 6))
    def test_backends_agree_at_the_table1_operating_points(self,
                                                            processors):
        """The benchmark's ``table1-vector`` runs: 400 K instructions
        per CPU at seed 1987, about 1.2 M draws per CPU."""
        numpy = run_vectorized(processors, 400_000, 1987, backend="numpy")
        python = run_vectorized(processors, 400_000, 1987, backend="python")
        assert numpy == replace(python, backend="numpy")

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_chunk_size_never_changes_results(self):
        """Chunking bounds memory; draws and counts are chunk-invariant."""
        small = run_vectorized(2, 20_000, 1987, chunk=777)
        large = run_vectorized(2, 20_000, 1987, chunk=1_000_000)
        assert small.metrics() == large.metrics()

    def test_same_seed_same_result_different_seed_differs(self):
        first = run_vectorized(2, 20_000, 1987, backend="python")
        again = run_vectorized(2, 20_000, 1987, backend="python")
        other = run_vectorized(2, 20_000, 1990, backend="python")
        assert first == again
        assert first.misses != other.misses


class TestStatistics:
    def test_counts_track_configured_rates(self):
        params = AnalyticParameters()
        result = run_vectorized(4, 100_000, 1987, params=params,
                                backend="python")
        assert result.miss_rate == pytest.approx(params.miss_rate,
                                                 rel=0.02)
        assert result.dirty_fraction == pytest.approx(
            params.dirty_fraction, rel=0.05)
        assert result.shared_write_fraction == pytest.approx(
            params.shared_write_fraction, rel=0.05)
        per_cpu_refs = (int(100_000 * params.mix.instruction_reads)
                        + int(100_000 * params.mix.data_reads)
                        + int(100_000 * params.mix.data_writes))
        assert result.references == 4 * per_cpu_refs
        assert result.bus_busy_ticks == params.bus_op_ticks * (
            result.misses + result.dirty_victims + result.shared_writes)
        assert result.ticks == int(100_000 * result.mean_tpi)

    def test_per_cpu_streams_are_independent(self):
        """Adding a CPU never perturbs existing CPUs' statistics."""
        two = run_vectorized(2, 30_000, 1987, backend="python")
        three = run_vectorized(3, 30_000, 1987, backend="python")
        # CPUs 0 and 1 drew the same streams in both runs, so the
        # third CPU's misses are exactly the difference.
        assert three.misses > two.misses
        solo = run_vectorized(1, 30_000, 1987, backend="python")
        assert solo.misses <= two.misses

    def test_agrees_with_coroutine_simulator_within_bands(self):
        """The acceptance gate: vectorized (M, D, S) and derived
        load/TPI/RP match the coroutine machine inside the
        DivergenceMonitor's noise bands."""
        from repro.system import FireflyConfig, FireflyMachine

        machine = FireflyMachine(FireflyConfig(processors=2, seed=1987))
        measured = machine.run(warmup_cycles=10_000,
                               measure_cycles=40_000)
        # Like the DivergenceMonitor: the model's free inputs (M, D)
        # are substituted with the machine's measured rates; the
        # vectorized run then re-draws them empirically.
        params = replace(
            AnalyticParameters(),
            miss_rate=min(max(measured.mean_miss_rate, 1e-6), 1 - 1e-6),
            dirty_fraction=min(max(measured.dirty_fraction, 0.0), 1.0))
        result = run_vectorized(2, 100_000, 1987, params=params)
        verdicts = divergence_check(result, {
            "bus_load": measured.bus_load,
            "mean_tpi": measured.mean_tpi,
        })
        assert verdicts["ok"], verdicts
        for metric in ("bus_load", "tpi", "relative_performance"):
            assert verdicts[metric]["ok"], (metric, verdicts[metric])
        # And the empirical re-draws sit on the measured inputs.
        assert result.miss_rate == pytest.approx(
            measured.mean_miss_rate, abs=0.01)

    def test_divergence_check_flags_disagreement(self):
        result = run_vectorized(2, 20_000, 1987, backend="python")
        verdicts = divergence_check(result, {"bus_load": 0.95,
                                             "tpi": 40.0})
        assert not verdicts["ok"]
        assert not verdicts["bus_load"]["ok"]

    def test_divergence_check_requires_measurements(self):
        result = run_vectorized(2, 20_000, 1987, backend="python")
        with pytest.raises(ConfigurationError, match="bus_load"):
            divergence_check(result, {"tpi": 12.0})


class TestTraceDriven:
    def test_params_from_reduction_substitutes_measured_rates(self):
        reduction = TraceReduction(
            instructions=1000, references=2130, instruction_reads=950,
            data_reads=780, data_writes=400, miss_rate=0.31,
            dirty_fraction=0.42)
        params = params_from_reduction(reduction)
        assert params.miss_rate == pytest.approx(0.31)
        assert params.dirty_fraction == pytest.approx(0.42)
        assert params.mix.instruction_reads == pytest.approx(0.95)
        # The base model's S survives (a single-cache reduction cannot
        # observe sharing).
        assert params.shared_write_fraction == \
            AnalyticParameters().shared_write_fraction
        result = run_vectorized(2, 10_000, 1987, params=params,
                                backend="python")
        assert result.miss_rate == pytest.approx(0.31, rel=0.05)


class TestValidationAndWiring:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError, match="processor"):
            run_vectorized(0, 1000, 1987)
        with pytest.raises(ConfigurationError, match="instruction"):
            run_vectorized(2, 0, 1987)
        with pytest.raises(ConfigurationError, match="chunk"):
            run_vectorized(2, 1000, 1987, chunk=0)
        with pytest.raises(ConfigurationError, match="unknown vectorized"):
            run_vectorized(2, 1000, 1987, backend="fortran")
        assert set(BACKENDS) == {"numpy", "python"}

    def test_metrics_dict_is_json_safe(self):
        import json

        result = run_vectorized(2, 5_000, 1987, backend="python")
        assert isinstance(result, VectorizedResult)
        round_tripped = json.loads(json.dumps(result.metrics()))
        assert round_tripped["processors"] == 2
        assert round_tripped["backend"] == "python"

    def test_bench_vector_stat_scenario(self):
        from repro.observatory.bench import SCENARIOS

        scenario = next(s for s in SCENARIOS if s.name == "vector-stat")
        cycles, metrics = scenario.runner(scenario, scenario.quick, 1987)
        assert metrics["processor_counts"] == [2, 4]
        assert cycles > 0
        for processors in (2, 4):
            assert 0.0 < metrics[f"np{processors}.bus_load"] < 1.0
            assert metrics[f"np{processors}.mean_tpi"] > 11.9
        # More processors, more bus load — the Table 1 shape.
        assert metrics["np4.bus_load"] > metrics["np2.bus_load"]

    def test_campaign_vector_kind(self):
        from repro.campaign.engine import campaign_trial

        result = campaign_trial(("vector", "vector/np2/i5000/s1987",
                                 1987, {"processors": 2,
                                        "instructions": 5_000}))
        assert result["seed"] == 1987
        assert result["cycles"] > 5_000
        assert "backend" not in result["metrics"]
        direct = run_vectorized(2, 5_000, 1987)
        assert result["metrics"]["misses"] == direct.misses
