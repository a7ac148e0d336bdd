"""The vectorized statistical mode: identity, validity, and wiring.

Three contracts from docs/PERFORMANCE.md:

- the numpy draw path consumes the same draws as the pure-Python
  reference count kept here as the oracle, and produces bit-identical
  results (the reduction is over integer counts, never float sums);
- the mode's (M, D, S) statistics and derived load/TPI/RP agree with
  the coroutine simulator within the DivergenceMonitor's noise bands
  (the paper's own slide-rule accuracy standard, never byte equality);
- the campaign trial kind that exposes it stays deterministic and
  JSON-safe.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analytic.queueing import AnalyticParameters
from repro.common.errors import ConfigurationError
from repro.common.rng import RandomStream
from repro.trace.stats import TraceReduction
from repro.trace.vectorized import (VectorizedResult, divergence_check,
                                    params_from_reduction, run_vectorized)


def count_below_reference(stream: RandomStream, draws: int, p: float,
                          chunk: int) -> int:
    """The oracle count: ``random_block`` draws, compared with ``<``.

    :meth:`RandomStream.count_below`, which draws in numpy, must equal
    it for every stream, count and probability, and leave the stream
    where it does.
    """
    count = 0
    while draws > 0:
        block = stream.random_block(min(chunk, draws))
        draws -= len(block)
        count += sum(1 for draw in block if draw < p)
    return count


def run_reference(monkeypatch, *args, **kwargs) -> VectorizedResult:
    """``run_vectorized`` with every count made by the Python oracle."""
    with monkeypatch.context() as patch:
        patch.setattr(RandomStream, "count_below", count_below_reference)
        return run_vectorized(*args, **kwargs)


class TestBackendIdentity:
    def test_numpy_and_python_are_bit_identical(self, monkeypatch):
        numpy = run_vectorized(3, 50_000, 1987)
        python = run_reference(monkeypatch, 3, 50_000, 1987)
        assert numpy.metrics() == python.metrics()
        assert numpy.ticks == python.ticks

    @pytest.mark.parametrize("processors", (2, 4, 6))
    def test_backends_agree_at_the_table1_operating_points(self, processors,
                                                            monkeypatch):
        """The benchmark's ``table1-vector`` runs: 400 K instructions
        per CPU at seed 1987, about 1.2 M draws per CPU, equal to the
        Python oracle's."""
        numpy = run_vectorized(processors, 400_000, 1987)
        assert numpy == run_reference(monkeypatch, processors, 400_000, 1987)

    def test_chunk_size_never_changes_results(self):
        """Chunking bounds memory; draws and counts are chunk-invariant."""
        small = run_vectorized(2, 20_000, 1987, chunk=777)
        large = run_vectorized(2, 20_000, 1987, chunk=1_000_000)
        assert small.metrics() == large.metrics()

    def test_same_seed_same_result_different_seed_differs(self):
        first = run_vectorized(2, 20_000, 1987)
        again = run_vectorized(2, 20_000, 1987)
        other = run_vectorized(2, 20_000, 1990)
        assert first == again
        assert first.misses != other.misses


class TestStatistics:
    def test_counts_track_configured_rates(self):
        params = AnalyticParameters()
        result = run_vectorized(4, 100_000, 1987, params=params)
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
        two = run_vectorized(2, 30_000, 1987)
        three = run_vectorized(3, 30_000, 1987)
        # CPUs 0 and 1 drew the same streams in both runs, so the
        # third CPU's misses are exactly the difference.
        assert three.misses > two.misses
        solo = run_vectorized(1, 30_000, 1987)
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
        result = run_vectorized(2, 20_000, 1987)
        verdicts = divergence_check(result, {"bus_load": 0.95,
                                             "tpi": 40.0})
        assert not verdicts["ok"]
        assert not verdicts["bus_load"]["ok"]

    def test_divergence_check_requires_measurements(self):
        result = run_vectorized(2, 20_000, 1987)
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
        result = run_vectorized(2, 10_000, 1987, params=params)
        assert result.miss_rate == pytest.approx(0.31, rel=0.05)


class TestValidationAndWiring:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError, match="processor"):
            run_vectorized(0, 1000, 1987)
        with pytest.raises(ConfigurationError, match="instruction"):
            run_vectorized(2, 0, 1987)
        with pytest.raises(ConfigurationError, match="chunk"):
            run_vectorized(2, 1000, 1987, chunk=0)

    def test_metrics_dict_is_json_safe(self):
        import json

        result = run_vectorized(2, 5_000, 1987)
        assert isinstance(result, VectorizedResult)
        round_tripped = json.loads(json.dumps(result.metrics()))
        assert round_tripped["processors"] == 2
        assert round_tripped["backend"] == "numpy"

    def test_vector_kind_at_table1_counts(self):
        from repro.observatory.trials import (expand_group, run_trials,
                                              validate_group)

        group = validate_group({"kind": "vector", "processors": [2, 4],
                                "seeds": [1987]}, "vector")
        results = run_trials(expand_group(group, ()))
        assert [r["metrics"]["processors"] for r in results] == [2, 4]
        for result in results:
            assert result["cycles"] > 0
            assert 0.0 < result["metrics"]["bus_load"] < 1.0
            assert result["metrics"]["mean_tpi"] > 11.9
        # More processors, more bus load — the Table 1 shape.
        assert (results[1]["metrics"]["bus_load"]
                > results[0]["metrics"]["bus_load"])

    def test_campaign_vector_kind(self):
        from repro.observatory.trials import TrialSpec, run_trial

        result = run_trial(TrialSpec("vector", "vector/np2/i5000/s1987",
                                     1987, {"processors": 2,
                                            "instructions": 5_000}))
        assert result["seed"] == 1987
        assert result["cycles"] > 5_000
        assert "backend" not in result["metrics"]
        direct = run_vectorized(2, 5_000, 1987)
        assert result["metrics"]["misses"] == direct.misses
