"""The pinned benchmark suite, its BENCH files and its overhead gates.

The suite's contract: schema-valid BENCH documents at the next free
index, a pinned scenario registry, and simulated metrics from real
runs.  The overhead gates' contract, checked on injected timings: one
warmup run is discarded, pairs alternate which configuration runs
first, the bound is the 4th-smallest of 16 paired ratios, a
configuration 10% slower fails while one 1% slower passes, and a
failing gate names itself and fails ``firefly-sim bench``.  The slow
mutation test proves the gates fail on real timings when every probe
is forced live.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.observatory import (
    BENCH_SCHEMA,
    bench,
    bench_files,
    next_bench_path,
    run_suite,
    scenario_names,
    validate_bench,
    write_bench,
)
from repro.observatory.bench import SCENARIOS
from repro.system.scenario import Horizon
from repro.telemetry.probe import TelemetryHub

pytestmark = pytest.mark.observatory


def synthetic_bench(rates):
    """A schema-valid BENCH document from {scenario: ticks/sec}."""
    scenarios = {}
    for name, rate in rates.items():
        scenarios[name] = {
            "description": name,
            "trials": [{"seed": 1987, "cycles": 100_000,
                        "wall_seconds": 100_000 / rate,
                        "ticks_per_second": rate}],
            "median_ticks_per_second": rate,
            "noise": 0.0,
            "metrics": {"bus_load": 0.5},
        }
    return {"schema": BENCH_SCHEMA, "mode": "full",
            "host": {"platform": "test", "python": "3", "machine": "x"},
            "scenarios": scenarios, "overhead": None}


# -- schema validation and file handling --------------------------------


class TestBenchFiles:
    def test_synthetic_document_is_schema_valid(self):
        assert validate_bench(synthetic_bench({"a": 1.0})) == []

    def test_validation_catches_damage(self):
        doc = synthetic_bench({"a": 1.0})
        doc["schema"] = "nonsense/9"
        doc["scenarios"]["a"]["trials"] = []
        doc["scenarios"]["a"]["metrics"] = {}
        problems = validate_bench(doc)
        assert any("schema" in p for p in problems)
        assert any("trials" in p for p in problems)
        assert any("metrics" in p for p in problems)

    def test_write_refuses_invalid_document(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_bench({"schema": "bad"}, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_bench_files_order_and_next_index(self, tmp_path):
        assert next_bench_path(tmp_path).name == "BENCH_0001.json"
        for n in (3, 1, 10):
            (tmp_path / f"BENCH_{n:04d}.json").write_text("{}")
        (tmp_path / "BENCH_readme.txt").write_text("not a bench")
        names = [p.name for p in bench_files(tmp_path)]
        assert names == ["BENCH_0001.json", "BENCH_0003.json",
                         "BENCH_0010.json"]
        assert next_bench_path(tmp_path).name == "BENCH_0011.json"

    def test_pinned_scenario_registry(self):
        assert scenario_names() == ["exerciser-1cpu", "exerciser-5cpu",
                                    "table1-sweep", "protocol-comparison",
                                    "chaos-smoke", "serve-smoke",
                                    "core-microbench", "vector-stat"]
        for scenario in SCENARIOS:
            assert scenario.quick.total < scenario.full.total


# -- real runs ----------------------------------------------------------


class TestBenchRuns:
    @pytest.mark.slow
    def test_run_scenario_measures_throughput_and_metrics(self):
        scenario = SCENARIOS[0]  # exerciser-1cpu
        document = run_suite(quick=True, trials=1,
                             scenarios=[scenario.name], skip_overhead=True)
        result = document["scenarios"][scenario.name]
        assert len(result["trials"]) == 1
        trial = result["trials"][0]
        assert trial["cycles"] >= scenario.quick.total
        assert trial["ticks_per_second"] > 0
        assert result["noise"] == 0.0
        assert 0.0 < result["metrics"]["bus_load"] < 1.0
        assert result["metrics"]["mean_tpi"] > 0

    def test_trial_count_validation(self):
        for trials in (0, 99):
            with pytest.raises(ConfigurationError):
                run_suite(trials=trials, scenarios=[SCENARIOS[0].name],
                          skip_overhead=True)

    def test_cli_rejects_unknown_scenario(self, tmp_path, capsys):
        code = main(["bench", "--scenario", "does-not-exist",
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "unknown bench scenario" in capsys.readouterr().err


# -- overhead gates -----------------------------------------------------


def inject_timings(monkeypatch, disabled, recorder=(1.0,)):
    """Replace the gates' run functions with canned CPU times.

    Bare runs take 1 s.  ``disabled`` and ``recorder`` are the measured
    configurations' times in call order, warmup first; the last one
    repeats.  Returns the log of calls, by configuration name.
    """
    calls = []

    def fake(name, times):
        times = itertools.chain(times, itertools.repeat(times[-1]))

        def run():
            calls.append(name)
            return next(times)
        return run

    monkeypatch.setattr(bench, "_bare_run", fake("bare", [1.0]))
    monkeypatch.setattr(bench, "_disabled_run", fake("disabled", disabled))
    monkeypatch.setattr(bench, "_recorder_run", fake("recorder", recorder))
    return calls


class TestOverheadGates:
    def test_warmup_run_is_discarded(self, monkeypatch):
        calls = inject_timings(monkeypatch, disabled=[100.0, 1.01])
        ratios = bench._paired_ratios(bench._disabled_run)
        assert calls[0] == "disabled"
        assert len(calls) == 1 + 2 * bench.OVERHEAD_PAIRS
        assert ratios == pytest.approx([1.01] * 16)

    def test_pairs_alternate_which_configuration_runs_first(
            self, monkeypatch):
        calls = inject_timings(monkeypatch, disabled=[1.0])
        bench._paired_ratios(bench._disabled_run)
        pairs = [tuple(calls[i:i + 2]) for i in range(1, len(calls), 2)]
        assert pairs == [("bare", "disabled"), ("disabled", "bare")] * 8

    def test_ten_percent_slower_fails_one_percent_passes(self, monkeypatch):
        inject_timings(monkeypatch, disabled=[1.10], recorder=[1.01])
        block = bench.measure_overhead()
        assert block["disabled_bound"] == pytest.approx(1.10)
        assert block["recorder_bound"] == pytest.approx(1.01)
        assert [passed for passed, _ in bench.overhead_verdicts(block)] \
            == [False, True]
        assert block["ok"] is False

    def test_bound_is_fourth_smallest_of_sixteen_ratios(self, monkeypatch):
        order = (9, 3, 14, 0, 7, 12, 5, 1, 15, 10, 2, 8, 13, 6, 11, 4)
        times = [100.0] + [1.0 + k / 100 for k in order]
        inject_timings(monkeypatch, disabled=times, recorder=times)
        block = bench.measure_overhead()
        assert block["pairs"] == 16
        assert block["budget"] == 0.02
        for gate in ("disabled", "recorder"):
            assert block[f"{gate}_bound"] == pytest.approx(1.03)
            assert block[f"{gate}_ratio"] == pytest.approx(1.075)
        assert validate_bench(dict(synthetic_bench({"a": 1.0}),
                                   overhead=block)) == []

    def test_failing_gate_fails_bench(self, tmp_path, monkeypatch, capsys):
        inject_timings(monkeypatch, disabled=[1.01], recorder=[1.10])
        code = main(["bench", "--quick", "--trials", "1", "--scenario",
                     "core-microbench", "--out-dir", str(tmp_path)])
        assert code == 1
        out, err = capsys.readouterr()
        assert "disabled overhead gate: median ratio 1.010, bound 1.010 " \
               "over 16 pairs (budget 2%)" in out
        assert "error: recorder overhead gate: median ratio 1.100, " \
               "bound 1.100 over 16 pairs (budget 2%) exceeds its " \
               "budget" in err
        assert (tmp_path / "BENCH_0001.json").exists()

    @pytest.mark.slow
    def test_live_probes_fail_both_gates(self, monkeypatch):
        # The mutant: every probe live, as if the disabled path and the
        # recorder's category filter both leaked work onto the hot path.
        monkeypatch.setattr(TelemetryHub, "probe_active",
                            lambda self, category: True)
        monkeypatch.setattr(bench, "OVERHEAD_HORIZON", Horizon(2_000, 10_000))
        block = bench.measure_overhead()
        assert [passed for passed, _ in bench.overhead_verdicts(block)] \
            == [False, False], block
        assert block["ok"] is False
