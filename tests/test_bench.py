"""The continuous benchmark harness and its regression detector.

The detector's contract on synthetic BENCH trajectories: a clean
improvement and a clean regression are both called out, while a noisy
host whose trials scatter more than the movement stays "flat" — the
noise-aware margin prevents a jittery machine from crying wolf.  The
CLI end of the contract: ``bench --compare`` exits nonzero against a
doctored (2x faster) previous file, i.e. an injected >= 20% synthetic
regression is fatal.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.observatory import (
    BENCH_SCHEMA,
    bench_files,
    compare_bench,
    next_bench_path,
    run_suite,
    scenario_names,
    validate_bench,
    write_bench,
)
from repro.observatory.bench import SCENARIOS

pytestmark = pytest.mark.observatory


def synthetic_bench(rates, noise=0.0, mode="full"):
    """A schema-valid BENCH document from {scenario: ticks/sec}."""
    scenarios = {}
    for name, rate in rates.items():
        scenarios[name] = {
            "description": name,
            "trials": [{"seed": 1987, "cycles": 100_000,
                        "wall_seconds": 100_000 / rate,
                        "ticks_per_second": rate}],
            "median_ticks_per_second": rate,
            "noise": noise,
            "metrics": {"bus_load": 0.5},
        }
    return {"schema": BENCH_SCHEMA, "mode": mode,
            "host": {"platform": "test", "python": "3", "machine": "x"},
            "scenarios": scenarios, "overhead": None}


# -- regression detector on synthetic trajectories ----------------------


class TestCompareBench:
    def test_clean_regression_detected(self):
        prev = synthetic_bench({"a": 100_000.0})
        cur = synthetic_bench({"a": 70_000.0})  # -30% > 20% threshold
        report = compare_bench(prev, cur)
        assert not report.ok
        assert [d.status for d in report.deltas] == ["regression"]

    def test_clean_improvement_detected(self):
        prev = synthetic_bench({"a": 100_000.0})
        cur = synthetic_bench({"a": 150_000.0})
        report = compare_bench(prev, cur)
        assert report.ok
        assert [d.status for d in report.deltas] == ["improvement"]

    def test_small_movement_is_flat(self):
        prev = synthetic_bench({"a": 100_000.0})
        cur = synthetic_bench({"a": 90_000.0})  # -10% < 20% threshold
        report = compare_bench(prev, cur)
        assert [d.status for d in report.deltas] == ["flat"]

    def test_noisy_host_widens_the_margin(self):
        # A 25% drop would regress at the default threshold, but the
        # trials scattered by 30%, so the margin widens and it's flat.
        prev = synthetic_bench({"a": 100_000.0}, noise=0.30)
        cur = synthetic_bench({"a": 75_000.0})
        report = compare_bench(prev, cur)
        assert [d.status for d in report.deltas] == ["flat"]
        assert report.deltas[0].margin == pytest.approx(0.30)
        # Beyond even the noise margin it regresses again.
        worse = synthetic_bench({"a": 60_000.0})
        assert not compare_bench(prev, worse).ok

    def test_threshold_is_configurable(self):
        prev = synthetic_bench({"a": 100_000.0})
        cur = synthetic_bench({"a": 90_000.0})
        report = compare_bench(prev, cur, threshold=0.05)
        assert [d.status for d in report.deltas] == ["regression"]
        with pytest.raises(ConfigurationError):
            compare_bench(prev, cur, threshold=0.0)

    def test_disjoint_scenarios_are_skipped(self):
        prev = synthetic_bench({"a": 100_000.0, "gone": 1.0})
        cur = synthetic_bench({"a": 100_000.0, "new": 1.0})
        report = compare_bench(prev, cur)
        assert sorted(report.skipped) == ["gone", "new"]
        assert report.ok

    def test_mode_mismatch_is_flagged(self):
        prev = synthetic_bench({"a": 1.0}, mode="full")
        cur = synthetic_bench({"a": 1.0}, mode="quick")
        report = compare_bench(prev, cur)
        assert report.mode_mismatch
        assert "not like-for-like" in report.render()


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

    @pytest.mark.slow
    def test_cli_injected_regression_exits_nonzero(self, tmp_path, capsys):
        base = ["bench", "--quick", "--trials", "1", "--scenario",
                "exerciser-1cpu", "--skip-overhead", "--out-dir",
                str(tmp_path)]
        assert main(base) == 0
        first = tmp_path / "BENCH_0001.json"
        document = json.loads(first.read_text())
        assert validate_bench(document) == []
        # Doctor the baseline to look 2x faster: the fresh rerun below
        # then measures an injected ~50% throughput regression.
        for entry in document["scenarios"].values():
            entry["median_ticks_per_second"] *= 2
            for trial in entry["trials"]:
                trial["ticks_per_second"] *= 2
        first.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(base + ["--compare"]) == 1
        out = capsys.readouterr().out
        assert "regression" in out
        assert (tmp_path / "BENCH_0002.json").exists()

    def test_cli_compare_without_previous_is_ok(self, tmp_path, capsys):
        # table1-sweep quick with 1 trial is the cheapest real scenario
        # combination that still exercises the full write path.
        code = main(["bench", "--quick", "--trials", "1", "--scenario",
                     "table1-sweep", "--skip-overhead", "--out-dir",
                     str(tmp_path), "--compare"])
        assert code == 0
        assert "no previous BENCH" in capsys.readouterr().out

    def test_cli_rejects_unknown_scenario(self, tmp_path, capsys):
        code = main(["bench", "--scenario", "does-not-exist",
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "unknown bench scenario" in capsys.readouterr().err
