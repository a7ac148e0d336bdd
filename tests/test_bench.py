"""The pinned benchmark suite, its BENCH files and its overhead gates.

The suite's contract: schema-valid BENCH documents at the next free
index, a pinned scenario registry, one run per scenario at the pinned
seed whose entry is the bench trial's campaign record plus its
description, and a loader that still reads the committed ``/1`` files.
The overhead gates' contract, checked on injected timings: one warmup
run is discarded, pairs alternate which configuration runs first, the
bound is the 4th-smallest of 16 paired ratios, a configuration 10%
slower fails while one 1% slower passes, and a failing gate names
itself and fails ``firefly-sim bench``.  The slow mutation test proves
the gates fail on real timings when every probe is forced live.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.observatory import (
    BENCH_SCHEMA,
    bench,
    bench_files,
    load_bench,
    next_bench_path,
    run_suite,
    scenario_names,
    validate_bench,
    write_bench,
)
from repro.observatory.bench import SCENARIOS, SEED
from repro.observatory.trials import TrialSpec, run_trial
from repro.system.scenario import Horizon
from repro.telemetry.probe import TelemetryHub

pytestmark = pytest.mark.observatory

REPO_ROOT = Path(__file__).resolve().parent.parent


def synthetic_bench(names):
    """A schema-valid BENCH document with one entry per name."""
    scenarios = {name: {"description": name, "seed": SEED,
                        "cycles": 100_000, "metrics": {"bus_load": 0.5}}
                 for name in names}
    return {"schema": BENCH_SCHEMA, "mode": "full",
            "host": {"platform": "test", "python": "3", "machine": "x"},
            "scenarios": scenarios, "overhead": None}


# -- schema validation and file handling --------------------------------


class TestBenchFiles:
    def test_synthetic_document_is_schema_valid(self):
        document = synthetic_bench(["a"])
        assert document["schema"] == "firefly-bench/2"
        assert validate_bench(document) == []

    def test_validation_catches_damage(self):
        doc = synthetic_bench(["a"])
        doc["schema"] = "nonsense/9"
        del doc["scenarios"]["a"]["description"]
        doc["scenarios"]["a"]["metrics"] = {}
        problems = validate_bench(doc)
        assert any("schema" in p for p in problems)
        assert any("description" in p for p in problems)
        assert any("metrics" in p for p in problems)

    def test_committed_version_1_files_still_load(self):
        """BENCH_0001-0003 predate the one-run entry: ``/1`` entries
        carry per-trial host timings.  The loader reads them beside
        ``/2`` documents."""
        for n in (1, 2, 3):
            document = load_bench(REPO_ROOT / f"BENCH_000{n}.json")
            assert document["schema"] == "firefly-bench/1"
            assert "trials" in document["scenarios"]["exerciser-1cpu"]

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
                                    "table1-sweep", "core-microbench"]
        for scenario in SCENARIOS:
            assert scenario.quick.total < scenario.full.total


# -- real runs ----------------------------------------------------------


class TestBenchRuns:
    def test_entry_is_the_campaign_record_plus_description(self):
        scenario = next(s for s in SCENARIOS if s.name == "core-microbench")
        document = run_suite(quick=True, scenarios=[scenario.name],
                             skip_overhead=True)
        entry = document["scenarios"][scenario.name]
        assert sorted(entry) == ["cycles", "description", "metrics", "seed"]
        record = run_trial(TrialSpec(
            "bench", f"bench/{scenario.name}/quick/s{SEED}", SEED,
            {"scenario": scenario.name, "quick": True}))
        assert entry == dict(record, description=scenario.description)
        assert entry["seed"] == SEED
        assert entry["cycles"] == scenario.quick.total
        assert entry["metrics"]["events_scheduled"] > 0

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
        assert validate_bench(dict(synthetic_bench(["a"]),
                                   overhead=block)) == []

    def test_failing_gate_fails_bench(self, tmp_path, monkeypatch, capsys):
        inject_timings(monkeypatch, disabled=[1.01], recorder=[1.10])
        code = main(["bench", "--quick", "--scenario", "core-microbench",
                     "--out-dir", str(tmp_path)])
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
