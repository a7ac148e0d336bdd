"""The pinned bench canaries and the overhead gates.

The canaries' contract here is their registry: four pinned scenarios,
each with a quick horizon shorter than its full one (the quick example
campaign pins their records as golden digests).  The overhead gates'
contract, checked on injected timings: one warmup run is discarded,
pairs alternate which configuration runs first, the bound is the
4th-smallest of 16 paired ratios, a configuration 10% slower fails
while one 1% slower passes, and ``firefly-sim bench``, which takes no
options, prints one line per gate and fails naming a failing gate.
The slow mutation test proves the gates fail on real timings when
every probe is forced live.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cli import main
from repro.observatory import SCENARIOS, bench
from repro.system.scenario import Horizon
from repro.telemetry.probe import TelemetryHub

pytestmark = pytest.mark.observatory


class TestCanaries:
    def test_pinned_scenario_registry(self):
        assert [scenario.name for scenario in SCENARIOS] \
            == ["exerciser-1cpu", "exerciser-5cpu", "table1-sweep",
                "core-microbench"]
        for scenario in SCENARIOS:
            assert scenario.quick.total < scenario.full.total


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

    def test_failing_gate_fails_bench(self, monkeypatch, capsys):
        inject_timings(monkeypatch, disabled=[1.01], recorder=[1.10])
        assert main(["bench"]) == 1
        out, err = capsys.readouterr()
        assert out == ("disabled overhead gate: median ratio 1.010, "
                       "bound 1.010 over 16 pairs (budget 2%)\n")
        assert err == ("error: recorder overhead gate: median ratio "
                       "1.100, bound 1.100 over 16 pairs (budget 2%) "
                       "exceeds its budget\n")

    def test_passing_gates_pass_bench(self, monkeypatch, capsys):
        inject_timings(monkeypatch, disabled=[1.01], recorder=[1.0])
        assert main(["bench"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines() == [
            "disabled overhead gate: median ratio 1.010, bound 1.010 "
            "over 16 pairs (budget 2%)",
            "recorder overhead gate: median ratio 1.000, bound 1.000 "
            "over 16 pairs (budget 2%)"]
        assert err == ""

    def test_bench_takes_no_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--quick"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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
