"""The deterministic parallel trial executor (repro.observatory.runner).

The load-bearing claim: ``jobs=N`` is a pure fan-out — same results,
same order, same bytes in every serialised document — and a trial that
fails (or a worker process that dies) surfaces as one clean
:class:`TrialFailure` naming the trial, never a hang or a raw child
traceback.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.faults.chaos import run_campaign
from repro.observatory.bench import run_suite
from repro.observatory.runner import TrialFailure, run_ordered, run_sweep
from repro.observatory.trials import TrialSpec, run_trial

pytestmark = pytest.mark.observatory


# Module-level so they pickle by reference into worker processes.
def _square(spec):
    return spec * spec


def _fail_on_three(spec):
    if spec == 3:
        raise ValueError("three is right out")
    return spec


def _die_on_two(spec):
    if spec == 2:
        os._exit(13)  # simulates a segfaulting / killed worker
    return spec


def _slow_square(spec):
    time.sleep(20)
    return spec * spec


class TestRunOrdered:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_in_spec_order(self, jobs):
        specs = list(range(10))
        assert run_ordered(specs, _square, jobs=jobs) \
            == [n * n for n in specs]

    def test_empty_specs(self):
        assert run_ordered([], _square, jobs=4) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_names_the_trial(self, jobs):
        with pytest.raises(TrialFailure) as exc:
            run_ordered([1, 2, 3, 4], _fail_on_three, jobs=jobs,
                        describe=lambda s: f"(scenario-x, seed {s})")
        message = str(exc.value)
        assert "(scenario-x, seed 3)" in message
        assert "ValueError" in message
        assert "three is right out" in message

    def test_dead_worker_surfaces_cleanly(self):
        """A worker process that exits hard must not hang the parent;
        the failure names the trial whose result never arrived."""
        with pytest.raises(TrialFailure) as exc:
            run_ordered([1, 2, 4], _die_on_two, jobs=2,
                        describe=lambda s: f"(chaos-y, seed {s})")
        assert "seed" in str(exc.value)
        assert "worker process died" in str(exc.value)


class TestOnResult:
    """The ``on_result`` streaming callback: delivered in spec order on
    both paths, and every completed-before-the-failure trial is seen
    even when a later trial raises — the hook the campaign ledger's
    resume guarantee stands on."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_callback_runs_in_spec_order(self, jobs):
        seen = []
        results = run_ordered(
            list(range(8)), _square, jobs=jobs,
            on_result=lambda spec, result: seen.append((spec, result)))
        assert seen == [(n, n * n) for n in range(8)]
        assert results == [n * n for n in range(8)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_completed_trials_delivered_before_failure(self, jobs):
        seen = []
        with pytest.raises(TrialFailure):
            run_ordered([1, 2, 3, 4], _fail_on_three, jobs=jobs,
                        on_result=lambda spec, result:
                        seen.append(spec))
        assert seen == [1, 2]

    def test_callback_exception_propagates(self):
        def boom(spec, result):
            raise RuntimeError("ledger disk full")

        with pytest.raises(RuntimeError, match="ledger disk full"):
            run_ordered([1, 2], _square, jobs=1, on_result=boom)


class TestKeyboardInterrupt:
    def test_ctrl_c_terminates_workers(self):
        """Ctrl-C mid-campaign must kill the worker pool, not leak
        processes that keep simulating (the pre-fix behaviour:
        ``shutdown(cancel_futures=True)`` cancels *queued* futures but
        lets running workers finish their 20-second trials).

        The timer delivers a real SIGINT to this process while four
        workers are mid-trial; the assertions are that KeyboardInterrupt
        propagates (no swallowing) and every child is reaped within a
        bounded, much-shorter-than-a-trial window.
        """
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("active_children introspection needs fork")
        before = set(multiprocessing.active_children())
        timer = threading.Timer(
            1.0, lambda: os.kill(os.getpid(), signal.SIGINT))
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_ordered(list(range(8)), _slow_square, jobs=4)
        finally:
            timer.cancel()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            leaked = [child
                      for child in multiprocessing.active_children()
                      if child not in before and child.is_alive()]
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked, f"leaked workers: {leaked}"


SWEEP_KW = dict(processor_counts=[1, 2], seeds=[1987, 1988],
                warmup=1_000, measure=4_000)


class TestByteIdentity:
    def test_sweep_jobs4_byte_identical_to_serial(self):
        serial = run_sweep(jobs=1, **SWEEP_KW)
        parallel = run_sweep(jobs=4, **SWEEP_KW)
        assert json.dumps(serial, indent=2, sort_keys=True) \
            == json.dumps(parallel, indent=2, sort_keys=True)

    def test_sweep_point_grid_order(self):
        document = run_sweep(jobs=2, **SWEEP_KW)
        assert [(p["processors"], p["seed"])
                for p in document["points"]] \
            == [(1, 1987), (1, 1988), (2, 1987), (2, 1988)]

    @pytest.mark.slow
    def test_chaos_report_byte_identical_across_jobs(self):
        kw = dict(quick=True, scenarios=["bus-parity", "cpu-offline"])
        serial = run_campaign(jobs=1, **kw)
        parallel = run_campaign(jobs=2, **kw)
        assert json.dumps(serial.to_dict(), indent=2, sort_keys=True) \
            == json.dumps(parallel.to_dict(), indent=2, sort_keys=True)
        assert serial.render() == parallel.render()

    def test_bench_simulated_content_identical_across_jobs(self):
        """Without the overhead gates a BENCH document holds no host
        timing, so it is the same document at any job count."""
        kw = dict(quick=True, scenarios=["exerciser-1cpu", "core-microbench"],
                  skip_overhead=True)
        assert run_suite(jobs=1, **kw) == run_suite(jobs=2, **kw)


class TestSweepValidation:
    def test_rejects_empty_grid(self):
        with pytest.raises(Exception):
            run_sweep(processor_counts=[], seeds=[1987])
        with pytest.raises(Exception):
            run_sweep(processor_counts=[1], seeds=[])

    def test_rejects_bad_processor_count(self):
        with pytest.raises(Exception):
            run_sweep(processor_counts=[0], seeds=[1987])

    def test_sweep_point_worker_is_self_contained(self):
        point = run_trial(TrialSpec(
            "sweep", "sweep/np1/firefly/microvax/s1987", 1987,
            {"processors": 1, "protocol": "firefly",
             "generation": "microvax", "warmup": 1_000, "measure": 4_000}))
        assert point["processors"] == 1
        assert point["seed"] == 1987
        assert 0.0 < point["bus_load"] <= 1.0
