"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest fireflybench -q``.
"""

from __future__ import annotations

import cProfile
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.cache.cache import SnoopyCache  # noqa: E402
from repro.serving.engine import SERVE_SCENARIOS  # noqa: E402
from repro.system import FireflyConfig, FireflyMachine  # noqa: E402

SMALL = (3_000, 9_000)


def test_every_repro_module_maps_to_exactly_one_layer():
    modules = layers.repro_modules(SRC)
    assert "repro.common.events" in modules
    unmapped = {m: layers.matching_layers(m) for m in modules
                if len(layers.matching_layers(m)) != 1}
    assert unmapped == {}


def test_every_layer_rule_claims_a_module():
    modules = layers.repro_modules(SRC)
    stale = [rule for _, rules in layers.LAYER_RULES for rule in rules
             if not any(layers._matches(rule, m) for m in modules)]
    assert stale == []


def test_code_outside_repro_is_host_except_the_random_module():
    assert layers.layer_of_module("numpy.core") == layers.HOST
    assert layers.LayerMap(SRC).layer_of_file(__file__) == layers.HOST
    assert layers.LayerMap(SRC).layer_of_file(random.__file__) == "rng"
    events = str(SRC / "repro" / "common" / "events.py")
    assert layers.LayerMap(SRC).layer_of_file(events) == "events"


class _FakeStats:
    """The ``stats`` mapping of a :class:`pstats.Stats`, hand-built."""

    def __init__(self, stats):
        self.stats = stats


def test_c_function_time_goes_to_its_callers_layers():
    events = (str(SRC / "repro" / "common" / "events.py"), 1, "drain")
    rng = (str(SRC / "repro" / "common" / "rng.py"), 1, "randint")
    refgen = (str(SRC / "repro" / "processor" / "refgen.py"), 1, "refs")
    randbelow = (random.__file__, 1, "_randbelow_with_getrandbits")
    draw = ("~", 0, "<method 'random' of '_random.Random' objects>")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    wrapper = (__file__, 1, "_counted_read_fast")
    profile = _FakeStats({
        events: (1, 1, 0.5, 1.0, {}),
        rng: (1, 1, 0.25, 0.25, {}),
        refgen: (1, 1, 0.15, 0.35, {}),
        randbelow: (1, 1, 0.05, 0.05, {rng: (1, 1, 0.05, 0.05)}),
        draw: (2, 2, 0.2, 0.2, {refgen: (2, 2, 0.2, 0.2)}),
        heappush: (3, 3, 0.4, 0.4, {events: (2, 2, 0.3, 0.3),
                                     rng: (1, 1, 0.1, 0.1)}),
        wrapper: (1, 1, 9.0, 9.0, {}),
    })
    seconds = layers.attribute_self_time(profile, layers.LayerMap(SRC),
                                         exclude=run.FastPathCounter.NAMES)
    assert seconds["events"] == pytest.approx(0.8)
    assert seconds["refgen"] == pytest.approx(0.15)
    assert seconds["rng"] == pytest.approx(0.25 + 0.05 + 0.2 + 0.1)
    assert sum(seconds.values()) == pytest.approx(1.55)


def test_sliced_run_equals_machine_run(monkeypatch):
    monkeypatch.setattr(workloads, "SLICE_CYCLES", 1_000)
    whole = FireflyMachine(FireflyConfig(processors=4, seed=11))
    expected = whole.run(warmup_cycles=SMALL[0], measure_cycles=SMALL[1])
    trial = workloads.table1_points(11, workloads.Meter(), horizon=SMALL)
    assert trial.stats["np4"]["metrics"] == expected.to_dict()
    assert trial.stats["np4"]["events_scheduled"] == whole.sim._seq


def test_table1_synthetic_reproduces_bench_0003_loads():
    """Seed 1987 at BENCH_0003's table1-sweep horizon, bit for bit."""
    trial = workloads.table1_points(1987, workloads.Meter())
    loads = [trial.stats[f"np{n}"]["metrics"]["bus_load"]
             for n in (2, 4, 6)]
    assert loads == [0.1692, 0.3092, 0.4664]
    assert trial.failures == []


def test_steady_poisson_is_firefly_sim_serve_steady_poisson():
    scenario = SERVE_SCENARIOS[0]
    assert scenario.name == "steady-poisson"
    seed = 5
    outcome = scenario.runner(scenario, scenario.quick, seed)
    trial = workloads.steady_poisson(seed, workloads.Meter())
    assert trial.stats["classes"] == outcome.classes
    assert trial.failures == []


def test_rpc_serve_draws_distinct_traffic_seeds_from_the_pool():
    pool = workloads.serve_seed_pool()
    assert len(pool) > 4 * workloads.SERVE_TRAFFIC_SEEDS
    assert not set(pool) & set(workloads.SERVE_SLO_BREACHES)
    seeds = workloads.serve_seeds(1987)
    assert seeds == workloads.serve_seeds(1987) != workloads.serve_seeds(1)
    assert len(set(seeds)) == workloads.SERVE_TRAFFIC_SEEDS
    assert set(seeds) <= set(pool)


@pytest.mark.parametrize("seed", [4, 11])
def test_offered_requests_predict_the_dispatchers(monkeypatch, seed):
    """Queueing delays only postpone arrivals, by a request or two."""
    horizon = (0, sum(workloads.SERVE_HORIZON))
    monkeypatch.setattr(workloads, "SERVE_HORIZON", horizon)
    trial = workloads.steady_poisson(seed, workloads.Meter())
    offered = sum(block["offered"]
                  for block in trial.stats["classes"].values())
    assert 0 <= workloads.offered_requests(seed) - offered <= 2


def test_rpc_serve_sums_its_runs(monkeypatch):
    monkeypatch.setattr(workloads, "SERVE_TRAFFIC_SEEDS", 2)
    trial = workloads.rpc_serve(7, workloads.Meter())
    runs = [workloads.steady_poisson(sub, workloads.Meter())
            for sub in workloads.serve_seeds(7)]
    assert trial.ticks == 2 * sum(workloads.SERVE_HORIZON)
    assert trial.failures == []
    assert trial.counts["serving.calls"] == sum(
        run.counts["serving.calls"] for run in runs)
    assert trial.counts["mbus.load"] == pytest.approx(
        sum(run.counts["mbus.load"] for run in runs) / 2)
    assert len(trial.meter.builds_norm_s) == 2


def test_traced_trial_has_identical_statistics():
    untraced = workloads.table1_points(3, workloads.Meter(), horizon=SMALL)
    profiler = cProfile.Profile()
    with run.FastPathCounter(SnoopyCache) as counter:
        traced = workloads.table1_points(
            3, workloads.Meter(profiler), horizon=SMALL)
    assert traced.digest == untraced.digest
    assert 0 < counter.completed <= traced.counts["cache.refs"]
    assert SnoopyCache.cpu_read_fast.__name__ == "cpu_read_fast"


def _ran_machine():
    machine = FireflyMachine(FireflyConfig(processors=2, seed=2))
    machine.run(warmup_cycles=SMALL[0], measure_cycles=SMALL[1])
    return machine


def test_audit_passes_on_a_real_run():
    machine = _ran_machine()
    assert workloads.audit_machine(machine, SMALL[1]) == []
    assert workloads.check_coherence(machine) == []


@pytest.mark.parametrize("mutate, expected", [
    (lambda m: m.cpus[1].stats.incr("idle_cycles", m.sim.now), "cpu1:"),
    (lambda m: m.caches[0].stats.incr("dread.hit", 2), "cache0:"),
    (lambda m: m.mbus.stats.incr("ops"), "mbus: load x window"),
    (lambda m: m.mbus.stats.incr("write.victim", 10 ** 6), "dirty victims"),
])
def test_audit_names_each_broken_identity(mutate, expected):
    machine = _ran_machine()
    mutate(machine)
    problems = workloads.audit_machine(machine, SMALL[1])
    assert len(problems) == 1 and expected in problems[0]


def test_coherence_check_names_a_violation():
    machine = _ran_machine()
    line = next(line for _, line in machine.caches[0].valid_lines()
                if not line.state.is_dirty)
    line.data[0] ^= 1  # a clean copy that no longer matches memory
    found = workloads.check_coherence(machine)
    assert len(found) == 1 and found[0].startswith("coherence:")


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "fireflybench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "fireflybench/run.py", "--workload",
         "table1-vector", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_lists_the_metrics_the_driver_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
    names = [m["name"] for m in spec["per_layer"]]
    expected = ([f"{layer}.self_share" for layer in layers.LAYERS]
                + list(run.COUNT_UNITS) + [n for n, _ in run.PER_TICK]
                + ["cache.hit_ratio", "cache.fast_path_ratio"]
                + [n for n, _, _ in run.NS_PER_UNIT]
                + ["trace.overhead_ratio"])
    assert sorted(names) == sorted(expected)
