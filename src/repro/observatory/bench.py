"""The continuous benchmark harness behind ``firefly-sim bench``.

Runs a pinned suite of canonical scenarios — the Table 2 exerciser at
1 and 5 CPUs, a Table 1 synthetic sweep, and a protocol comparison —
over repeated seeded trials, measuring both *simulated* metrics (bus
load, TPI, miss rate) and *host* throughput (simulated cycles per wall
second).  Results land in ``BENCH_<n>.json`` at the repo root so every
future PR can answer "did the simulator get slower?" with
:func:`compare_bench`, a noise-aware regression detector
(median-of-trials, margin widened by the observed trial spread).

The harness also guards the observatory's own cost: the ``overhead``
block times a scenario with telemetry probes attached-then-detached
against a plain baseline, verifying that *disabled* span tracing stays
within a small wall-clock budget (the ``probe.active`` dead-branch
contract of :mod:`repro.telemetry`).

Wall-clock timing is deliberate here and nowhere else in the package;
the simulation-safety linter exempts the marked lines.
"""

from __future__ import annotations

import json
import platform
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

from repro.analytic.queueing import AnalyticParameters, FireflyAnalyticModel
from repro.common.errors import ConfigurationError
from repro.common.events import Simulator
from repro.common.provenance import provenance_stamp
from repro.common.rng import RandomStream
from repro.system import FireflyConfig, FireflyMachine
from repro.system.scenario import Horizon, Scenario
from repro.telemetry.probe import NULL_PROBE, TelemetryHub
from repro.telemetry.instrument import attach_kernel
from repro.workloads.threads_exerciser import ExerciserParams, build_exerciser

BENCH_SCHEMA = "firefly-bench/1"
BENCH_PATTERN = re.compile(r"^BENCH_(\d{4})\.json$")

#: Seeds for repeated trials, in order; trial i uses TRIAL_SEEDS[i].
TRIAL_SEEDS = (1987, 1988, 1989, 1990, 1991)

#: Wall-clock budget for disabled-tracing overhead (fraction over baseline).
OVERHEAD_BUDGET = 0.02

#: Wall-clock budget for the always-on flight recorder (fraction over
#: baseline).  The recorder keeps only the low-rate categories live, so
#: it shares the 2% envelope of the disabled path.
RECORDER_BUDGET = 0.02

#: Default regression threshold for :func:`compare_bench`.
DEFAULT_THRESHOLD = 0.20


def _now() -> float:
    return time.perf_counter()  # lint: allow(V102)


# ---------------------------------------------------------------------------
# pinned scenarios


def _run_exerciser(processors: int, threads: int, horizon: Horizon,
                   seed: int) -> Tuple[int, Dict]:
    kernel = build_exerciser(processors, ExerciserParams(threads=threads),
                             seed=seed)
    metrics = kernel.run(warmup_cycles=horizon.warmup,
                         measure_cycles=horizon.measure)
    return kernel.machine.sim.now, {
        "bus_load": metrics.bus_load,
        "mean_tpi": metrics.mean_tpi,
        "mean_miss_rate": metrics.mean_miss_rate,
        "mean_cpu_krate": metrics.mean_cpu_krate,
        "dirty_fraction": metrics.dirty_fraction,
    }


def _exerciser_runner(processors: int, threads: int):
    def run(scenario: Scenario, horizon: Horizon, seed: int):
        return _run_exerciser(processors, threads, horizon, seed)
    return run


def _table1_runner(scenario: Scenario, horizon: Horizon,
                   seed: int) -> Tuple[int, Dict]:
    """Synthetic machines at the Table 1 operating points.

    Each processor count runs the calibrated synthetic workload; the
    recorded residual is measured bus load minus the analytic
    prediction at the paper's parameters — the simulator-side version
    of the Table 1 column.
    """
    counts = (2, 4) if horizon is scenario.quick else (2, 4, 6)
    model = FireflyAnalyticModel(AnalyticParameters())
    cycles = 0
    metrics: Dict = {"processor_counts": list(counts)}
    for processors in counts:
        machine = FireflyMachine(FireflyConfig(processors=processors,
                                               seed=seed))
        result = machine.run(warmup_cycles=horizon.warmup,
                             measure_cycles=horizon.measure)
        cycles += machine.sim.now
        predicted = model.load_for_processors(processors)
        metrics[f"np{processors}.bus_load"] = result.bus_load
        metrics[f"np{processors}.load_residual"] = (result.bus_load
                                                    - predicted)
    return cycles, metrics


def _protocol_runner(scenario: Scenario, horizon: Horizon,
                     seed: int) -> Tuple[int, Dict]:
    """Firefly vs write-through on the same 4-CPU synthetic workload."""
    cycles = 0
    metrics: Dict = {}
    for protocol in ("firefly", "write-through"):
        machine = FireflyMachine(FireflyConfig(processors=4,
                                               protocol=protocol,
                                               seed=seed))
        result = machine.run(warmup_cycles=horizon.warmup,
                             measure_cycles=horizon.measure)
        cycles += machine.sim.now
        key = protocol.replace("-", "_")
        metrics[f"{key}.bus_load"] = result.bus_load
        metrics[f"{key}.mean_tpi"] = result.mean_tpi
    if metrics["write_through.bus_load"] > 0:
        metrics["load_ratio"] = (metrics["firefly.bus_load"]
                                 / metrics["write_through.bus_load"])
    return cycles, metrics


def _chaos_smoke_runner(scenario: Scenario, horizon: Horizon,
                        seed: int) -> Tuple[int, Dict]:
    """A two-scenario chaos campaign, timed like any other benchmark.

    Keeps fault-injection on the continuous-benchmark radar: a
    regression in recovery machinery (retry storms, audit cost, offline
    flush) shows up as a throughput drop here before anyone runs the
    full ``firefly-sim chaos`` suite.  Horizons are owned by the chaos
    scenarios themselves; this runner only picks quick vs full.

    Imported lazily: ``repro.faults.chaos`` imports observatory
    modules, so a module-level import would be circular.
    """
    from repro.faults.chaos import run_campaign

    report = run_campaign(seed=seed, quick=horizon is scenario.quick,
                          scenarios=["bus-parity", "cpu-offline"])
    counts = report.fault_counts()
    metrics: Dict = {
        "scenarios_ok": sum(1 for o in report.outcomes if o.ok),
        "scenarios_run": len(report.outcomes),
        "faults_injected": counts["injected"],
        "faults_detected": counts["detected"],
        "faults_recovered": counts["recovered"],
    }
    for outcome in report.outcomes:
        prefix = outcome.name.replace("-", "_")
        for key in ("degradation.tpi_pct", "degradation.bus_load_pct"):
            if key in outcome.metrics:
                metrics[f"{prefix}.{key}"] = outcome.metrics[key]
    return report.total_cycles, metrics


def _serve_smoke_runner(scenario: Scenario, horizon: Horizon,
                        seed: int) -> Tuple[int, Dict]:
    """A two-scenario serving campaign, timed like any other benchmark.

    Keeps the resilience layer on the continuous-benchmark radar: a
    regression in the serving path (retry bookkeeping, breaker checks,
    hedge forking) shows up as a throughput drop here before anyone
    runs the full ``firefly-sim serve`` suite.  Horizons are owned by
    the serve scenarios themselves; this runner only picks quick vs
    full.

    Imported lazily: ``repro.serving.engine`` imports observatory
    modules, so a module-level import would be circular.
    """
    from repro.serving.engine import run_serve_campaign

    report = run_serve_campaign(
        seed=seed, quick=horizon is scenario.quick,
        scenarios=["steady-poisson", "latency-under-chaos"])
    totals = report.totals()
    metrics: Dict = {
        "scenarios_ok": sum(1 for o in report.outcomes if o.ok),
        "scenarios_run": len(report.outcomes),
        "calls": totals["calls"],
        "calls_ok": totals["ok"],
        "shed": totals["shed"],
        "retries": totals["retries"],
    }
    for outcome in report.outcomes:
        prefix = outcome.name.replace("-", "_")
        for key, value in outcome.degradation.items():
            metrics[f"{prefix}.degradation.{key}"] = value
    cycles = sum(outcome.total_cycles for outcome in report.outcomes)
    return cycles, metrics


def _core_microbench_runner(scenario: Scenario, horizon: Horizon,
                            seed: int) -> Tuple[int, Dict]:
    """Scheduler-only microbenchmark: the event core with no models.

    Nothing here touches caches, buses or telemetry — the run is pure
    kernel traffic shaped like the models generate it: a dense
    population of small fixed-delay tickers (the dominant event class),
    priority-arbitrated resource contention (the MBus pattern), and a
    handful of far-future sleepers that force the wheel's overflow
    path.  Its ticks/s therefore isolates the event wheel, the layer an
    event-core regression would slow.  Its metrics (events scheduled,
    grants, queue waits) depend only on pop order, so the equivalence
    tests also run it on the heap oracle and require equal metrics.
    """
    sim = Simulator()
    rng = RandomStream(seed, "core.microbench")
    delays = (1, 2, 3, 5, 8, 13, 21, 34)

    def ticker(steps):
        while True:
            for step in steps:
                yield sim.timeout(step)

    def contender(resource, priority, gap, cell):
        # cell[0] is this very Process, filled in right after
        # sim.process() returns — release() must name the holder.
        while True:
            yield resource.acquire(priority=priority)
            yield sim.timeout(2)
            resource.release(cell[0])
            yield sim.timeout(gap)

    def sleeper(period):
        while True:
            yield sim.timeout(period)

    for i in range(256):
        steps = tuple(rng.choice(delays) for _ in range(4))
        sim.process(ticker(steps), name=f"tick{i}")
    resources = [sim.resource(f"res{r}") for r in range(4)]
    for i in range(64):
        cell: List = []
        gen = contender(resources[i % 4], i & 7, 1 + (i & 3), cell)
        cell.append(sim.process(gen, name=f"cont{i}"))
    for i in range(8):
        sim.process(sleeper(2000 + 500 * i), name=f"sleep{i}")
    sim.run_until(horizon.total)
    metrics: Dict = {
        "events_scheduled": sim._seq,
        "grants": sum(r.grants for r in resources),
        "total_wait": sum(r.total_wait for r in resources),
        "live_processes": len(list(sim.blocked_processes())),
    }
    return sim.now, metrics


def _vector_stat_runner(scenario: Scenario, horizon: Horizon,
                        seed: int) -> Tuple[int, Dict]:
    """The vectorized statistical mode at Table 1 processor counts.

    ``horizon.measure`` is the per-CPU instruction budget; the reported
    cycles are the simulated ticks the statistics cover (instructions x
    TPI), making ticks/s directly comparable with the coroutine
    scenarios it replaces for pure (M, D, S) runs.  Imported lazily:
    the vectorized mode lives in :mod:`repro.trace`, which benches
    must not pay for unless this scenario is selected.
    """
    from repro.trace.vectorized import run_vectorized

    counts = (2, 4) if horizon is scenario.quick else (2, 4, 6)
    cycles = 0
    metrics: Dict = {"processor_counts": list(counts)}
    for processors in counts:
        result = run_vectorized(processors, horizon.measure, seed)
        cycles += result.ticks
        metrics[f"np{processors}.bus_load"] = result.bus_load
        metrics[f"np{processors}.mean_tpi"] = result.mean_tpi
        metrics[f"np{processors}.miss_rate"] = result.miss_rate
        metrics["backend"] = result.backend
    return cycles, metrics


#: The pinned suite.  Each runner returns ``(simulated_cycles, metrics)``,
#: metrics being a flat dict of JSON-safe simulated measurements.
SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("exerciser-1cpu",
             "Threads exerciser, 1 CPU x 8 threads (Table 2 left column)",
             full=Horizon(50_000, 150_000), quick=Horizon(20_000, 60_000),
             runner=_exerciser_runner(1, 8)),
    Scenario("exerciser-5cpu",
             "Threads exerciser, 5 CPUs x 16 threads (Table 2 right column)",
             full=Horizon(50_000, 150_000), quick=Horizon(20_000, 60_000),
             runner=_exerciser_runner(5, 16)),
    Scenario("table1-sweep",
             "Synthetic workload at Table 1 processor counts vs the model",
             full=Horizon(30_000, 60_000), quick=Horizon(15_000, 30_000),
             runner=_table1_runner),
    Scenario("protocol-comparison",
             "firefly vs write-through coherence on 4 CPUs",
             full=Horizon(30_000, 60_000), quick=Horizon(15_000, 30_000),
             runner=_protocol_runner),
    Scenario("chaos-smoke",
             "fault-injection campaign: bus parity + CPU offline recovery",
             full=Horizon(10_000, 90_000), quick=Horizon(5_000, 45_000),
             runner=_chaos_smoke_runner),
    Scenario("serve-smoke",
             "resilient serving: steady Poisson + latency under chaos",
             full=Horizon(150_000, 1_200_000),
             quick=Horizon(60_000, 400_000),
             runner=_serve_smoke_runner),
    Scenario("core-microbench",
             "scheduler-only event-core microbenchmark (no models)",
             full=Horizon(0, 20_000), quick=Horizon(0, 5_000),
             runner=_core_microbench_runner),
    Scenario("vector-stat",
             "vectorized statistical mode at Table 1 processor counts",
             full=Horizon(0, 400_000), quick=Horizon(0, 100_000),
             runner=_vector_stat_runner),
)


def scenario_names() -> List[str]:
    return [scenario.name for scenario in SCENARIOS]


# ---------------------------------------------------------------------------
# running the suite


@dataclass(frozen=True)
class Trial:
    """One timed run of one scenario."""

    seed: int
    cycles: int
    wall_seconds: float
    ticks_per_second: float

    def to_dict(self) -> Dict:
        return {"seed": self.seed, "cycles": self.cycles,
                "wall_seconds": self.wall_seconds,
                "ticks_per_second": self.ticks_per_second}


@dataclass
class ScenarioResult:
    """All trials of one scenario plus the canonical-seed metrics."""

    scenario: Scenario
    trials: List[Trial] = field(default_factory=list)
    metrics: Dict = field(default_factory=dict)

    @property
    def median_ticks_per_second(self) -> float:
        return median(t.ticks_per_second for t in self.trials)

    @property
    def noise(self) -> float:
        """Trial spread: (max - min) / median of ticks/sec."""
        rates = [t.ticks_per_second for t in self.trials]
        mid = median(rates)
        if mid == 0:
            return 0.0
        return (max(rates) - min(rates)) / mid

    def to_dict(self) -> Dict:
        return {
            "description": self.scenario.description,
            "trials": [t.to_dict() for t in self.trials],
            "median_ticks_per_second": self.median_ticks_per_second,
            "noise": self.noise,
            "metrics": self.metrics,
        }


# -- disabled-tracing overhead guard ----------------------------------------


def _overhead_run(attach: bool, horizon: Horizon, seed: int) -> float:
    """Wall-clock of one exerciser run; probes attached then detached.

    ``attach=True`` exercises the *disabled* configuration every user
    gets after telemetry teardown: probes were live once, then restored
    to ``NULL_PROBE``, so only the dead ``probe.active`` branches
    remain.  Any wall-clock gap vs the never-attached baseline is
    instrumentation overhead that escaped the disabled path.
    """
    kernel = build_exerciser(2, ExerciserParams(threads=8), seed=seed)
    if attach:
        hub = TelemetryHub(kernel.sim, max_events=0)
        attach_kernel(hub, kernel)
        kernel.probe = kernel.scheduler.probe = NULL_PROBE
        machine = kernel.machine
        machine.probe = machine.mbus.probe = NULL_PROBE
        for cache in machine.caches:
            cache.probe = NULL_PROBE
        if machine.qbus is not None:
            machine.qbus.probe = NULL_PROBE
    start = _now()
    kernel.run(warmup_cycles=horizon.warmup, measure_cycles=horizon.measure)
    return _now() - start


def _recorder_run(horizon: Horizon, seed: int) -> float:
    """Wall-clock of one exerciser run with the flight recorder live.

    This is the always-on configuration: the recorder's own streaming
    hub with only the low-rate categories enabled, events flowing into
    the bounded ring for the whole run.
    """
    from repro.causal.recorder import FlightRecorder

    kernel = build_exerciser(2, ExerciserParams(threads=8), seed=seed)
    recorder = FlightRecorder(kernel)
    start = _now()
    kernel.run(warmup_cycles=horizon.warmup, measure_cycles=horizon.measure)
    elapsed = _now() - start
    recorder.detach()
    return elapsed


def measure_overhead(quick: bool = False,
                     budget: float = OVERHEAD_BUDGET,
                     recorder_budget: float = RECORDER_BUDGET) -> Dict:
    """Minimum disabled/baseline wall-clock ratio over interleaved reps.

    The gate statistic is the *minimum* per-rep ratio, not the median:
    disabled-tracing overhead is a fixed cost that can only add time,
    while host noise (scheduler preemption, frequency scaling) inflates
    either side of a rep by several percent.  The smallest observed
    ratio is therefore the tightest upper bound on the true overhead a
    finite sample provides — a median-based 2% gate flakes on any
    shared host whose noise floor exceeds the budget.
    """
    horizon = Horizon(10_000, 50_000) if quick else Horizon(20_000, 100_000)
    reps = 3 if quick else 5
    ratios = []
    recorder_ratios = []
    for rep in range(reps):
        seed = TRIAL_SEEDS[rep % len(TRIAL_SEEDS)]
        baseline = _overhead_run(False, horizon, seed)
        disabled = _overhead_run(True, horizon, seed)
        recording = _recorder_run(horizon, seed)
        if baseline > 0:
            ratios.append(disabled / baseline)
            recorder_ratios.append(recording / baseline)
    ratio = min(ratios) if ratios else 1.0
    recorder_ratio = min(recorder_ratios) if recorder_ratios else 1.0
    return {
        "scenario": "exerciser 2 CPUs x 8 threads",
        "reps": reps,
        "cycles_per_run": horizon.total,
        "disabled_ratio": ratio,
        "budget": budget,
        "recorder_ratio": recorder_ratio,
        "recorder_budget": recorder_budget,
        "recorder_ok": recorder_ratio <= 1.0 + recorder_budget,
        "ok": (ratio <= 1.0 + budget
               and recorder_ratio <= 1.0 + recorder_budget),
    }


# ---------------------------------------------------------------------------
# BENCH files


def _trial_count(quick: bool, trials: Optional[int]) -> int:
    count = trials if trials is not None else (2 if quick else 3)
    if count < 1:
        raise ConfigurationError(f"trials must be >= 1, got {count}")
    if count > len(TRIAL_SEEDS):
        raise ConfigurationError(
            f"at most {len(TRIAL_SEEDS)} trials are pinned, got {count}")
    return count


def run_suite(quick: bool = False, trials: Optional[int] = None,
              scenarios: Optional[List[str]] = None,
              skip_overhead: bool = False,
              jobs: int = 1,
              progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Run the pinned suite and return the BENCH document.

    The (scenario x trial) grid is one ``bench`` trial group run through
    :mod:`repro.observatory.trials` — in-process at ``jobs=1``, fanned
    out over worker processes above — so the document's simulated
    content is identical at any job count; only the wall-clock fields
    differ (they describe the host, and a loaded host at ``jobs=N`` is
    a different host).  Metrics come from each scenario's first trial.
    """
    from repro.observatory.trials import (expand_group, run_trials,
                                          validate_group)

    count = _trial_count(quick, trials)
    group = validate_group({"kind": "bench", "scenarios": scenarios or None,
                            "quick": quick,
                            "seeds": list(TRIAL_SEEDS[:count])}, "bench")
    by_name = {scenario.name: scenario for scenario in SCENARIOS}
    results = {name: ScenarioResult(by_name[name])
               for name in group["scenarios"]}

    def collect(trial, record: Dict) -> None:
        result = results[trial.params["scenario"]]
        name = result.scenario.name
        if not result.trials:
            result.metrics = record["metrics"]
            if progress is not None:
                progress(f"{name}: {result.scenario.description}")
        result.trials.append(Trial(record["seed"], record["cycles"],
                                   record["wall_seconds"],
                                   record["ticks_per_second"]))
        if progress is not None:
            progress(f"  {name} trial {len(result.trials)}/{count}: "
                     f"{record['ticks_per_second'] / 1e3:.0f}K ticks/s")

    document: Dict = {
        "schema": BENCH_SCHEMA,
        "mode": "quick" if quick else "full",
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        # Provenance (PR 6): which revision produced this document and
        # a content hash of the suite configuration.  Absent from
        # BENCH files written before the stamp existed; every reader
        # tolerates that.
        "provenance": provenance_stamp({
            "mode": "quick" if quick else "full",
            "trials": trials,
            "scenarios": group["scenarios"],
            "skip_overhead": skip_overhead,
        }, schema=BENCH_SCHEMA),
        "scenarios": {},
        "overhead": None,
    }
    run_trials(expand_group(group, ()), jobs=jobs, on_result=collect)
    document["scenarios"] = {name: result.to_dict()
                             for name, result in results.items()}
    if not skip_overhead:
        if progress is not None:
            progress("overhead: disabled-tracing wall-clock guard")
        document["overhead"] = measure_overhead(quick=quick)
    return document


def validate_bench(document: Dict) -> List[str]:
    """Structural problems with a BENCH document ([] when valid)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    if document.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {document.get('schema')!r}, "
                        f"expected {BENCH_SCHEMA!r}")
    if document.get("mode") not in ("full", "quick"):
        problems.append("mode must be 'full' or 'quick'")
    scenarios = document.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        problems.append("scenarios must be a non-empty object")
        scenarios = {}
    for name, entry in scenarios.items():
        if not isinstance(entry, dict):
            problems.append(f"{name}: entry is not an object")
            continue
        trials = entry.get("trials")
        if not isinstance(trials, list) or not trials:
            problems.append(f"{name}: trials must be a non-empty list")
        else:
            for i, trial in enumerate(trials):
                for key in ("seed", "cycles", "wall_seconds",
                            "ticks_per_second"):
                    if not isinstance(trial.get(key), (int, float)):
                        problems.append(f"{name}: trial {i} missing {key}")
        for key in ("median_ticks_per_second", "noise"):
            if not isinstance(entry.get(key), (int, float)):
                problems.append(f"{name}: missing numeric {key}")
        if not isinstance(entry.get("metrics"), dict):
            problems.append(f"{name}: metrics must be an object")
        elif not entry["metrics"]:
            problems.append(f"{name}: metrics is empty")
    overhead = document.get("overhead")
    if overhead is not None:
        if not isinstance(overhead, dict):
            problems.append("overhead must be an object or null")
        else:
            for key in ("disabled_ratio", "budget", "ok"):
                if key not in overhead:
                    problems.append(f"overhead: missing {key}")
    # Provenance is optional — BENCH files predating the stamp carry
    # none — but when present it must at least be an object.
    provenance = document.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        problems.append("provenance must be an object when present")
    return problems


def bench_files(directory: Path) -> List[Path]:
    """Existing BENCH_<n>.json files, ordered by index."""
    found = []
    for path in directory.iterdir():
        match = BENCH_PATTERN.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return [path for _, path in sorted(found)]


def next_bench_path(directory: Path) -> Path:
    """The path the next BENCH file should be written to."""
    existing = bench_files(directory)
    if not existing:
        return directory / "BENCH_0001.json"
    last = int(BENCH_PATTERN.match(existing[-1].name).group(1))
    return directory / f"BENCH_{last + 1:04d}.json"


def write_bench(document: Dict, directory: Path) -> Path:
    """Validate and write the next BENCH_<n>.json; returns its path."""
    problems = validate_bench(document)
    if problems:
        raise ConfigurationError(
            "refusing to write an invalid BENCH document: "
            + "; ".join(problems))
    path = next_bench_path(directory)
    if path.exists():
        # next_bench_path always indexes past the existing files, so
        # hitting this means two writers raced for the same slot;
        # refuse rather than clobber a result that was just produced.
        raise ConfigurationError(
            f"refusing to overwrite {path}; another bench run claimed "
            f"this index concurrently — rerun to take the next slot")
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: Path) -> Dict:
    """Load and validate a BENCH file."""
    document = json.loads(path.read_text())
    problems = validate_bench(document)
    if problems:
        raise ConfigurationError(
            f"{path} is not a valid BENCH file: " + "; ".join(problems))
    return document


# ---------------------------------------------------------------------------
# regression detection


@dataclass(frozen=True)
class ScenarioDelta:
    """Throughput movement of one scenario between two BENCH files."""

    name: str
    previous: float
    current: float
    ratio: float
    margin: float
    status: str  # "regression" | "improvement" | "flat"

    def to_dict(self) -> Dict:
        return {"name": self.name, "previous": self.previous,
                "current": self.current, "ratio": self.ratio,
                "margin": self.margin, "status": self.status}


@dataclass(frozen=True)
class CompareReport:
    """The regression detector's verdict over all shared scenarios."""

    deltas: List[ScenarioDelta]
    skipped: List[str]
    mode_mismatch: bool

    @property
    def regressions(self) -> List[ScenarioDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        from repro.reporting import Column, TextTable

        table = TextTable([
            Column("scenario", align_left=True),
            Column("prev ticks/s", ",.0f"), Column("cur ticks/s", ",.0f"),
            Column("ratio", ".3f"), Column("margin", ".0%"),
            Column("status", align_left=True)])
        for delta in self.deltas:
            table.add_row(delta.name, delta.previous, delta.current,
                          delta.ratio, delta.margin, delta.status)
        lines = [table.render()]
        if self.skipped:
            lines.append("skipped (not in both files): "
                         + ", ".join(self.skipped))
        if self.mode_mismatch:
            lines.append("warning: comparing a quick run against a full "
                         "run; throughput is not like-for-like")
        lines.append("bench compare: "
                     + ("OK" if self.ok
                        else f"{len(self.regressions)} regression(s)"))
        return "\n".join(lines)


def compare_bench(previous: Dict, current: Dict,
                  threshold: float = DEFAULT_THRESHOLD) -> CompareReport:
    """Noise-aware throughput comparison of two BENCH documents.

    A scenario regresses when its median ticks/sec falls by more than
    the margin — the regression ``threshold`` widened to the larger of
    the two runs' observed trial noise, so a machine whose trials vary
    by 30% cannot produce a spurious 20% "regression".
    """
    if threshold <= 0:
        raise ConfigurationError(f"threshold must be positive, "
                                 f"got {threshold}")
    deltas: List[ScenarioDelta] = []
    skipped: List[str] = []
    prev_scenarios = previous.get("scenarios", {})
    cur_scenarios = current.get("scenarios", {})
    for name in sorted(set(prev_scenarios) | set(cur_scenarios)):
        if name not in prev_scenarios or name not in cur_scenarios:
            skipped.append(name)
            continue
        prev, cur = prev_scenarios[name], cur_scenarios[name]
        before = prev["median_ticks_per_second"]
        after = cur["median_ticks_per_second"]
        margin = max(threshold, prev.get("noise", 0.0),
                     cur.get("noise", 0.0))
        ratio = after / before if before > 0 else float("inf")
        if ratio < 1.0 - margin:
            status = "regression"
        elif ratio > 1.0 + margin:
            status = "improvement"
        else:
            status = "flat"
        deltas.append(ScenarioDelta(name, before, after, ratio,
                                    margin, status))
    return CompareReport(
        deltas=deltas, skipped=skipped,
        mode_mismatch=previous.get("mode") != current.get("mode"))
