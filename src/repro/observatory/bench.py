"""The pinned scenario suite and overhead gates of ``firefly-sim bench``.

Runs a pinned suite of canonical scenarios — the Table 2 exerciser at
1 and 5 CPUs, a Table 1 synthetic sweep and the event core — once each
at :data:`SEED`, and writes ``BENCH_<n>.json``.  Their *simulated*
metrics (bus load, TPI, miss rate) are drift canaries: at a fixed seed
they must not move.  Nothing here times a scenario; the repository's
speed instrument is ``fireflybench/``, and ``scripts/ab.py`` runs its
parent/change A/B protocol.

The harness also gates the observatory's own cost: the ``overhead``
block pairs runs of a bare exerciser with runs of the same exerciser
under dark probes (the ``probe.active`` dead-branch contract of
:mod:`repro.telemetry`) and under the always-on flight recorder, and
fails a gate whose lower bound on the median ratio exceeds the budget.
The gates time the process's CPU, not the wall clock: the simulator
is single-threaded and CPU-bound, so the cost of observing is CPU
work, while on a shared host the wall clock also counts the time the
process waits for a core, and that waiting let a 30% cost through.

Host timing is deliberate here and nowhere else in the package; the
simulation-safety linter exempts the marked line.
"""

from __future__ import annotations

import json
import platform
import re
import time
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
from repro.telemetry.probe import TelemetryHub
from repro.telemetry.instrument import attach_kernel
from repro.workloads.threads_exerciser import ExerciserParams, build_exerciser

BENCH_SCHEMA = "firefly-bench/2"
BENCH_PATTERN = re.compile(r"^BENCH_(\d{4})\.json$")

#: Schemas :func:`validate_bench` accepts: the current one, and
#: ``/1``, whose entries also carried per-trial host timings.
READABLE_SCHEMAS = ("firefly-bench/1", BENCH_SCHEMA)

#: The seed of every suite run and every overhead-gate run.
SEED = 1987

#: Budget of each overhead gate (fraction of CPU time over baseline).
OVERHEAD_BUDGET = 0.02

#: The exerciser horizon of every overhead run, in quick and full mode.
OVERHEAD_HORIZON = Horizon(10_000, 50_000)

#: Paired runs per overhead gate.
OVERHEAD_PAIRS = 16

#: A gate reads the OVERHEAD_RANK-th smallest of its OVERHEAD_PAIRS
#: paired ratios.  That order statistic exceeds the median ratio only
#: when 3 or fewer of the 16 ratios fall below the median, which has
#: probability P(Bin(16, 1/2) <= 3) ~ 1.1%: it is a distribution-free
#: lower bound on the median, and it needs no random draws.
OVERHEAD_RANK = 4


def _cpu_now() -> float:
    return time.process_time()  # lint: allow(V102)


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


def _core_microbench_runner(scenario: Scenario, horizon: Horizon,
                            seed: int) -> Tuple[int, Dict]:
    """Scheduler-only microbenchmark: the event core with no models.

    Nothing here touches caches, buses or telemetry — the run is pure
    kernel traffic shaped like the models generate it: a dense
    population of small fixed-delay tickers (the dominant event class),
    priority-arbitrated resource contention (the MBus pattern), and a
    handful of far-future sleepers that force the wheel's overflow
    path.  Its metrics (events scheduled, grants, queue waits) depend
    only on pop order, so they pin the event wheel's behaviour, and the
    equivalence tests also run it on the heap oracle and require equal
    metrics.
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
    Scenario("core-microbench",
             "scheduler-only event-core microbenchmark (no models)",
             full=Horizon(0, 20_000), quick=Horizon(0, 5_000),
             runner=_core_microbench_runner),
)


def scenario_names() -> List[str]:
    return [scenario.name for scenario in SCENARIOS]


# -- observability overhead gates --------------------------------------------


def _exerciser():
    return build_exerciser(2, ExerciserParams(threads=8), seed=SEED)


def _timed(kernel) -> float:
    start = _cpu_now()
    kernel.run(warmup_cycles=OVERHEAD_HORIZON.warmup,
               measure_cycles=OVERHEAD_HORIZON.measure)
    return _cpu_now() - start


def _bare_run() -> float:
    """CPU time of one exerciser run with no telemetry: the baseline."""
    return _timed(_exerciser())


def _disabled_run() -> float:
    """CPU time of one exerciser run on a hub nobody subscribes to.

    Every probe is attached to a streaming hub and, with no subscriber
    reading any category, every probe stays dark: the real disabled
    path, where only the ``probe.active`` branches remain.  Any gap to
    the bare baseline is instrumentation cost that escaped that branch.
    """
    kernel = _exerciser()
    attach_kernel(TelemetryHub(kernel.sim, max_events=0), kernel)
    return _timed(kernel)


def _recorder_run() -> float:
    """CPU time of one exerciser run with the flight recorder live.

    This is the always-on configuration: the recorder's own streaming
    hub, on which only the low-rate categories it reads are live,
    events flowing into the bounded ring for the whole run.
    """
    from repro.causal.recorder import FlightRecorder

    kernel = _exerciser()
    FlightRecorder(kernel)
    return _timed(kernel)


def _paired_ratios(measured: Callable[[], float]) -> List[float]:
    """``measured`` over bare CPU time, one ratio per pair.

    One warmup run of ``measured`` is discarded first.  The pairs
    alternate which configuration runs first, so host drift across a
    pair (frequency scaling, a neighbour's load) favours neither side.
    """
    measured()
    ratios = []
    for pair in range(OVERHEAD_PAIRS):
        if pair % 2:
            cost = measured()
            base = _bare_run()
        else:
            base = _bare_run()
            cost = measured()
        ratios.append(cost / base)
    return ratios


def measure_overhead() -> Dict:
    """The disabled-telemetry and flight-recorder overhead gates.

    Each gate times :data:`OVERHEAD_PAIRS` pairs of its configuration
    and the bare baseline, and records the median paired ratio and the
    :data:`OVERHEAD_RANK`-th smallest ratio: a distribution-free lower
    bound on the median.  A gate fails when even that bound exceeds
    ``1 + OVERHEAD_BUDGET``; ``ok`` says both gates passed.
    """
    block: Dict = {"scenario": "exerciser 2 CPUs x 8 threads",
                   "cycles_per_run": OVERHEAD_HORIZON.total,
                   "pairs": OVERHEAD_PAIRS, "budget": OVERHEAD_BUDGET}
    for gate, run in (("disabled", _disabled_run),
                      ("recorder", _recorder_run)):
        ratios = sorted(_paired_ratios(run))
        block[f"{gate}_ratio"] = median(ratios)
        block[f"{gate}_bound"] = ratios[OVERHEAD_RANK - 1]
    block["ok"] = all(passed for passed, _ in overhead_verdicts(block))
    return block


def overhead_verdicts(block: Dict) -> List[Tuple[bool, str]]:
    """(passed, line) per gate of a measured ``overhead`` block."""
    verdicts = []
    for gate in ("disabled", "recorder"):
        ratio, bound = block[f"{gate}_ratio"], block[f"{gate}_bound"]
        verdicts.append((bound <= 1.0 + block["budget"],
                         f"{gate} overhead gate: median ratio {ratio:.3f}, "
                         f"bound {bound:.3f} over {block['pairs']} pairs "
                         f"(budget {block['budget']:.0%})"))
    return verdicts


# ---------------------------------------------------------------------------
# BENCH files


def run_suite(quick: bool = False, scenarios: Optional[List[str]] = None,
              skip_overhead: bool = False,
              jobs: int = 1,
              progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Run the pinned suite and return the BENCH document.

    The scenarios are one ``bench`` trial group at :data:`SEED`, run
    through :mod:`repro.observatory.trials` — in-process at ``jobs=1``,
    fanned out over worker processes above.  Each scenario's entry is
    its trial's campaign record plus its description, so everything
    but the ``overhead`` block is identical at any job count.
    """
    from repro.observatory.trials import (expand_group, run_trials,
                                          validate_group)

    group = validate_group({"kind": "bench", "scenarios": scenarios or None,
                            "quick": quick, "seeds": [SEED]}, "bench")
    by_name = {scenario.name: scenario for scenario in SCENARIOS}
    entries: Dict = {}

    def collect(trial, record: Dict) -> None:
        scenario = by_name[trial.params["scenario"]]
        entries[scenario.name] = dict(record,
                                      description=scenario.description)
        if progress is not None:
            progress(f"{scenario.name}: {scenario.description}")

    run_trials(expand_group(group, ()), jobs=jobs, on_result=collect)
    mode = "quick" if quick else "full"
    document: Dict = {
        "schema": BENCH_SCHEMA,
        "mode": mode,
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
            "mode": mode,
            "scenarios": group["scenarios"],
            "skip_overhead": skip_overhead,
        }, schema=BENCH_SCHEMA),
        "scenarios": entries,
        "overhead": None,
    }
    if not skip_overhead:
        if progress is not None:
            progress("overhead: disabled-telemetry and flight-recorder "
                     "gates")
        document["overhead"] = measure_overhead()
    return document


def validate_bench(document: Dict) -> List[str]:
    """Structural problems with a BENCH document ([] when valid).

    Checks what every readable schema carries and the dashboard reads:
    ``/1`` entries also hold per-trial host timings, which nothing
    reads any more.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    if document.get("schema") not in READABLE_SCHEMAS:
        problems.append(f"schema is {document.get('schema')!r}, "
                        f"expected one of {', '.join(READABLE_SCHEMAS)}")
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
        if not isinstance(entry.get("description"), str):
            problems.append(f"{name}: description must be a string")
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
