"""The benchmark's four workloads, built only through public entry points.

Each workload function performs one *trial*: it builds the simulated
system from a seed (or, with :func:`over_seeds`, from each of several
seeds drawn from it), runs it for a fixed simulated horizon, and returns a
:class:`Trial` holding the host timings, the simulated statistics (used
to prove that repeats and traced runs are bit-identical), the per-layer
work counts, the paper comparison points and any failed check.

Coroutine runs advance the simulator in fixed slices of simulated time,
timing each slice next to host-speed samples (see :mod:`hostspeed`);
slicing ``Simulator.run_until`` dispatches exactly the same events as
one call (the benchmark's tests compare the two).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analytic.queueing import PAPER_TABLE_1, AnalyticParameters
from repro.causal.assemble import RequestTracer
from repro.common.errors import CoherenceViolation
from repro.common.rng import RandomStream
from repro.common.types import MBUS_OP_CYCLES, MICROVAX_TICK_CYCLES
from repro.processor.refgen import SyntheticReferenceSource
from repro.serving.engine import SERVE_ETHERNET
from repro.serving.policies import ResilienceParams
from repro.serving.workload import (ArrivalSpec, ServerSpec, ServingWorkload,
                                    SloSpec, TierSpec, Topology)
from repro.system import CoherenceChecker, FireflyConfig, FireflyMachine
from repro.system.metrics import collect_metrics
from repro.telemetry.instrument import attach_kernel, attach_serving
from repro.telemetry.probe import TelemetryHub
from repro.trace.vectorized import run_vectorized
from repro.workloads.threads_exerciser import build_exerciser

from hostspeed import Timed

#: Table 2's five-CPU bus load, as printed (EXPERIMENTS.md, T2).
PAPER_TABLE_2_LOAD_5CPU = 0.54

#: The Table 1 operating points the table1-* workloads run.
TABLE_1_POINTS = (2, 4, 6)

#: Horizons in MBus cycles: Table 2's reproduction, BENCH_0003's
#: table1-sweep, and ``firefly-sim serve --quick`` for steady-poisson.
TABLE_2_HORIZON = (200_000, 400_000)
TABLE_1_HORIZON = (30_000, 60_000)
SERVE_HORIZON = (60_000, 400_000)

#: Seeds per table1-synthetic trial, drawn from the benchmark's seed.
SYNTHETIC_SEEDS = 4

#: steady-poisson runs per rpc-serve trial.  A run's host work follows
#: the ~23 requests its Poisson arrivals offer, so over single seeds
#: ticks per second spread 29% (IQR over median).  Runs of a stated
#: size (below) halve that, and a trial averages several.
SERVE_TRAFFIC_SEEDS = 8

#: The stated size: requests offered over a run, whose mean is 23.
SERVE_OFFERED = range(22, 25)

#: Traffic seeds checked at the commit that defined the benchmark:
#: steady-poisson passes every check at all of them but two, at which
#: it breaches its own SLO at this horizon (55: no batch request
#: completes in the window; 213: batch p99 437,894 cycles over the
#: 350,000 budget).  Those are findings about the scenario, not faults
#: of the simulator; the benchmark runs only inputs that passed.
SERVE_CHECKED_SEEDS = range(1, 361)
SERVE_SLO_BREACHES = (55, 213)

#: Per-CPU instruction budget of each vectorized operating point.
VECTOR_INSTRUCTIONS = 400_000

#: Ticks one bus operation occupies in the vectorized mode's model.
BUS_OP_TICKS = AnalyticParameters().bus_op_ticks

#: Simulated cycles per timed slice of a coroutine run.
SLICE_CYCLES = 50_000


class Meter:
    """Times one trial: each build, and the run slice by slice.

    Every timing is bracketed by calibration samples.  Builds are kept
    one by one, normalized to the reference host; the run is summed both
    as measured and normalized.  With a profiler, profiling is switched
    on around the run slices only, so the profile covers simulated work
    and not the build.
    """

    def __init__(self, profiler=None) -> None:
        self.profiler = profiler
        self.builds_norm_s: List[float] = []
        self.run_s = 0.0
        self.run_norm_s = 0.0

    def build(self, make: Callable):
        """Build a simulated system with ``make()``, timed as set-up."""
        with Timed() as timing:
            built = make()
        self.builds_norm_s.append(timing.normalized)
        return built

    def run(self, call: Callable):
        """Run one slice of simulated work, ``call()``, timed as run."""
        with Timed() as timing:
            if self.profiler is not None:
                self.profiler.enable()
            result = call()
            if self.profiler is not None:
                self.profiler.disable()
        self.run_s += timing.seconds
        self.run_norm_s += timing.normalized
        return result

    def run_until(self, sim, end: int) -> None:
        """Advance ``sim`` to ``end`` in slices of ``SLICE_CYCLES``."""
        while sim.now < end:
            target = min(sim.now + SLICE_CYCLES, end)
            self.run(lambda: sim.run_until(target))


@dataclass
class Trial:
    """One seeded build-and-run of a workload.

    ``ticks`` are the simulated MBus cycles the run covered; the meter
    holds the host timings.
    """

    ticks: int
    meter: Meter
    stats: Dict
    counts: Dict[str, float]
    paper: List[Tuple[str, float, float]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        text = json.dumps(self.stats, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @property
    def paper_load_err(self) -> Optional[float]:
        """Mean |simulated - paper| bus load over the operating points."""
        if not self.paper:
            return None
        return sum(abs(sim - ref) for _, sim, ref in self.paper) / len(
            self.paper)


# ---------------------------------------------------------------------------
# statistics, counts and checks shared by the coroutine workloads


def _total(stats, key: str) -> int:
    return stats[key].total if key in stats else 0


def _windowed(stats, key: str) -> int:
    return stats[key].windowed if key in stats else 0


def _cpu_stall(cpu) -> int:
    return (_total(cpu.stats, "bus_stall_cycles")
            + _total(cpu.stats, "sp_stalls") * cpu.timing.tick_cycles)


_CACHE_KEYS = tuple(f"{kind}.{outcome}" for kind in ("ifetch", "dread",
                                                     "dwrite")
                    for outcome in ("hit", "miss"))
_CPU_REF_KEYS = ("refs.ifetch", "refs.dread", "refs.dwrite")


def machine_stats(machine, window_cycles: int) -> Dict:
    """Every simulated statistic of one machine, JSON-safe."""
    sim = machine.sim
    return {
        "now": sim.now,
        "events_scheduled": sim._seq,
        "events_pending": len(sim._sched),
        "metrics": collect_metrics(machine, window_cycles).to_dict(),
        "cpus": [cpu.stats.totals() for cpu in machine.cpus],
        "caches": [cache.stats.totals() for cache in machine.caches],
        "mbus": machine.mbus.stats.totals(),
        "mbus_busy": machine.mbus.utilization.busy_total,
        "mbus_wait": machine.mbus.queue_wait_cycles,
        "memory": machine.memory.stats.totals(),
        "qbus": (machine.qbus.stats.totals()
                 if machine.qbus is not None else {}),
    }


def audit_machine(machine, window_cycles: int) -> List[str]:
    """Accounting identities the public counters can express.

    Each returned string names one violated identity.  The CPU and cache
    identities use whole-run totals, which have no window boundary to
    straddle; the bus identity uses the measurement window ``load()``
    covers.
    """
    problems: List[str] = []
    now = machine.sim.now
    misses = 0
    for cpu, cache in zip(machine.cpus, machine.caches):
        # cycles = run + stall + idle; run has no counter of its own, so
        # stall + idle may not exceed the cycles elapsed.
        stall = _cpu_stall(cpu)
        idle = _total(cpu.stats, "idle_cycles")
        if stall + idle > now:
            problems.append(f"cpu{cpu.cpu_id}: stall {stall} + idle {idle} "
                            f"cycles exceed the {now} cycles elapsed")
        # references = hits + misses; the cache counts an access when it
        # starts and the CPU when it completes, so one may be in flight.
        served = sum(_total(cache.stats, key) for key in _CACHE_KEYS)
        issued = sum(_total(cpu.stats, key) for key in _CPU_REF_KEYS)
        if served - issued not in (0, 1):
            problems.append(f"cache{cache.snooper_id}: hits + misses "
                            f"{served} != CPU references {issued} "
                            f"(+ at most one in flight)")
        misses += sum(_total(cache.stats, key) for key in _CACHE_KEYS
                      if key.endswith(".miss"))
    mbus = machine.mbus
    busy = round(mbus.load() * window_cycles)
    expected = (_windowed(mbus.stats, "ops")
                + _windowed(mbus.stats, "parity.errors")) * MBUS_OP_CYCLES
    if busy != expected:
        problems.append(f"mbus: load x window = {busy} busy cycles, "
                        f"operations account for {expected}")
    victims = _total(mbus.stats, "write.victim")
    if victims > misses:
        problems.append(f"mbus: {victims} dirty victims exceed "
                        f"{misses} cache misses")
    return problems


def check_coherence(machine) -> List[str]:
    """The coherence invariants over every cached word, as failures."""
    try:
        CoherenceChecker(machine).check()
    except CoherenceViolation as violation:
        return [f"coherence: {violation}"]
    return []


def _dispatched(machines) -> int:
    """Events the machines' simulators have dispatched (scheduled less
    still pending)."""
    return sum(m.sim._seq - len(m.sim._sched) for m in machines)


def machine_counts(machines, kernel=None) -> Dict[str, float]:
    """Per-layer work counts summed over the trial's machines."""
    c: Dict[str, float] = {key: 0 for key in (
        "processor.instructions", "processor.stall_cycles", "refgen.refs",
        "cache.refs", "cache.hits", "cache.snoops",
        "protocol.mshared_writes", "protocol.dirty_victims", "mbus.ops",
        "mbus.arb_wait_cycles", "mbus.retries", "memory.line_reads",
        "memory.line_writes", "io.dma_words")}
    c["events.dispatched"] = _dispatched(machines)
    loads = []
    for machine in machines:
        for cpu, cache in zip(machine.cpus, machine.caches):
            refs = sum(_total(cpu.stats, key) for key in _CPU_REF_KEYS)
            c["processor.instructions"] += _total(cpu.stats, "instructions")
            c["processor.stall_cycles"] += _cpu_stall(cpu)
            if isinstance(cpu.source, SyntheticReferenceSource):
                c["refgen.refs"] += refs
            c["cache.refs"] += sum(_total(cache.stats, key)
                                   for key in _CACHE_KEYS)
            c["cache.hits"] += sum(_total(cache.stats, key)
                                   for key in _CACHE_KEYS
                                   if key.endswith(".hit"))
            c["cache.snoops"] += _total(cache.stats, "snoop.probes")
        mbus = machine.mbus
        c["protocol.mshared_writes"] += _total(mbus.stats, "write.mshared")
        c["protocol.dirty_victims"] += _total(mbus.stats, "write.victim")
        c["mbus.ops"] += _total(mbus.stats, "ops")
        c["mbus.arb_wait_cycles"] += mbus.queue_wait_cycles
        c["mbus.retries"] += _total(mbus.stats, "parity.errors")
        c["memory.line_reads"] += _total(machine.memory.stats, "reads")
        c["memory.line_writes"] += _total(machine.memory.stats, "writes")
        if machine.qbus is not None:
            c["io.dma_words"] += (_total(machine.qbus.stats, "dma_words_in")
                                  + _total(machine.qbus.stats,
                                           "dma_words_out"))
        loads.append(mbus.load())
    c["mbus.load"] = sum(loads) / len(loads)
    if kernel is not None:
        c["topaz.context_switches"] = _total(kernel.stats,
                                             "context_switches")
        c["topaz.migrations"] = kernel.total_migrations
        c["topaz.blocks"] = _total(kernel.stats, "blocks")
    return c


# ---------------------------------------------------------------------------
# the workloads


def table2_exerciser(seed: int, meter: Meter) -> Trial:
    """Topaz Threads exerciser on five CPUs, as Table 2 builds it."""
    warmup, measure = TABLE_2_HORIZON
    kernel = meter.build(lambda: build_exerciser(5, seed=seed))
    machine = kernel.machine
    machine.start()
    meter.run_until(machine.sim, warmup)
    machine.mark_window()
    meter.run_until(machine.sim, warmup + measure)
    stats = machine_stats(machine, measure)
    stats["topaz"] = kernel.stats.totals()
    stats["migrations"] = kernel.total_migrations
    return Trial(
        ticks=machine.sim.now, meter=meter, stats=stats,
        counts=machine_counts([machine], kernel),
        paper=[("Table 2 5-CPU", machine.mbus.load(),
                PAPER_TABLE_2_LOAD_5CPU)],
        failures=check_coherence(machine) + audit_machine(machine, measure))


def over_seeds(run_one: Callable[[int, Meter], Trial], seeds: List[int],
               meter: Meter) -> Trial:
    """One trial made of ``run_one`` at each of ``seeds``, in turn.

    Ticks, work counts and paper points add up; the bus load is the
    mean over the runs.  Statistics and failures are named by seed.
    """
    runs = {sub: run_one(sub, meter) for sub in seeds}
    counts: Dict[str, float] = {}
    for run in runs.values():
        for key, value in run.counts.items():
            counts[key] = counts.get(key, 0) + value
    counts["mbus.load"] /= len(runs)
    return Trial(
        ticks=sum(run.ticks for run in runs.values()), meter=meter,
        stats={f"seed{sub}": run.stats for sub, run in runs.items()},
        counts=counts,
        paper=[(f"seed {sub} {label}", sim, ref)
               for sub, run in runs.items() for label, sim, ref in run.paper],
        failures=[f"seed {sub} {failure}" for sub, run in runs.items()
                  for failure in run.failures])


def table1_synthetic(seed: int, meter: Meter) -> Trial:
    """:func:`table1_points` at each of :data:`SYNTHETIC_SEEDS` seeds.

    Each seed calibrates its streams a little differently, which moves
    the events per simulated cycle by 5% (IQR over median) from seed to
    seed at any horizon; a trial averages several seeds.
    """
    rng = random.Random(seed)
    return over_seeds(table1_points,
                      [rng.randrange(1 << 30) for _ in range(SYNTHETIC_SEEDS)],
                      meter)


def table1_points(seed: int, meter: Meter,
                  horizon: Tuple[int, int] = TABLE_1_HORIZON) -> Trial:
    """Calibrated synthetic streams on bare machines at NP = 2, 4, 6."""
    warmup, measure = horizon
    machines = meter.build(lambda: [
        FireflyMachine(FireflyConfig(processors=processors, seed=seed))
        for processors in TABLE_1_POINTS])
    stats: Dict = {}
    failures: List[str] = []
    paper = []
    for processors, machine in zip(TABLE_1_POINTS, machines):
        machine.start()
        meter.run_until(machine.sim, warmup)
        machine.mark_window()
        meter.run_until(machine.sim, warmup + measure)
        stats[f"np{processors}"] = machine_stats(machine, measure)
        paper.append((f"Table 1 NP={processors}", machine.mbus.load(),
                      PAPER_TABLE_1[processors].load))
        failures += [f"np{processors} {problem}" for problem in
                     check_coherence(machine) + audit_machine(machine, measure)]
    return Trial(
        ticks=sum(m.sim.now for m in machines), meter=meter, stats=stats,
        counts=machine_counts(machines), paper=paper, failures=failures)


def steady_poisson_topology() -> Topology:
    """``firefly-sim serve``'s steady-poisson topology."""
    return Topology(
        tiers=(
            TierSpec(name="interactive", workers=2,
                     arrivals=ArrivalSpec(process="poisson",
                                          mean_gap_cycles=30_000),
                     deadline_cycles=200_000, queue_limit=8,
                     slo=SloSpec(p99_cycles=150_000, success_rate=0.9)),
            TierSpec(name="batch", workers=1,
                     arrivals=ArrivalSpec(process="poisson",
                                          mean_gap_cycles=60_000),
                     deadline_cycles=400_000, calls_per_request=2,
                     queue_limit=8,
                     slo=SloSpec(p99_cycles=350_000, success_rate=0.8)),
        ),
        servers=ServerSpec(pool=2, turnaround_cycles=8_000))


STEADY_POISSON_RESILIENCE = ResilienceParams(attempt_timeout_cycles=120_000,
                                             max_attempts=3,
                                             breaker_failure_threshold=3)


def offered_requests(seed: int) -> int:
    """Requests steady-poisson's arrivals offer over one run at ``seed``.

    These are the dispatchers' own gap draws, from their own streams;
    only the few cycles a dispatcher spends queueing a request are left
    out of the arrival times.
    """
    end = sum(SERVE_HORIZON)
    offered = 0
    for tier in steady_poisson_topology().tiers:
        rng = RandomStream(seed, f"serving.arrivals.{tier.name}")
        now = tier.arrivals.next_gap(rng, 0)
        while now < end:
            offered += 1
            now += tier.arrivals.next_gap(rng, now)
    return offered


def serve_seed_pool() -> List[int]:
    """Checked traffic seeds that pass and offer the stated load."""
    return [seed for seed in SERVE_CHECKED_SEEDS
            if seed not in SERVE_SLO_BREACHES
            and offered_requests(seed) in SERVE_OFFERED]


def serve_seeds(seed: int) -> List[int]:
    """The traffic seeds of one rpc-serve trial, drawn from ``seed``."""
    return random.Random(seed).sample(serve_seed_pool(),
                                      SERVE_TRAFFIC_SEEDS)


def rpc_serve(seed: int, meter: Meter) -> Trial:
    """steady-poisson at each of :func:`serve_seeds`'s traffic seeds."""
    trial = over_seeds(steady_poisson, serve_seeds(seed), meter)
    calls = trial.counts["serving.calls"]
    trial.counts["serving.success_ratio"] = (
        trial.counts["serving.ok"] / calls if calls else 0.0)
    return trial


def steady_poisson(seed: int, meter: Meter) -> Trial:
    """Open-loop RPC serving with the telemetry hub and tracer live, as
    ``firefly-sim serve --quick`` runs steady-poisson at ``seed``."""
    warmup, measure = SERVE_HORIZON

    def build():
        workload = ServingWorkload(steady_poisson_topology(),
                                   STEADY_POISSON_RESILIENCE, seed=seed,
                                   ethernet_params=SERVE_ETHERNET)
        hub = TelemetryHub(workload.kernel.sim, max_events=0)
        attach_kernel(hub, workload.kernel)
        attach_serving(hub, workload.resilient)
        return workload, hub, RequestTracer(hub)

    workload, hub, tracer = meter.build(build)
    kernel = workload.kernel
    machine = kernel.machine
    workload.io.start()
    machine.start()
    meter.run_until(machine.sim, warmup)
    workload.mark_window()
    meter.run_until(machine.sim, warmup + measure)
    tracer.close()

    policy = workload.resilient.stats
    ethernet = workload.io.ethernet.stats
    stats = machine_stats(machine, measure)
    stats.update({
        "topaz": kernel.stats.totals(),
        "migrations": kernel.total_migrations,
        "classes": workload.class_report(),
        "policy": policy.totals(),
        "ethernet": ethernet.totals(),
        "telemetry_emitted": hub.emitted,
        "requests": {cls: tracer.percentiles(cls)
                     for cls in tracer.classes()},
    })
    counts = machine_counts([machine], kernel)
    counts.update({
        "io.packets": (_total(ethernet, "tx_frames")
                       + _total(ethernet, "rx_frames")),
        "serving.calls": _total(policy, "calls"),
        "serving.ok": _total(policy, "ok"),
        "serving.retries": _total(policy, "retries"),
        "serving.shed": _total(policy, "shed"),
        "telemetry.events_emitted": hub.emitted,
    })
    failures = [f"slo: {failure}" for failure in workload.slo_failures()]
    failures += check_coherence(machine) + audit_machine(machine, measure)
    return Trial(ticks=machine.sim.now, meter=meter, stats=stats,
                 counts=counts, failures=failures)


def table1_vector(seed: int, meter: Meter) -> Trial:
    """The vectorized statistical mode at the Table 1 operating points.

    The mode reports ticks (CPU cycles of two MBus cycles each); they
    are converted to MBus cycles so every workload counts the same unit.
    """
    stats: Dict = {}
    paper = []
    failures: List[str] = []
    ticks = 0
    counts: Dict[str, float] = {"vectorized.instructions": 0}
    for processors in TABLE_1_POINTS:
        result = meter.run(
            lambda: run_vectorized(processors, VECTOR_INSTRUCTIONS, seed))
        metrics = result.metrics()
        metrics.pop("backend")
        stats[f"np{processors}"] = metrics
        counts["vectorized.instructions"] += result.instructions
        ticks += result.ticks * MICROVAX_TICK_CYCLES
        paper.append((f"Table 1 NP={processors}", result.bus_load,
                      PAPER_TABLE_1[processors].load))
        bus_ops = result.misses + result.dirty_victims + result.shared_writes
        if result.bus_busy_ticks != bus_ops * BUS_OP_TICKS:
            failures.append(f"np{processors}: bus busy "
                            f"{result.bus_busy_ticks} ticks != "
                            f"{BUS_OP_TICKS} x {bus_ops} operations")
        if result.dirty_victims > result.misses:
            failures.append(f"np{processors}: {result.dirty_victims} dirty "
                            f"victims exceed {result.misses} misses")
    return Trial(ticks=ticks, meter=meter, stats=stats, counts=counts,
                 paper=paper, failures=failures)


WORKLOADS: Dict[str, Callable[[int, Meter], Trial]] = {
    "table2-exerciser": table2_exerciser,
    "table1-synthetic": table1_synthetic,
    "rpc-serve": rpc_serve,
    "table1-vector": table1_vector,
}
