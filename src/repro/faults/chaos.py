"""Seeded chaos campaigns behind ``firefly-sim chaos``.

Each campaign scenario builds a fresh machine, arms a
:class:`~repro.faults.injector.FaultInjector` with a pinned
:class:`~repro.faults.plan.FaultPlan`, and drives the simulation while
the observatory watches: span tracing attributes latency, the
divergence monitor compares the analytic model window by window, and
the I1-I4 coherence audit sweeps for injected damage.  Every scenario
also runs a *fault-free twin* — the identical build at the identical
seed with no injector constructed — so the report's degradation
numbers are true deltas, and the twin doubles as a standing proof that
an unarmed machine is byte-identical to a pre-faults one.

Determinism is the whole point: the report contains no wall-clock
times, no host identifiers, and no unordered iteration, so
``firefly-sim chaos --seed S`` twice produces byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import BusTransferError, UncorrectableMemoryError
from repro.faults.injector import FaultInjector, FaultRecord
from repro.faults.plan import FaultKind, FaultPlan, spec
from repro.io.disk import WORDS_PER_BLOCK, DiskController, DiskParams
from repro.observatory.divergence import DivergenceMonitor
from repro.observatory.spans import trace_spans
from repro.system import FireflyConfig, FireflyMachine
from repro.system.checker import CoherenceChecker
from repro.system.metrics import collect_metrics
from repro.system.scenario import Horizon, Scenario
from repro.workloads.threads_exerciser import ExerciserParams, build_exerciser

CHAOS_SCHEMA = "firefly-chaos/1"

DEFAULT_SEED = 1987


# ---------------------------------------------------------------------------
# the campaign engine


@dataclass
class _EngineRun:
    """Everything :func:`_drive` measured about one armed run."""

    injector: FaultInjector
    metrics: Optional[object]          # MachineMetrics of the window
    measured: int
    data_loss: str
    violations_flagged: int
    words_repaired: int
    scrub_corrected: int
    scrub_uncorrectable: int
    divergence_samples: int
    out_of_band_windows: int
    span_kinds: int
    total_cycles: int
    crash: Optional[Dict] = None


def _drive(subject, plan: FaultPlan, horizon: Horizon,
           kernel=None, audit_interval: int = 0, scrub_interval: int = 0,
           repair: bool = True) -> _EngineRun:
    """Warm up, arm the plan, and run the measurement window.

    The window is advanced in slices so periodic audits (I1-I4 sweep,
    memory scrub) run between bus transactions; a data-loss exception
    (:class:`UncorrectableMemoryError` on a demand read,
    :class:`BusTransferError` on retry exhaustion) ends the window
    early and is reported, not swallowed.
    """
    from repro.causal.crash import capture_crash
    from repro.causal.recorder import FlightRecorder

    machine = getattr(subject, "machine", subject)
    sim = machine.sim
    hub, tracer = trace_spans(subject)
    # Ride-along flight recorder: subscribes to the span tracer's hub
    # (no probe slots touched), so an unrecovered fault yields a
    # postmortem-ready crash report with the recent causal timeline.
    recorder = FlightRecorder(subject, hub=hub)
    monitor = DivergenceMonitor(subject,
                                interval=max(2_000, horizon.measure // 5))
    injector = FaultInjector(machine, plan, kernel=kernel)
    injector.probe = hub.probe("faults")
    checker = CoherenceChecker(machine) if audit_interval else None

    machine.start()
    sim.run_until(sim.now + horizon.warmup)
    machine.mark_window()
    monitor.start()
    injector.arm(horizon.measure)
    start = sim.now
    end = start + horizon.measure

    violations_flagged = words_repaired = 0
    scrub_corrected = scrub_uncorrectable = 0
    data_loss = ""
    crash = None
    next_audit = start + audit_interval if audit_interval else None
    next_scrub = start + scrub_interval if scrub_interval else None

    def _audit() -> None:
        nonlocal violations_flagged, words_repaired
        found = checker.violations()
        if found:
            violations_flagged += len(found)
            injector.note_violations(found)
            if repair:
                words_repaired += injector.repair_coherence(found)

    while sim.now < end:
        target = end
        if next_audit is not None:
            target = min(target, next_audit)
        if next_scrub is not None:
            target = min(target, next_scrub)
        try:
            sim.run_until(target)
        except (UncorrectableMemoryError, BusTransferError) as exc:
            data_loss = str(exc)
            crash = capture_crash(exc, subject=subject, recorder=recorder)
            break
        if next_audit is not None and sim.now >= next_audit:
            _audit()
            next_audit += audit_interval
        if next_scrub is not None and sim.now >= next_scrub:
            corrected, uncorrectable = machine.memory.scrub()
            scrub_corrected += corrected
            scrub_uncorrectable += uncorrectable
            next_scrub += scrub_interval

    monitor.stop()
    if checker is not None and not data_loss:
        _audit()
    # Terminal classification for drops the audit never saw: a dropped
    # probe on a cache that held nothing relevant is harmless.
    for record in injector.records:
        if (record.kind is FaultKind.SNOOP_DROP
                and record.outcome == "injected"):
            now = sim.now
            record.detected_at = record.recovered_at = now
            if record.detail:
                record.outcome = "benign"
                record.detail += " (no audit-visible damage)"
            else:
                record.outcome = "not-triggered"

    measured = sim.now - start
    metrics = (collect_metrics(machine, window_cycles=measured)
               if measured > 0 else None)
    recorder.detach()
    tracer.close()
    return _EngineRun(
        injector=injector, metrics=metrics, measured=measured,
        data_loss=data_loss, violations_flagged=violations_flagged,
        words_repaired=words_repaired, scrub_corrected=scrub_corrected,
        scrub_uncorrectable=scrub_uncorrectable,
        divergence_samples=len(monitor.samples),
        out_of_band_windows=sum(
            monitor.out_of_band_counts[m]
            for m in sorted(monitor.out_of_band_counts)),
        span_kinds=len(tracer.kind_stats), total_cycles=sim.now,
        crash=crash)


# ---------------------------------------------------------------------------
# per-scenario outcomes


@dataclass
class ScenarioOutcome:
    """One scenario's campaign result, renderable and JSON-safe."""

    name: str
    description: str
    seed: int
    warmup: int
    measure: int
    measured: int = 0
    verdict: str = "FAIL"
    notes: List[str] = field(default_factory=list)
    timeline: List[str] = field(default_factory=list)
    records: List[FaultRecord] = field(default_factory=list)
    metrics: Dict = field(default_factory=dict)
    data_loss: str = ""
    violations_flagged: int = 0
    words_repaired: int = 0
    divergence_samples: int = 0
    out_of_band_windows: int = 0
    span_kinds: int = 0
    total_cycles: int = 0
    crash: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return self.verdict == "OK"

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "warmup": self.warmup,
            "measure": self.measure,
            "measured": self.measured,
            "verdict": self.verdict,
            "notes": list(self.notes),
            "timeline": list(self.timeline),
            "faults": [record.to_dict() for record in self.records],
            "metrics": dict(self.metrics),
            "data_loss": self.data_loss,
            "violations_flagged": self.violations_flagged,
            "words_repaired": self.words_repaired,
            "divergence_samples": self.divergence_samples,
            "out_of_band_windows": self.out_of_band_windows,
            "span_kinds": self.span_kinds,
            "total_cycles": self.total_cycles,
            "crash": self.crash,
        }

    def render(self) -> str:
        lines = [f"scenario {self.name}: {self.description}  "
                 f"[{self.verdict}]"]
        lines.append(f"  horizon: warmup {self.warmup} + measure "
                     f"{self.measure} cycles (measured {self.measured})")
        lines.append("  timeline:")
        for entry in self.timeline:
            lines.append(f"    {entry}")
        lines.append("  faults:")
        for record in self.records:
            lines.append(f"    {record.render()}")
        if self.violations_flagged or self.words_repaired:
            lines.append(f"  audit: {self.violations_flagged} "
                         f"violation(s) flagged, {self.words_repaired} "
                         f"word(s) repaired")
        lines.append(f"  observatory: {self.span_kinds} span kind(s), "
                     f"{self.divergence_samples} divergence window(s), "
                     f"{self.out_of_band_windows} out of band")
        if self.data_loss:
            lines.append(f"  data loss: {self.data_loss}")
        if self.crash is not None:
            kept = len(self.crash.get("recent_events") or ())
            lines.append(f"  crash report captured ({kept} recent "
                         f"event(s); render with firefly-sim postmortem)")
        if self.metrics:
            lines.append("  metrics:")
            for key in sorted(self.metrics):
                lines.append(f"    {key} = {self.metrics[key]}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _outcome(scenario: Scenario, horizon: Horizon, seed: int,
             run: _EngineRun) -> ScenarioOutcome:
    return ScenarioOutcome(
        name=scenario.name, description=scenario.description, seed=seed,
        warmup=horizon.warmup, measure=horizon.measure,
        measured=run.measured,
        timeline=[fault.describe() for fault in run.injector.schedule],
        records=list(run.injector.records), data_loss=run.data_loss,
        violations_flagged=run.violations_flagged,
        words_repaired=run.words_repaired,
        divergence_samples=run.divergence_samples,
        out_of_band_windows=run.out_of_band_windows,
        span_kinds=run.span_kinds, total_cycles=run.total_cycles,
        crash=run.crash)


def _verdict(outcome: ScenarioOutcome, ok: bool, note: str) -> None:
    outcome.verdict = "OK" if ok else "FAIL"
    outcome.notes.append(note)


def _perf_block(faulted, baseline) -> Dict:
    """Faulted-vs-twin metric deltas (the degradation numbers)."""
    block: Dict = {}
    for key in ("bus_load", "mean_tpi", "mean_miss_rate"):
        measured = getattr(faulted, key) if faulted is not None else 0.0
        expected = getattr(baseline, key)
        block[f"faulted.{key}"] = round(measured, 6)
        block[f"baseline.{key}"] = round(expected, 6)
    if faulted is not None and baseline.mean_tpi > 0:
        block["degradation.tpi_pct"] = round(
            (faulted.mean_tpi / baseline.mean_tpi - 1.0) * 100.0, 2)
    if faulted is not None and baseline.bus_load > 0:
        block["degradation.bus_load_pct"] = round(
            (faulted.bus_load / baseline.bus_load - 1.0) * 100.0, 2)
    return block


def _twin_metrics(build: Callable[[], object], horizon: Horizon):
    """Run the fault-free twin: same build, same seed, no injector."""
    twin = build()
    return twin.run(warmup_cycles=horizon.warmup,
                    measure_cycles=horizon.measure)


# ---------------------------------------------------------------------------
# pinned scenarios


def _run_bus_parity(scenario: Scenario, horizon: Horizon,
                    seed: int) -> ScenarioOutcome:
    """Parity-corrupted MBus tenures recovered by retry-with-backoff."""
    def build():
        return FireflyMachine(FireflyConfig(processors=4, seed=seed))

    machine = build()
    plan = FaultPlan([
        spec(FaultKind.BUS_CORRUPT, window=(0.15, 0.30), burst=1),
        spec(FaultKind.BUS_CORRUPT, window=(0.45, 0.60), burst=2),
        spec(FaultKind.BUS_CORRUPT, window=(0.70, 0.80), burst=3),
    ])
    run = _drive(machine, plan, horizon)
    outcome = _outcome(scenario, horizon, seed, run)
    outcome.metrics.update(_perf_block(run.metrics,
                                       _twin_metrics(build, horizon)))
    outcome.metrics["parity.errors"] = (
        machine.mbus.stats["parity.errors"].total)
    outcome.metrics["parity.recovered"] = (
        machine.mbus.stats["parity.recovered"].total)
    retried = sum(1 for r in run.injector.records
                  if r.outcome == "retried")
    ok = retried == len(run.injector.records) and not run.data_loss
    _verdict(outcome, ok,
             f"{retried}/{len(run.injector.records)} corruption bursts "
             f"recovered by bounded retry")
    return outcome


def _run_ecc_scrub(scenario: Scenario, horizon: Horizon,
                   seed: int) -> ScenarioOutcome:
    """SECDED: single-bit flips corrected, a double-bit flip detected."""
    def build():
        return FireflyMachine(FireflyConfig(processors=2, seed=seed))

    machine = build()
    plan = FaultPlan([
        spec(FaultKind.MEMORY_FLIP, count=4, window=(0.10, 0.45), bits=1),
        spec(FaultKind.MEMORY_FLIP, window=(0.60, 0.70), bits=2),
    ])
    run = _drive(machine, plan, horizon,
                 scrub_interval=max(1_000, horizon.measure // 12))
    outcome = _outcome(scenario, horizon, seed, run)
    outcome.metrics.update(_perf_block(run.metrics,
                                       _twin_metrics(build, horizon)))
    outcome.metrics["ecc.corrected"] = (
        machine.memory.stats["ecc.corrected"].total)
    outcome.metrics["ecc.uncorrectable"] = (
        machine.memory.stats["ecc.uncorrectable"].total)
    outcome.metrics["scrub.corrected"] = run.scrub_corrected
    outcome.metrics["scrub.uncorrectable"] = run.scrub_uncorrectable
    outcome.metrics["latent_at_end"] = machine.memory.latent_errors
    corrected = sum(1 for r in run.injector.records
                    if r.outcome == "corrected")
    uncorrectable = sum(1 for r in run.injector.records
                        if r.outcome == "uncorrectable")
    ok = (corrected == 4 and uncorrectable == 1
          and machine.memory.latent_errors == 0)
    _verdict(outcome, ok,
             f"{corrected} single-bit flip(s) corrected, "
             f"{uncorrectable} double-bit flip(s) detected as "
             f"uncorrectable, {machine.memory.latent_errors} latent "
             f"error(s) remaining")
    return outcome


def _run_snoop_storm(scenario: Scenario, horizon: Horizon,
                     seed: int) -> ScenarioOutcome:
    """Dropped snoop probes caught by the I1-I4 audit and repaired."""
    def build():
        return FireflyMachine(FireflyConfig(processors=4, seed=seed))

    machine = build()
    plan = FaultPlan([
        spec(FaultKind.SNOOP_DROP, window=(0.15, 0.35), drops=3),
        spec(FaultKind.SNOOP_DROP, window=(0.50, 0.70), drops=3),
    ])
    run = _drive(machine, plan, horizon,
                 audit_interval=max(1_000, horizon.measure // 15))
    outcome = _outcome(scenario, horizon, seed, run)
    outcome.metrics.update(_perf_block(run.metrics,
                                       _twin_metrics(build, horizon)))
    outcome.metrics["snoop.dropped"] = (
        machine.mbus.stats["snoop.dropped"].total)
    flagged = sum(1 for r in run.injector.records
                  if r.outcome == "coherence-flagged")
    terminal = {"coherence-flagged", "benign", "not-triggered"}
    settled = all(r.outcome in terminal for r in run.injector.records)
    damage_caught = run.violations_flagged == 0 or flagged > 0
    ok = settled and damage_caught and not run.data_loss
    _verdict(outcome, ok,
             f"{flagged} drop(s) flagged by the I1-I4 audit; "
             f"{run.violations_flagged} violation(s) found, "
             f"{run.words_repaired} word(s) repaired")
    return outcome


def _run_cpu_offline(scenario: Scenario, horizon: Horizon,
                     seed: int) -> ScenarioOutcome:
    """A CPU board fails under Topaz; survivors absorb its work."""
    def build():
        return build_exerciser(4, ExerciserParams(threads=12), seed=seed)

    kernel = build()
    plan = FaultPlan([spec(FaultKind.CPU_FAIL, window=(0.30, 0.45))])
    run = _drive(kernel, plan, horizon, kernel=kernel)
    outcome = _outcome(scenario, horizon, seed, run)
    machine = kernel.machine
    outcome.metrics.update(_perf_block(run.metrics,
                                       _twin_metrics(build, horizon)))
    outcome.metrics["offline.requeues"] = (
        kernel.stats["offline_requeues"].total)
    outcome.metrics["failed_cpus"] = list(machine.failed_cpus)
    survivors = machine.online_cpus
    for cpu in survivors:
        outcome.metrics[f"cpu{cpu.cpu_id}.instructions"] = (
            cpu.stats["instructions"].windowed)
    record = run.injector.records[0]
    survivor_work = sum(cpu.stats["instructions"].windowed
                        for cpu in survivors)
    ok = (record.outcome == "offlined"
          and len(machine.failed_cpus) == 1
          and survivor_work > 0
          and not run.data_loss)
    _verdict(outcome, ok,
             f"board {record.target or '?'} offlined "
             f"({record.detail or 'no write-backs'}); "
             f"{len(survivors)} survivor(s) retired "
             f"{survivor_work} instruction(s) in the window")
    return outcome


def _build_io_machine(seed: int):
    """A 2-CPU machine with a disk running a write/read-back loop."""
    machine = FireflyMachine(FireflyConfig(processors=2, io_enabled=True,
                                           seed=seed))
    disk = DiskController(
        machine.sim, machine.qbus,
        DiskParams(average_seek_cycles=2_000, max_seek_cycles=4_000,
                   half_rotation_cycles=1_000, cycles_per_word=4,
                   blocks=512, pio_cycles=8))
    blocks_per_op = 2
    words = blocks_per_op * WORDS_PER_BLOCK
    # Staging regions sit above both CPUs' private regions and well
    # inside the 16 MB DMA reach.
    out_base = 1 << 19
    in_base = out_base + words
    machine.qbus.map.map_region(0, out_base, words)
    machine.qbus.map.map_region(words, in_base, words)
    state = {"rounds": 0, "mismatches": 0}

    def driver():
        lbn = 0
        while True:
            state["rounds"] += 1
            tag = state["rounds"] << 16
            for i in range(words):
                machine.memory.poke(out_base + i, tag | i)
            yield from disk.write_blocks(lbn, blocks_per_op, 0)
            yield from disk.read_blocks(lbn, blocks_per_op, words)
            for i in range(words):
                if machine.memory.peek(in_base + i) != tag | i:
                    state["mismatches"] += 1
            lbn = (lbn + blocks_per_op) % 16

    machine.sim.process(driver(), name="disk-driver")
    return machine, state


def _run_device_degrade(scenario: Scenario, horizon: Horizon,
                        seed: int) -> ScenarioOutcome:
    """QBus device timeouts: DMA retries, then the degraded slow path."""
    machine, state = _build_io_machine(seed)
    plan = FaultPlan([
        spec(FaultKind.QBUS_TIMEOUT, window=(0.20, 0.35), timeouts=2),
        spec(FaultKind.QBUS_TIMEOUT, window=(0.55, 0.70), timeouts=5),
    ])
    run = _drive(machine, plan, horizon)

    def build_twin():
        twin, _ = _build_io_machine(seed)
        return twin

    outcome = _outcome(scenario, horizon, seed, run)
    outcome.metrics.update(_perf_block(run.metrics,
                                       _twin_metrics(build_twin, horizon)))
    qbus = machine.qbus
    outcome.metrics["dma.timeouts"] = qbus.stats["dma.timeouts"].total
    outcome.metrics["dma.degraded_words"] = (
        qbus.stats["dma.degraded_words"].total)
    outcome.metrics["qbus.degraded"] = qbus.degraded
    outcome.metrics["disk.rounds"] = state["rounds"]
    outcome.metrics["disk.mismatches"] = state["mismatches"]
    outcomes = [r.outcome for r in run.injector.records]
    ok = (outcomes == ["retried", "degraded"] and qbus.degraded
          and state["mismatches"] == 0 and state["rounds"] >= 2
          and not run.data_loss)
    _verdict(outcome, ok,
             f"device outcomes {outcomes}; {state['rounds']} disk "
             f"round-trip(s), {state['mismatches']} data mismatch(es)")
    return outcome


CHAOS_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("bus-parity",
             "MBus parity corruption under bounded retry",
             full=Horizon(10_000, 40_000),
             quick=Horizon(5_000, 20_000),
             runner=_run_bus_parity),
    Scenario("ecc-scrub",
             "SECDED memory flips under the background scrubber",
             full=Horizon(5_000, 40_000),
             quick=Horizon(5_000, 24_000),
             runner=_run_ecc_scrub),
    Scenario("snoop-storm",
             "dropped snoop probes vs the I1-I4 coherence audit",
             full=Horizon(10_000, 40_000),
             quick=Horizon(5_000, 20_000),
             runner=_run_snoop_storm),
    Scenario("cpu-offline",
             "CPU board failure under Topaz with graceful offlining",
             full=Horizon(10_000, 50_000),
             quick=Horizon(5_000, 25_000),
             runner=_run_cpu_offline),
    Scenario("device-degrade",
             "QBus device timeouts with DMA retry and degradation",
             full=Horizon(5_000, 60_000),
             quick=Horizon(2_000, 36_000),
             runner=_run_device_degrade),
)


# ---------------------------------------------------------------------------
# the campaign report


@dataclass
class ChaosReport:
    """A full campaign: one outcome per scenario, plus rollups."""

    seed: int
    mode: str
    outcomes: List[ScenarioOutcome]

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def total_cycles(self) -> int:
        return sum(outcome.total_cycles for outcome in self.outcomes)

    def fault_counts(self) -> Dict[str, int]:
        injected = detected = recovered = 0
        for outcome in self.outcomes:
            for record in outcome.records:
                if record.injected_at is not None:
                    injected += 1
                if record.detected_at is not None:
                    detected += 1
                if record.recovered_at is not None:
                    recovered += 1
        return {"injected": injected, "detected": detected,
                "recovered": recovered}

    def to_dict(self) -> Dict:
        return {
            "schema": CHAOS_SCHEMA,
            "seed": self.seed,
            "mode": self.mode,
            "ok": self.ok,
            "total_cycles": self.total_cycles,
            "faults": self.fault_counts(),
            "scenarios": [outcome.to_dict() for outcome in self.outcomes],
        }

    def render(self) -> str:
        lines = [f"chaos campaign: seed={self.seed} mode={self.mode} "
                 f"scenarios={len(self.outcomes)}"]
        for outcome in self.outcomes:
            lines.append("")
            lines.append(outcome.render())
        counts = self.fault_counts()
        failed = [o.name for o in self.outcomes if not o.ok]
        lines.append("")
        lines.append(
            f"chaos: {'OK' if self.ok else 'FAIL'} "
            f"({len(self.outcomes) - len(failed)}/{len(self.outcomes)} "
            f"scenarios; {counts['injected']} fault(s) injected, "
            f"{counts['detected']} detected, "
            f"{counts['recovered']} recovered)"
            + (f"; failing: {', '.join(failed)}" if failed else ""))
        return "\n".join(lines)


def run_campaign(seed: int = DEFAULT_SEED, quick: bool = False,
                 scenarios: Optional[List[str]] = None,
                 jobs: int = 1) -> ChaosReport:
    """Run the pinned chaos scenarios and return the campaign report.

    Every scenario derives its entire fault schedule and workload from
    ``seed`` alone, so ``jobs > 1`` fans the scenarios out over worker
    processes (via :mod:`repro.observatory.trials`) and the outcomes
    come back in the order named — the report, including its JSON form,
    is byte-identical at any job count.
    """
    from repro.observatory.trials import run_scenarios

    return ChaosReport(seed=seed, mode="quick" if quick else "full",
                       outcomes=run_scenarios("chaos", seed, quick,
                                              scenarios, jobs))
