"""Pinned serving scenarios behind ``firefly-sim serve``.

Each scenario builds a fresh :class:`~repro.serving.workload.ServingWorkload`
from a pinned topology + resilience policy, runs it open-loop for a
warmup + measurement horizon, and gates the result on the topology's
SLOs (``p99 <= budget``, ``success_rate >= budget``) — a violated gate
fails the scenario and ``firefly-sim serve`` exits 1.  The
``latency-under-chaos`` scenario additionally arms a
:class:`~repro.faults.injector.FaultInjector` during the window and
reports degradation deltas against a fault-free twin, exactly as the
chaos campaigns do.

Determinism mirrors ``repro.faults.chaos``: everything derives from
the seed, reports hold no wall-clock or host fields, and ``--jobs N``
fans scenarios out over the deterministic executor and merges them
back in the order named — the JSON report is byte-identical at any job
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.io.ethernet import EthernetParams
from repro.serving.policies import ResilienceParams
from repro.serving.workload import (ArrivalSpec, ServerSpec,
                                    ServingWorkload, SloSpec, TierSpec,
                                    Topology)
from repro.system.scenario import Horizon, Scenario

SERVE_SCHEMA = "firefly-serve/1"

DEFAULT_SEED = 1987

#: The serving scenarios run many small calls, so the DEQNA's
#: completion-service cost is trimmed to a light-interrupt
#: configuration (same knob the paper's driver work targeted); the
#: bench/A5 transports keep the stock constants.
SERVE_ETHERNET = EthernetParams(controller_overhead_cycles=1_500)


@dataclass
class ServeOutcome:
    """One scenario's serving result, renderable and JSON-safe."""

    name: str
    description: str
    seed: int
    warmup: int
    measure: int
    verdict: str = "FAIL"
    notes: List[str] = field(default_factory=list)
    slo_failures: List[str] = field(default_factory=list)
    classes: Dict[str, Dict] = field(default_factory=dict)
    segments: Dict[str, Dict] = field(default_factory=dict)
    transport: Dict[str, int] = field(default_factory=dict)
    topology: Dict = field(default_factory=dict)
    faults: List[Dict] = field(default_factory=list)
    twin: Dict[str, Dict] = field(default_factory=dict)
    degradation: Dict[str, float] = field(default_factory=dict)
    total_cycles: int = 0

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
            "verdict": self.verdict,
            "notes": list(self.notes),
            "slo_failures": list(self.slo_failures),
            "classes": {cls: dict(block)
                        for cls, block in sorted(self.classes.items())},
            "segments": {cls: dict(block)
                         for cls, block in sorted(self.segments.items())},
            "transport": dict(self.transport),
            "topology": dict(self.topology),
            "faults": list(self.faults),
            "twin": {cls: dict(block)
                     for cls, block in sorted(self.twin.items())},
            "degradation": dict(self.degradation),
            "total_cycles": self.total_cycles,
        }

    def render(self) -> str:
        lines = [f"scenario {self.name}: {self.description}  "
                 f"[{self.verdict}]"]
        lines.append(f"  horizon: warmup {self.warmup} + measure "
                     f"{self.measure} cycles")
        for cls in sorted(self.classes):
            block = self.classes[cls]
            lat = block["latency"]
            lines.append(
                f"  class {cls}: offered={block['offered']} "
                f"ok={block['ok']} failed={block['failed']} "
                f"shed={block['shed_total']} retries={block['retries']} "
                f"hedges={block['hedges']} "
                f"success={block['success_rate']:.4f}")
            lines.append(
                f"    latency: n={lat['count']} p50={lat['p50']} "
                f"p95={lat['p95']} p99={lat['p99']} max={lat['max']}")
            twin = self.twin.get(cls)
            if twin:
                tlat = twin["latency"]
                lines.append(
                    f"    fault-free twin: p50={tlat['p50']} "
                    f"p95={tlat['p95']} p99={tlat['p99']} "
                    f"success={twin['success_rate']:.4f}")
        if self.degradation:
            pairs = "  ".join(f"{key}={self.degradation[key]}"
                              for key in sorted(self.degradation))
            lines.append(f"  degradation: {pairs}")
        if self.faults:
            lines.append(f"  faults injected: {len(self.faults)}")
        for failure in self.slo_failures:
            lines.append(f"  SLO violation: {failure}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the scenario engine


def _drive_serving(workload: ServingWorkload, horizon: Horizon,
                   plan=None, qbus_model=None):
    """Run warmup + window; returns (tracer, injector, fault records)."""
    from repro.causal.assemble import RequestTracer
    from repro.telemetry.instrument import attach_kernel, attach_serving
    from repro.telemetry.probe import TelemetryHub

    kernel = workload.kernel
    sim = kernel.sim
    hub = TelemetryHub(sim, max_events=0)
    attach_kernel(hub, kernel)
    attach_serving(hub, workload.resilient)
    tracer = RequestTracer(hub)

    injector = None
    if plan is not None:
        from repro.faults.injector import FaultInjector
        injector = FaultInjector(kernel.machine, plan, kernel=kernel,
                                 qbus_model=qbus_model)
        injector.probe = hub.probe("faults")

    workload.io.start()
    kernel.machine.start()
    sim.run_until(sim.now + horizon.warmup)
    workload.mark_window()
    if injector is not None:
        injector.arm(horizon.measure)
    sim.run_until(sim.now + horizon.measure)
    tracer.close()
    return tracer, injector


def _segment_block(tracer, classes: List[str]) -> Dict[str, Dict]:
    """Mean cycles per causal segment, per request class (rounded)."""
    from repro.causal.assemble import SEGMENTS
    block: Dict[str, Dict] = {}
    traced = set(tracer.classes())
    for cls in classes:
        if cls not in traced:
            continue
        means = tracer.segment_means(cls)
        block[cls] = {name: round(means[name], 2) for name in SEGMENTS}
    return block


def _twin_classes(build: Callable[[], ServingWorkload],
                  horizon: Horizon) -> Dict[str, Dict]:
    """The fault-free twin's per-class metrics (same build, no plan)."""
    twin = build()
    twin.run(horizon.warmup, horizon.measure)
    return twin.class_report()


def _degradation(classes: Dict[str, Dict],
                 twin: Dict[str, Dict]) -> Dict[str, float]:
    """Faulted-vs-twin latency and success deltas, per class."""
    block: Dict[str, float] = {}
    for cls in sorted(classes):
        if cls not in twin:
            continue
        faulted, baseline = classes[cls], twin[cls]
        base_p99 = baseline["latency"]["p99"]
        if base_p99 > 0:
            block[f"{cls}.p99_pct"] = round(
                (classes[cls]["latency"]["p99"] / base_p99 - 1.0)
                * 100.0, 2)
        block[f"{cls}.success_delta"] = round(
            faulted["success_rate"] - baseline["success_rate"], 6)
    return block


def _finish(scenario: Scenario, horizon: Horizon, seed: int,
            workload: ServingWorkload, tracer, injector,
            extra_ok: bool, note: str) -> ServeOutcome:
    """Assemble the outcome; the verdict combines SLOs and invariants."""
    slo_failures = workload.slo_failures()
    outcome = ServeOutcome(
        name=scenario.name, description=scenario.description, seed=seed,
        warmup=horizon.warmup, measure=horizon.measure,
        slo_failures=slo_failures,
        classes=workload.class_report(),
        segments=_segment_block(tracer, workload.classes()),
        transport=workload.resilient.counters(),
        topology=workload.topology.to_dict(),
        faults=[record.to_dict() for record in injector.records]
               if injector is not None else [],
        total_cycles=workload.kernel.sim.now)
    ok = extra_ok and not slo_failures
    outcome.verdict = "OK" if ok else "FAIL"
    outcome.notes.append(note)
    return outcome


# ---------------------------------------------------------------------------
# pinned scenarios


def _steady_topology() -> Topology:
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


def _run_steady(scenario: Scenario, horizon: Horizon,
                seed: int) -> ServeOutcome:
    """Poisson arrivals well under capacity: every gate holds."""
    resilience = ResilienceParams(attempt_timeout_cycles=120_000,
                                  max_attempts=3,
                                  breaker_failure_threshold=3)
    workload = ServingWorkload(_steady_topology(), resilience, seed=seed,
                               ethernet_params=SERVE_ETHERNET)
    tracer, injector = _drive_serving(workload, horizon)
    served = sum(block["ok"] for block in workload.class_report().values())
    return _finish(scenario, horizon, seed, workload, tracer, injector,
                   extra_ok=served > 0,
                   note=f"{served} request(s) served within every gate")


def _bursty_topology() -> Topology:
    return Topology(
        tiers=(
            TierSpec(name="bursty", workers=2,
                     arrivals=ArrivalSpec(process="bursty",
                                          mean_gap_cycles=12_000,
                                          burst_factor=6.0,
                                          period_cycles=80_000),
                     deadline_cycles=400_000, queue_limit=4,
                     slo=SloSpec(p99_cycles=450_000,
                                 success_rate=0.15)),
        ),
        servers=ServerSpec(pool=2, turnaround_cycles=8_000))


def _run_bursty(scenario: Scenario, horizon: Horizon,
                seed: int) -> ServeOutcome:
    """On/off bursts past capacity: the door sheds, the SLOs survive."""
    resilience = ResilienceParams(max_in_flight=3)
    workload = ServingWorkload(_bursty_topology(), resilience, seed=seed,
                               ethernet_params=SERVE_ETHERNET)
    tracer, injector = _drive_serving(workload, horizon)
    report = workload.class_report()
    shed = sum(block["shed_total"] for block in report.values())
    served = sum(block["ok"] for block in report.values())
    return _finish(scenario, horizon, seed, workload, tracer, injector,
                   extra_ok=shed > 0 and served > 0,
                   note=f"{shed} request(s) shed at the door or admission "
                        f"gate, {served} served")


def _hedge_topology() -> Topology:
    return Topology(
        tiers=(
            TierSpec(name="tail", workers=2,
                     arrivals=ArrivalSpec(process="poisson",
                                          mean_gap_cycles=40_000),
                     deadline_cycles=400_000, queue_limit=8,
                     slo=SloSpec(p99_cycles=350_000, success_rate=0.9)),
        ),
        servers=ServerSpec(pool=3, turnaround_cycles=8_000))


def _run_hedge(scenario: Scenario, horizon: Horizon,
               seed: int) -> ServeOutcome:
    """Hedged requests race a second server for the tail."""
    resilience = ResilienceParams(hedge_after_cycles=6_000)
    workload = ServingWorkload(_hedge_topology(), resilience, seed=seed,
                               fork_headroom=160,
                               ethernet_params=SERVE_ETHERNET)
    tracer, injector = _drive_serving(workload, horizon)
    report = workload.class_report()
    hedges = sum(block["hedges"] for block in report.values())
    served = sum(block["ok"] for block in report.values())
    return _finish(scenario, horizon, seed, workload, tracer, injector,
                   extra_ok=hedges > 0 and served > 0,
                   note=f"{hedges} hedge(s) issued across {served} "
                        f"served request(s)")


def _chaos_topology() -> Topology:
    return Topology(
        tiers=(
            TierSpec(name="chaos", workers=2,
                     arrivals=ArrivalSpec(process="poisson",
                                          mean_gap_cycles=30_000),
                     deadline_cycles=500_000, queue_limit=16,
                     slo=SloSpec(p99_cycles=600_000,
                                 success_rate=0.5)),
        ),
        servers=ServerSpec(pool=2, turnaround_cycles=8_000))


def _chaos_resilience() -> ResilienceParams:
    return ResilienceParams(attempt_timeout_cycles=32_000,
                            max_attempts=4,
                            backoff_base_cycles=2_000,
                            breaker_failure_threshold=4)


def _run_latency_under_chaos(scenario: Scenario,
                             horizon: Horizon,
                             seed: int) -> ServeOutcome:
    """QBus device timeouts degrade DMA mid-window; retries absorb it.

    The identical build runs fault-free as the twin, so the per-class
    p50/p95/p99 and success-rate degradation numbers are true deltas.
    """
    from repro.faults.models import QBusFaultModel
    from repro.faults.plan import FaultKind, FaultPlan, spec

    def build() -> ServingWorkload:
        return ServingWorkload(_chaos_topology(), _chaos_resilience(),
                               seed=seed,
                               ethernet_params=SERVE_ETHERNET)

    plan = FaultPlan([
        spec(FaultKind.QBUS_TIMEOUT, window=(0.10, 0.30), timeouts=2),
        spec(FaultKind.QBUS_TIMEOUT, window=(0.45, 0.65), timeouts=5),
    ])
    # A slow device, not just a glitchy one: each missed DMA slot costs
    # 4k cycles of silence, pushing the affected attempts past the
    # serving layer's 32k attempt timeout — that is what turns a QBus
    # fault into visible retries and a latency-tail delta.
    qbus_model = QBusFaultModel(timeout_cycles=4_000, max_retries=3,
                                degraded_penalty_cycles=30)
    workload = build()
    tracer, injector = _drive_serving(workload, horizon, plan=plan,
                                      qbus_model=qbus_model)
    outcome = _finish(scenario, horizon, seed, workload, tracer, injector,
                      extra_ok=True, note="")
    outcome.twin = _twin_classes(build, horizon)
    outcome.degradation = _degradation(outcome.classes, outcome.twin)
    retries = outcome.transport["retries"]
    settled = all(r["outcome"] in ("retried", "degraded", "not-triggered")
                  for r in outcome.faults)
    ok = (outcome.verdict == "OK" and retries > 0 and settled)
    outcome.verdict = "OK" if ok else "FAIL"
    outcome.notes = [
        f"{retries} retry(ies) under injected QBus timeouts; fault "
        f"outcomes {[r['outcome'] for r in outcome.faults]}"]
    return outcome


SERVE_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("steady-poisson",
             "Poisson arrivals under capacity meet every SLO",
             full=Horizon(150_000, 1_200_000),
             quick=Horizon(60_000, 400_000),
             runner=_run_steady),
    Scenario("bursty-shed",
             "on/off bursts past capacity shed at the door",
             full=Horizon(150_000, 1_200_000),
             quick=Horizon(60_000, 400_000),
             runner=_run_bursty),
    Scenario("hedge-tail",
             "hedged requests race a second server for the tail",
             full=Horizon(150_000, 900_000),
             quick=Horizon(60_000, 400_000),
             runner=_run_hedge),
    Scenario("latency-under-chaos",
             "QBus device timeouts vs retries, with fault-free twin",
             full=Horizon(150_000, 1_200_000),
             quick=Horizon(60_000, 400_000),
             runner=_run_latency_under_chaos),
)


# ---------------------------------------------------------------------------
# the campaign report


@dataclass
class ServeReport:
    """A full serving campaign: one outcome per scenario, plus rollups."""

    seed: int
    mode: str
    outcomes: List[ServeOutcome]

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def totals(self) -> Dict[str, int]:
        keys = ("calls", "ok", "shed", "retries", "hedges")
        rollup = {key: 0 for key in keys}
        for outcome in self.outcomes:
            for key in keys:
                rollup[key] += outcome.transport.get(key, 0)
        return rollup

    def to_dict(self) -> Dict:
        return {
            "schema": SERVE_SCHEMA,
            "seed": self.seed,
            "mode": self.mode,
            "ok": self.ok,
            "totals": self.totals(),
            "scenarios": [outcome.to_dict() for outcome in self.outcomes],
        }

    def render(self) -> str:
        lines = [f"serving campaign: seed={self.seed} mode={self.mode} "
                 f"scenarios={len(self.outcomes)}"]
        for outcome in self.outcomes:
            lines.append("")
            lines.append(outcome.render())
        totals = self.totals()
        failed = [o.name for o in self.outcomes if not o.ok]
        lines.append("")
        lines.append(
            f"serve: {'OK' if self.ok else 'FAIL'} "
            f"({len(self.outcomes) - len(failed)}/{len(self.outcomes)} "
            f"scenarios; {totals['calls']} call(s), {totals['shed']} "
            f"shed, {totals['retries']} retried, {totals['hedges']} "
            f"hedged)"
            + (f"; failing: {', '.join(failed)}" if failed else ""))
        return "\n".join(lines)


def run_serve_campaign(seed: int = DEFAULT_SEED, quick: bool = False,
                       scenarios: Optional[List[str]] = None,
                       jobs: int = 1) -> ServeReport:
    """Run the pinned serving scenarios and return the campaign report.

    Every scenario derives its workload, arrivals, and (where armed)
    fault schedule from ``seed`` alone, so ``jobs > 1`` fans scenarios
    out over worker processes and the outcomes come back in the order
    named — the report is byte-identical at any job count.  The trial
    pipeline is imported here, not at module level, so importing this
    module leaves the observatory unloaded.
    """
    from repro.observatory.trials import run_scenarios

    return ServeReport(seed=seed, mode="quick" if quick else "full",
                       outcomes=run_scenarios("serve", seed, quick,
                                              scenarios, jobs))
