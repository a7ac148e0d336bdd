"""Open-loop serving workload: arrival processes over a service topology.

The closed-loop RPC workload (``repro.workloads.rpc_server``) measures
saturation throughput — K clients issue the next call the moment the
previous one returns, so offered load adapts to capacity.  A serving
study needs the opposite: an **open loop**, where requests arrive on
their own clock ("millions of users" do not slow down because the
server is busy), queues grow when capacity is exceeded, and tail
latency and shed rates are the observables.

The topology is declarative (``firefly-serve-topology/1``): client
tiers — each with an arrival process, a worker pool, a deadline and an
SLO — in front of a pool of remote servers reached through one
:class:`~repro.serving.policies.ResilientTransport`.  Per tier there is
one *dispatcher* kernel thread (turns the arrival process into queue
entries, shedding past the queue bound) and a fixed pool of *worker*
threads (dequeue, stamp the request deadline, make the resilient
call(s), record end-to-end latency from *arrival*, queueing included).

Arrival gaps draw only from per-tier ``serving.arrivals.<tier>``
streams, so two topologies with different tier sets never perturb each
other's arrivals and a seed replays byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from collections import deque

from repro.causal.assemble import REQUEST_BOUNDS
from repro.common.errors import ConfigurationError
from repro.common.stats import Histogram
from repro.io.ethernet import EthernetParams, RemoteEndpoint
from repro.io.subsystem import IoSubsystem
from repro.serving.policies import (CallOutcome, ResilienceParams,
                                    ResilientTransport, _sleep)
from repro.topaz import ops
from repro.topaz.kernel import TopazKernel
from repro.topaz.rpc import RpcParams, RpcTransport

TOPOLOGY_SCHEMA = "firefly-serve-topology/1"

ARRIVAL_PROCESSES = ("poisson", "bursty", "diurnal")


def _require(condition: bool, path: str, message: str, value: Any) -> None:
    if not condition:
        raise ConfigurationError(
            f"topology: {path} {message}, got {value!r}")


@dataclass(frozen=True)
class ArrivalSpec:
    """One tier's arrival process over sim time."""

    process: str = "poisson"
    #: Long-run mean inter-arrival gap, cycles.
    mean_gap_cycles: int = 25_000
    #: Bursty: on-phase gaps shrink by this factor, off-phase gaps grow
    #: by it.  Diurnal: unused.
    burst_factor: float = 4.0
    #: Bursty/diurnal modulation period, cycles.
    period_cycles: int = 0
    #: Diurnal: rate swing amplitude (0..1).
    amplitude: float = 0.5

    def validate(self, path: str) -> None:
        _require(self.process in ARRIVAL_PROCESSES, f"{path}.process",
                 f"must be one of {ARRIVAL_PROCESSES}", self.process)
        _require(self.mean_gap_cycles > 0, f"{path}.mean_gap_cycles",
                 "must be positive", self.mean_gap_cycles)
        _require(self.burst_factor >= 1.0, f"{path}.burst_factor",
                 "must be >= 1.0", self.burst_factor)
        _require(0.0 <= self.amplitude < 1.0, f"{path}.amplitude",
                 "must be in [0, 1)", self.amplitude)
        if self.process in ("bursty", "diurnal"):
            _require(self.period_cycles > 0, f"{path}.period_cycles",
                     f"must be positive for {self.process} arrivals",
                     self.period_cycles)

    def next_gap(self, rng, now: int) -> int:
        """Draw the next inter-arrival gap (cycles, >= 1)."""
        mean = float(self.mean_gap_cycles)
        if self.process == "bursty":
            half = max(1, self.period_cycles // 2)
            on = (now // half) % 2 == 0
            mean = mean / self.burst_factor if on \
                else mean * self.burst_factor
        elif self.process == "diurnal":
            phase = 2.0 * math.pi * (now % self.period_cycles) \
                / self.period_cycles
            rate = 1.0 + self.amplitude * math.sin(phase)
            mean = mean / rate
        return max(1, int(rng.expovariate(mean)))


@dataclass(frozen=True)
class SloSpec:
    """Per-tier service-level objectives; 0 disables a gate."""

    p99_cycles: int = 0
    success_rate: float = 0.0

    def validate(self, path: str) -> None:
        _require(self.p99_cycles >= 0, f"{path}.p99_cycles",
                 "must be >= 0", self.p99_cycles)
        _require(0.0 <= self.success_rate <= 1.0, f"{path}.success_rate",
                 "must be in [0, 1]", self.success_rate)


@dataclass(frozen=True)
class TierSpec:
    """One client tier: arrivals in, deadlined resilient calls out."""

    name: str
    workers: int = 2
    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    #: Request class label (defaults to the tier name).
    cls: str = ""
    #: Per-request deadline from arrival; 0 = none.
    deadline_cycles: int = 0
    #: Sequential resilient calls per request (> 1 exercises deadline
    #: propagation across nested work).
    calls_per_request: int = 1
    #: Dispatcher queue bound; arrivals past it are shed.
    queue_limit: int = 32
    slo: SloSpec = field(default_factory=SloSpec)

    @property
    def request_class(self) -> str:
        return self.cls or self.name

    def validate(self, path: str) -> None:
        _require(bool(self.name), f"{path}.name", "must be non-empty",
                 self.name)
        _require(self.workers > 0, f"{path}.workers", "must be positive",
                 self.workers)
        _require(self.deadline_cycles >= 0, f"{path}.deadline_cycles",
                 "must be >= 0", self.deadline_cycles)
        _require(self.calls_per_request > 0, f"{path}.calls_per_request",
                 "must be positive", self.calls_per_request)
        _require(self.queue_limit > 0, f"{path}.queue_limit",
                 "must be positive", self.queue_limit)
        self.arrivals.validate(f"{path}.arrivals")
        self.slo.validate(f"{path}.slo")


@dataclass(frozen=True)
class ServerSpec:
    """The remote server pool behind the resilient transport."""

    pool: int = 2
    turnaround_cycles: int = 8_000
    payload_bytes: int = 256
    packets_per_call: int = 1
    reply_bytes: int = 64

    def validate(self, path: str) -> None:
        _require(self.pool > 0, f"{path}.pool", "must be positive",
                 self.pool)
        _require(self.turnaround_cycles >= 0, f"{path}.turnaround_cycles",
                 "must be >= 0", self.turnaround_cycles)

    def rpc_params(self) -> RpcParams:
        return RpcParams(payload_bytes=self.payload_bytes,
                         packets_per_call=self.packets_per_call,
                         reply_bytes=self.reply_bytes,
                         server_turnaround_cycles=self.turnaround_cycles)


@dataclass(frozen=True)
class Topology:
    """The declarative service topology (client tiers -> server pool)."""

    tiers: tuple
    servers: ServerSpec = field(default_factory=ServerSpec)

    def validate(self) -> None:
        _require(len(self.tiers) > 0, "tiers", "must be non-empty",
                 len(self.tiers))
        seen = set()
        for i, tier in enumerate(self.tiers):
            tier.validate(f"tiers[{i}]")
            _require(tier.name not in seen, f"tiers[{i}].name",
                     "duplicates an earlier tier", tier.name)
            seen.add(tier.name)
        self.servers.validate("servers")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Topology":
        """Build + validate a topology from its JSON/dict form."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"topology: must be a mapping, got {type(data).__name__}")
        schema = data.get("schema", TOPOLOGY_SCHEMA)
        _require(schema == TOPOLOGY_SCHEMA, "schema",
                 f"must be {TOPOLOGY_SCHEMA!r}", schema)
        known = {"schema", "tiers", "servers"}
        extra = sorted(set(data) - known)
        _require(not extra, "keys", "unknown key(s)", extra)
        tiers = []
        for i, entry in enumerate(data.get("tiers", ())):
            tiers.append(_tier_from_dict(entry, f"tiers[{i}]"))
        servers = _build(ServerSpec, data.get("servers", {}), "servers")
        topology = cls(tiers=tuple(tiers), servers=servers)
        topology.validate()
        return topology

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": TOPOLOGY_SCHEMA,
            "tiers": [
                {"name": t.name, "workers": t.workers,
                 "cls": t.request_class,
                 "arrivals": {"process": t.arrivals.process,
                              "mean_gap_cycles":
                                  t.arrivals.mean_gap_cycles,
                              "burst_factor": t.arrivals.burst_factor,
                              "period_cycles": t.arrivals.period_cycles,
                              "amplitude": t.arrivals.amplitude},
                 "deadline_cycles": t.deadline_cycles,
                 "calls_per_request": t.calls_per_request,
                 "queue_limit": t.queue_limit,
                 "slo": {"p99_cycles": t.slo.p99_cycles,
                         "success_rate": t.slo.success_rate}}
                for t in self.tiers],
            "servers": {"pool": self.servers.pool,
                        "turnaround_cycles":
                            self.servers.turnaround_cycles,
                        "payload_bytes": self.servers.payload_bytes,
                        "packets_per_call": self.servers.packets_per_call,
                        "reply_bytes": self.servers.reply_bytes},
        }


def _build(spec_cls, data: Dict[str, Any], path: str):
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"topology: {path} must be a mapping, "
            f"got {type(data).__name__}")
    fields = {f.name for f in spec_cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    extra = sorted(set(data) - fields)
    _require(not extra, f"{path}", "unknown key(s)", extra)
    try:
        return spec_cls(**data)
    except TypeError as exc:
        raise ConfigurationError(f"topology: {path}: {exc}") from exc


def _tier_from_dict(data: Dict[str, Any], path: str) -> TierSpec:
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"topology: {path} must be a mapping, "
            f"got {type(data).__name__}")
    data = dict(data)
    arrivals = _build(ArrivalSpec, data.pop("arrivals", {}),
                      f"{path}.arrivals")
    slo = _build(SloSpec, data.pop("slo", {}), f"{path}.slo")
    tier = _build(TierSpec, dict(data, arrivals=arrivals, slo=slo), path)
    return tier


# ---------------------------------------------------------------------------
# per-class metrics


_SHED_REASON_GROUPS = {
    "queue": "queue", "expired": "expired",
    "ready-depth": "admission", "in-flight": "admission",
    "breaker-open": "breaker",
}


class ClassMetrics:
    """Windowed per-request-class serving metrics (fixed report keys)."""

    __slots__ = ("cls", "offered", "ok", "failed", "shed", "retries",
                 "hedges", "latency")

    def __init__(self, cls: str) -> None:
        self.cls = cls
        self.offered = 0
        self.ok = 0
        self.failed = 0
        self.shed = {"queue": 0, "expired": 0, "admission": 0,
                     "breaker": 0}
        self.retries = 0
        self.hedges = 0
        self.latency = Histogram(f"serve.{cls}.latency",
                                 bounds=REQUEST_BOUNDS)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def requests(self) -> int:
        return self.ok + self.failed + self.shed_total

    @property
    def success_rate(self) -> float:
        total = self.requests
        return self.ok / total if total else 0.0

    def note_shed(self, reason: str) -> None:
        self.shed[_SHED_REASON_GROUPS.get(reason, "admission")] += 1

    def note_outcome(self, outcome: CallOutcome, latency: int) -> None:
        self.retries += outcome.retries
        if outcome.hedged:
            self.hedges += 1
        if outcome.status == "ok":
            self.ok += 1
            self.latency.record(latency)
        elif outcome.status == "shed":
            self.note_shed(outcome.shed_reason)
        else:
            self.failed += 1

    def to_dict(self) -> Dict[str, Any]:
        hist = self.latency
        return {
            "offered": self.offered,
            "requests": self.requests,
            "ok": self.ok,
            "failed": self.failed,
            "shed": dict(self.shed),
            "shed_total": self.shed_total,
            "retries": self.retries,
            "hedges": self.hedges,
            "success_rate": round(self.success_rate, 6),
            "latency": {"count": hist.count,
                        "mean": round(hist.mean, 2),
                        "p50": hist.percentile(50),
                        "p95": hist.percentile(95),
                        "p99": hist.percentile(99),
                        "max": hist.max},
        }


# ---------------------------------------------------------------------------
# the open-loop engine


class ServingWorkload:
    """A built machine serving an open-loop topology.

    ``fork_headroom`` reserves extra shared-region room (TCBs) for
    threads forked at run time — hedged calls fork two racers each, so
    hedging topologies must size this above the expected hedged-call
    count.
    """

    def __init__(self, topology: Topology,
                 resilience: Optional[ResilienceParams] = None,
                 processors: int = 4, seed: int = 1987,
                 fork_headroom: int = 0,
                 ethernet_params: Optional[EthernetParams] = None) -> None:
        topology.validate()
        self.topology = topology
        self.resilience = resilience or ResilienceParams()
        self.seed = seed
        total_workers = sum(t.workers for t in topology.tiers)
        hint = total_workers + len(topology.tiers) + 8 + fork_headroom
        self.kernel = TopazKernel.build(
            processors=processors, threads_hint=hint, seed=seed,
            io_enabled=True)
        self.io = IoSubsystem(self.kernel.machine,
                              ethernet_params=ethernet_params)
        _, buffer_qbus = self.io.alloc(512, "serve buffer")
        rpc_params = topology.servers.rpc_params()
        pool = [RpcTransport(self.kernel, self.io.ethernet, buffer_qbus,
                             params=rpc_params,
                             remote=RemoteEndpoint(
                                 topology.servers.turnaround_cycles))
                for _ in range(topology.servers.pool)]
        self.transports = pool
        self.resilient = ResilientTransport(self.kernel, pool,
                                            self.resilience)

        self.metrics: Dict[str, ClassMetrics] = {}
        self._measuring = False
        self._queues: Dict[str, Deque[int]] = {}
        streams = self.kernel.machine.streams
        for tier in topology.tiers:
            self.metrics[tier.request_class] = ClassMetrics(
                tier.request_class)
            queue: Deque[int] = deque()
            self._queues[tier.name] = queue
            mutex = self.kernel.mutex(f"{tier.name}-q")
            cond = self.kernel.condition(f"{tier.name}-work")
            rng = streams.stream(f"serving.arrivals.{tier.name}")
            self.kernel.fork(
                self._dispatcher_body(tier, queue, mutex, cond, rng),
                name=f"{tier.name}-dispatch")
            for i in range(tier.workers):
                self.kernel.fork(
                    self._worker_body(tier, queue, mutex, cond),
                    name=f"{tier.name}-worker{i}")

    # -- thread bodies ---------------------------------------------------

    def _dispatcher_body(self, tier: TierSpec, queue, mutex, cond, rng):
        sim = self.kernel.sim
        arrivals = tier.arrivals
        metrics = self.metrics[tier.request_class]

        def dispatcher():
            while True:
                gap = arrivals.next_gap(rng, sim.now)
                yield ops.DeviceCall(_sleep(sim, gap), label="arrivals")
                yield ops.Lock(mutex)
                if self._measuring:
                    metrics.offered += 1
                if len(queue) >= tier.queue_limit:
                    # Shed at the door: counted, never silently dropped.
                    if self._measuring:
                        metrics.note_shed("queue")
                    self.resilient.stats.incr("shed.queue")
                    probe = self.resilient.probe
                    if probe.active:
                        probe.instant("serve.shed", "serve",
                                      cls=tier.request_class,
                                      reason="queue", depth=len(queue))
                else:
                    queue.append(sim.now)
                    yield ops.Signal(cond)
                yield ops.Unlock(mutex)
        return dispatcher

    def _worker_body(self, tier: TierSpec, queue, mutex, cond):
        sim = self.kernel.sim
        metrics = self.metrics[tier.request_class]
        resilient = self.resilient

        def worker():
            me = yield ops.CurrentThread()
            while True:
                yield ops.Lock(mutex)
                while not queue:
                    yield ops.Wait(cond, mutex)
                arrival = queue.popleft()
                yield ops.Unlock(mutex)
                deadline = (arrival + tier.deadline_cycles
                            if tier.deadline_cycles else None)
                if deadline is not None and sim.now >= deadline:
                    # Expired while queued: shed before any call.
                    if self._measuring:
                        metrics.note_shed("expired")
                    resilient.stats.incr("shed.expired")
                    continue
                me.deadline = deadline
                outcome = None
                for _ in range(tier.calls_per_request):
                    outcome = yield from resilient.call(
                        cls=tier.request_class)
                    if not outcome.ok:
                        break
                me.deadline = None
                if self._measuring and outcome is not None:
                    metrics.note_outcome(outcome, sim.now - arrival)
        return worker

    # -- running ---------------------------------------------------------

    def mark_window(self) -> None:
        """Open the measurement window (counters from here on)."""
        self._measuring = True
        self.kernel.machine.mark_window()
        self.resilient.mark_window()
        self.io.ethernet.stats.mark_all()

    def run(self, warmup_cycles: int, measure_cycles: int) -> None:
        """Warm up, open the window, and run the measurement."""
        self.io.start()
        self.kernel.machine.start()
        sim = self.kernel.sim
        sim.run_until(sim.now + warmup_cycles)
        self.mark_window()
        sim.run_until(sim.now + measure_cycles)

    # -- readouts --------------------------------------------------------

    def classes(self) -> List[str]:
        return sorted(self.metrics)

    def class_report(self) -> Dict[str, Dict[str, Any]]:
        return {cls: self.metrics[cls].to_dict()
                for cls in self.classes()}

    def slo_failures(self) -> List[str]:
        """Every violated gate, as a stable human-readable list."""
        failures: List[str] = []
        for tier in self.topology.tiers:
            m = self.metrics[tier.request_class]
            slo = tier.slo
            if not (slo.p99_cycles or slo.success_rate):
                continue
            if m.requests == 0:
                failures.append(
                    f"{tier.request_class}: no requests completed "
                    f"in the window")
                continue
            if slo.p99_cycles:
                p99 = m.latency.percentile(99)
                if m.latency.count == 0 or p99 > slo.p99_cycles:
                    failures.append(
                        f"{tier.request_class}: p99 {p99} cycles "
                        f"exceeds budget {slo.p99_cycles}")
            if slo.success_rate and m.success_rate < slo.success_rate:
                failures.append(
                    f"{tier.request_class}: success rate "
                    f"{m.success_rate:.4f} below budget "
                    f"{slo.success_rate:.4f}")
        return failures
