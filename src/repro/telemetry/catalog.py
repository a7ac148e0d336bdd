"""The event catalogue: every telemetry event name, declared once.

Each :class:`EventSpec` names one event and gives the probe categories
that emit it, its Chrome-trace phase, the track it lands on, the
arguments it carries and the component that emits it.  The rest of the
telemetry layer derives from this one declaration:

- :class:`~repro.telemetry.probe.TelemetryHub` keeps a probe live only
  while the hub buffers events or some subscriber's prefix matches a
  name of the probe's category, and refuses an event that its probe's
  category does not declare;
- lint rule ``V106`` (:mod:`repro.verify.lint`) flags an emit call whose
  literal event name is missing here;
- the event table of ``docs/TELEMETRY.md`` is rendered from it by
  :func:`sync_doc`, and a test fails when the two differ.

Adding an event means adding its entry here first; the hub raises
:class:`~repro.common.errors.ConfigurationError` on any emit of a name
not declared for the emitting probe's category.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

INSTANT = "i"
"""A point event (Chrome trace phase ``i``)."""

COMPLETE = "X"
"""A duration event with an explicit start and length (phase ``X``)."""


@dataclass(frozen=True)
class EventSpec:
    """One catalogued event.

    ``args`` are carried by every emit; ``optional`` only by some (a
    ``<...>`` part stands for a family, e.g. ``residual.<metric>``).
    ``tracks`` may use ``<i>`` for a CPU or cache index.
    """

    name: str
    categories: Tuple[str, ...]
    phases: Tuple[str, ...]
    tracks: Tuple[str, ...]
    args: Tuple[str, ...]
    optional: Tuple[str, ...]
    source: str


def _spec(name: str, categories: str, phases: str, tracks: str, args: str,
          optional: str, source: str) -> EventSpec:
    """An :class:`EventSpec` from space-separated field lists."""
    return EventSpec(name, tuple(categories.split()), tuple(phases.split()),
                     tuple(tracks.split()), tuple(args.split()),
                     tuple(optional.split()), source)


_X, _I = COMPLETE, INSTANT

CATALOGUE: Tuple[EventSpec, ...] = (
    _spec("bus.op", "bus", _X, "bus",
          "op address initiator wait shared cache_supplied victim",
          "trace span", "`MBus.transaction`; `trace`/`span` when the "
          "initiating CPU runs a traced thread"),
    _spec("bus.ipi", "bus", _I, "bus", "target sender", "",
          "`MBus.send_interrupt`"),
    _spec("fault.bus_parity", "bus", _I, "bus",
          "op address initiator attempt", "",
          "MBus, per parity-voided tenure"),
    _spec("fault.snoop_drop", "bus", _I, "bus", "op address victim", "",
          "MBus, per swallowed snoop probe"),
    _spec("cache.transition", "cache", f"{_X} {_I}", "cache<i>",
          "stimulus before after address", "shared",
          "`SnoopyCache` (Figure 3 FSM arcs); snoops are instants "
          "carrying `shared`"),
    _spec("sched.ready", "sched", _I, "sched", "thread tid span depth", "",
          "`Scheduler.enqueue`"),
    _spec("sched.run", "sched", _X, "cpu<i>",
          "thread tid trace span reason", "",
          "kernel, dispatch to off-CPU"),
    _spec("sched.migrate", "sched", _I, "cpu<i>", "thread from_cpu to_cpu",
          "", "kernel, on cross-CPU dispatch"),
    _spec("causal.fork", "sched", _I, "cpu<i>",
          "parent child tid trace span parent_span", "",
          "kernel, on `ops.Fork` (see [CAUSAL.md](CAUSAL.md))"),
    _spec("causal.wake", "sched", _I, "sched",
          "thread tid trace span waker_span cause", "",
          "kernel, on a wakeup with a known cause"),
    _spec("dma.burst", "dma", _X, "qbus", "direction words qbus_address",
          "trace span", "`QBus.dma_{read,write}_block`; `trace`/`span` "
          "for a traced transfer"),
    _spec("fault.qbus_timeout", "dma", _I, "qbus", "attempt", "",
          "QBus, per timed-out device access"),
    _spec("fault.device_degraded", "dma", _I, "qbus", "penalty", "",
          "QBus, on entering the degraded state"),
    _spec("rpc.call", "rpc serving", _X, "rpc serve",
          "thread tid trace span parent_span cls",
          "bits packets status attempts",
          "`RpcTransport.call` (`bits`, `packets`) and "
          "`ResilientTransport.call` (`status`, `attempts`; the whole "
          "request with its retries)"),
    _spec("rpc.turnaround", "rpc", _X, "rpc", "trace span", "",
          "remote-server span inside an `RpcTransport` call"),
    _spec("rpc.local", "rpc", _X, "rpc", "thread tid trace span", "",
          "`RpcTransport.local_call`"),
    _spec("serve.shed", "serving", _I, "serve", "cls reason depth", "",
          "`ResilientTransport` admission control and tier queues"),
    _spec("serve.late", "serving", _I, "serve", "cls server elapsed", "",
          "`ResilientTransport`, per attempt over its timeout"),
    _spec("serve.retry", "serving", _I, "serve",
          "cls attempt backoff server", "",
          "`ResilientTransport`, before each retry"),
    _spec("serve.hedge", "serving", _I, "serve", "cls server", "",
          "`ResilientTransport`, per hedged request"),
    _spec("serve.breaker", "serving", _I, "serve", "server from to", "",
          "`ResilientTransport`, per circuit-breaker transition"),
    _spec("fault.inject", "faults", _I, "faults", "id kind target", "",
          "`FaultInjector` ledger (see [FAULTS.md](FAULTS.md))"),
    _spec("fault.detect", "faults", _I, "faults", "id kind outcome", "",
          "`FaultInjector` ledger"),
    _spec("fault.recover", "faults", _I, "faults", "id outcome", "",
          "`FaultInjector` ledger"),
    _spec("phase.warmup", "machine", _I, "machine", "cycles", "",
          "`FireflyMachine.run`"),
    _spec("phase.measure", "machine", _I, "machine", "cycles", "",
          "`FireflyMachine.run`"),
    _spec("phase.end", "machine", _I, "machine", "", "",
          "`FireflyMachine.run`"),
    _spec("model.divergence", "machine", _I, "machine", "metrics",
          "residual.<metric>",
          "`DivergenceMonitor`, per window with a metric out of band"),
    _spec("fault.cpu_fail", "machine", _I, "machine", "cpu", "",
          "`FireflyMachine.offline_cpu`"),
    _spec("fault.cpu_offlined", "machine", _I, "machine", "cpu writebacks",
          "", "`FireflyMachine.offline_cpu`, once the board is flushed"),
)
"""Every event the simulator emits, in table order."""

EVENTS: Dict[str, EventSpec] = {spec.name: spec for spec in CATALOGUE}
"""Event name -> its :class:`EventSpec`."""


def _events_by_category() -> Dict[str, Tuple[str, ...]]:
    table: Dict[str, Tuple[str, ...]] = {}
    for spec in CATALOGUE:
        for category in spec.categories:
            table[category] = table.get(category, ()) + (spec.name,)
    return table


CATEGORY_EVENTS: Dict[str, Tuple[str, ...]] = _events_by_category()
"""Probe category -> the event names its probes may emit."""

# -- the docs/TELEMETRY.md table ----------------------------------------

TABLE_BEGIN = "<!-- generated by repro.telemetry.catalog.sync_doc -->"
TABLE_END = "<!-- end of generated table -->"

_PHASE_NAMES = {COMPLETE: "X", INSTANT: "instant"}


def _code(items: Tuple[str, ...]) -> str:
    return ", ".join(f"`{item}`" for item in items)


def render_table() -> str:
    """The catalogue as the Markdown table ``docs/TELEMETRY.md`` shows."""
    lines = ["| name | category | phase | track | args | emitted by |",
             "|---|---|---|---|---|---|"]
    for spec in CATALOGUE:
        args = ", ".join(spec.args)
        if spec.optional:
            optional = ", ".join(spec.optional)
            args = f"{args}[, {optional}]" if args else f"[{optional}]"
        lines.append(" | ".join((
            f"| `{spec.name}`", _code(spec.categories),
            " / ".join(_PHASE_NAMES[p] for p in spec.phases),
            _code(spec.tracks), f"`{args}`" if args else "—",
            f"{spec.source} |")))
    return "\n".join(lines)


def doc_with_table(text: str) -> str:
    """``text`` with the part between the table markers re-rendered."""
    head, begin, rest = text.partition(TABLE_BEGIN)
    _, end, tail = rest.partition(TABLE_END)
    if not begin or not end:
        raise ValueError(f"document lacks the {TABLE_BEGIN!r} ... "
                         f"{TABLE_END!r} markers")
    return f"{head}{TABLE_BEGIN}\n{render_table()}\n{TABLE_END}{tail}"


def sync_doc(path) -> None:
    """Re-render the event table of the Markdown file at ``path``."""
    doc = Path(path)
    doc.write_text(doc_with_table(doc.read_text(encoding="utf-8")),
                   encoding="utf-8")
