"""The event catalogue and the demand-driven probe liveness it drives.

- the catalogue declares exactly the names the sources emit, with the
  phase, args and track each emit site uses, and docs/TELEMETRY.md
  shows it verbatim;
- a live probe refuses an event its category does not declare;
- a streaming hub keeps a probe live only while a subscriber reads its
  category, re-evaluated on subscribe / unsubscribe;
- darkening unread categories changes nothing a consumer sees: the
  request tracer, the span tracer and the flight recorder produce the
  same output on a streaming hub as on a buffering one.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.causal import FlightRecorder, LOW_RATE_CATEGORIES, RequestTracer
from repro.common.errors import ConfigurationError
from repro.common.events import Simulator
from repro.observatory import SpanTracer, trace_spans
from repro.serving import ResilienceParams, ServingWorkload
from repro.serving.engine import SERVE_ETHERNET, _steady_topology
from repro.telemetry import TelemetryHub
from repro.telemetry.catalog import (CATALOGUE, CATEGORY_EVENTS, COMPLETE,
                                     EVENTS, INSTANT, doc_with_table)
from repro.telemetry.instrument import attach_kernel, attach_serving
from repro.verify.lint import _emitted_event_name
from repro.workloads.threads_exerciser import (ExerciserParams,
                                               build_exerciser)

pytestmark = pytest.mark.telemetry

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
TELEMETRY_DOC = REPO_ROOT / "docs" / "TELEMETRY.md"

_METHOD_PHASE = {"instant": INSTANT, "instant_at": INSTANT,
                 "complete": COMPLETE}


def _emit_sites():
    """(path, call) for every emit call with a literal name in src/."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _emitted_event_name(node):
                yield path.relative_to(REPO_ROOT), node


def _declares(spec, arg: str) -> bool:
    if arg in spec.args or arg in spec.optional:
        return True
    return any(family.endswith(">") and arg.startswith(family.split("<")[0])
               for family in spec.optional)


# -- the catalogue itself ------------------------------------------------


class TestCatalogue:
    def test_declares_exactly_the_emitted_names(self):
        emitted = {_emitted_event_name(call) for _, call in _emit_sites()}
        assert emitted == set(EVENTS)
        assert len(CATALOGUE) == len(EVENTS) == 29
        assert EVENTS["rpc.call"].categories == ("rpc", "serving")

    def test_emit_sites_match_their_entries(self):
        """Phase, keyword args and literal track of every emit site."""
        problems = []
        for path, call in _emit_sites():
            spec = EVENTS[_emitted_event_name(call)]
            where = f"{path}:{call.lineno} {spec.name}"
            if _METHOD_PHASE[call.func.attr] not in spec.phases:
                problems.append(f"{where}: phase {call.func.attr}")
            given = {kw.arg for kw in call.keywords if kw.arg is not None}
            splat = any(kw.arg is None for kw in call.keywords)
            undeclared = sorted(a for a in given if not _declares(spec, a))
            if undeclared:
                problems.append(f"{where}: undeclared args {undeclared}")
            missing = sorted(set(spec.args) - given)
            if missing and not splat:
                problems.append(f"{where}: missing args {missing}")
            track = call.args[1] if len(call.args) > 1 else None
            if (isinstance(track, ast.Constant)
                    and track.value not in spec.tracks):
                problems.append(f"{where}: track {track.value!r}")
        assert problems == []

    def test_every_category_emits_something(self):
        assert set(CATEGORY_EVENTS) == {
            "bus", "cache", "sched", "dma", "rpc", "serving", "faults",
            "machine"}
        for spec in CATALOGUE:
            for category in spec.categories:
                assert spec.name in CATEGORY_EVENTS[category]

    def test_doc_table_is_generated_from_the_catalogue(self):
        text = TELEMETRY_DOC.read_text(encoding="utf-8")
        assert text == doc_with_table(text), (
            "docs/TELEMETRY.md's event table differs from the catalogue; "
            "regenerate it with repro.telemetry.catalog.sync_doc")
        for spec in CATALOGUE:
            assert f"| `{spec.name}` |" in text


# -- refusing what the catalogue does not declare -------------------------


class TestUncataloguedEvent:
    def test_live_probe_rejects_a_miscatalogued_name(self):
        hub = TelemetryHub(Simulator())
        cache = hub.probe("cache")
        assert cache.active
        with pytest.raises(ConfigurationError,
                           match=r"'bus\.op'.*'cache'"):
            cache.complete("bus.op", "cache0", 0, 4, op="MRead")
        assert hub.emitted == 0 and len(hub) == 0

    def test_unknown_name_and_unknown_category(self):
        hub = TelemetryHub(Simulator())
        with pytest.raises(ConfigurationError, match="'bus.opp'"):
            hub.probe("bus").instant("bus.opp", "bus")
        with pytest.raises(ConfigurationError, match="'gpu'"):
            hub.probe("gpu").instant("bus.op", "gpu")

    def test_streaming_subscriber_sees_the_error_too(self):
        hub = TelemetryHub(Simulator(), max_events=0)
        hub.subscribe(lambda event: None, prefix="sched.")
        sched = hub.probe("sched")
        assert sched.active
        with pytest.raises(ConfigurationError, match="'sched.typo'"):
            sched.instant_at("sched.typo", "sched", 5)


# -- liveness on demand ----------------------------------------------------


def _live(hub: TelemetryHub):
    """The categories whose probes on ``hub`` are live."""
    return {c for c in CATEGORY_EVENTS if hub.probe(c).active}


class TestLiveness:
    def test_streaming_hub_is_dark_until_subscribed(self):
        hub = TelemetryHub(Simulator(), max_events=0)
        assert _live(hub) == set()
        bus_ops = hub.subscribe(lambda event: None, prefix="bus.op")
        assert _live(hub) == {"bus"}
        faults = hub.subscribe(lambda event: None, prefix="fault.")
        assert _live(hub) == {"bus", "dma", "faults", "machine"}
        hub.unsubscribe(faults)
        assert _live(hub) == {"bus"}
        hub.unsubscribe(bus_ops)
        assert _live(hub) == set()

    @pytest.mark.parametrize("prefix, live", [
        ("rpc.call", {"rpc", "serving"}),
        ("causal.", {"sched"}),
        ("phase.", {"machine"}),
        ("bus.op.", set()),
        ("", set(CATEGORY_EVENTS)),
    ])
    def test_prefix_lights_the_categories_declaring_it(self, prefix, live):
        hub = TelemetryHub(Simulator(), max_events=0)
        fn = hub.subscribe(lambda event: None, prefix=prefix)
        assert _live(hub) == live
        hub.unsubscribe(fn)
        assert _live(hub) == set()

    def test_buffering_hub_keeps_every_probe_live(self):
        hub = TelemetryHub(Simulator(), max_events=10)
        assert _live(hub) == set(CATEGORY_EVENTS)

    def test_probes_handed_out_later_follow_demand(self):
        hub = TelemetryHub(Simulator(), max_events=0)
        hub.subscribe(lambda event: None, prefix="cache.")
        assert hub.probe("cache", "m1.").active
        assert not hub.probe("bus", "m1.").active

    def test_span_tracer_reads_bus_and_cache_only(self):
        kernel = build_exerciser(2, ExerciserParams(threads=4), seed=3)
        hub, tracer = trace_spans(kernel)
        assert _live(hub) == {"bus", "cache"}
        assert kernel.probe is hub.probe("sched")
        assert not kernel.probe.active
        assert not kernel.machine.probe.active
        tracer.close()
        assert not kernel.machine.mbus.probe.active
        assert not any(cache.probe.active for cache in kernel.machine.caches)

    def test_request_tracer_leaves_cache_and_dma_dark(self):
        workload = _steady_workload()
        hub = TelemetryHub(workload.kernel.sim, max_events=0)
        attach_kernel(hub, workload.kernel)
        attach_serving(hub, workload.resilient)
        tracer = RequestTracer(hub)
        assert _live(hub) == {"sched", "bus", "rpc", "serving"}
        tracer.close()

    def test_flight_recorder_keeps_its_low_rate_filter(self):
        """The own-hub recorder reads the low-rate categories' names,
        so demand alone keeps bus and cache dark.  ``rpc.call`` is
        catalogued under ``serving`` too, which lights that category;
        a kernel attaches no serving probe."""
        kernel = build_exerciser(2, ExerciserParams(threads=4), seed=3)
        recorder = FlightRecorder(kernel)
        assert _live(recorder.hub) == set(LOW_RATE_CATEGORIES) | {"serving"}
        assert not kernel.machine.mbus.probe.active
        assert not any(cache.probe.active for cache in kernel.machine.caches)
        assert kernel.probe.active
        recorder.detach()
        assert _live(recorder.hub) == set()


# -- streaming == buffering, for every consumer -----------------------------

SEED = 11
WARMUP, MEASURE = 60_000, 400_000


def _steady_workload() -> ServingWorkload:
    resilience = ResilienceParams(attempt_timeout_cycles=120_000,
                                  max_attempts=3,
                                  breaker_failure_threshold=3)
    return ServingWorkload(_steady_topology(), resilience, seed=SEED,
                           ethernet_params=SERVE_ETHERNET)


def _serve_steady(max_events: int):
    """steady-poisson at the quick horizon with a request tracer."""
    workload = _steady_workload()
    sim = workload.kernel.sim
    hub = TelemetryHub(sim, max_events=max_events)
    attach_kernel(hub, workload.kernel)
    attach_serving(hub, workload.resilient)
    tracer = RequestTracer(hub)
    workload.io.start()
    workload.kernel.machine.start()
    sim.run_until(sim.now + WARMUP)
    workload.mark_window()
    sim.run_until(sim.now + MEASURE)
    tracer.close()
    return workload, hub, tracer


def _request_view(tracer: RequestTracer):
    classes = tracer.classes()
    return {
        "percentiles": {cls: tracer.percentiles(cls) for cls in classes},
        "segments": {cls: tracer.segment_means(cls) for cls in classes},
        "requests": [record.to_dict() for record in tracer.finished],
        "trees": {record.trace: tracer.span_tree(record.trace)
                  for record in tracer.finished},
        "links": tracer.links(),
    }


class TestStreamingMatchesBuffering:
    def test_request_tracer_on_steady_poisson(self):
        streamed = _serve_steady(max_events=0)
        buffered = _serve_steady(max_events=1_000_000)
        assert buffered[1].dropped == 0
        # The streaming hub really left the unread categories dark ...
        assert not buffered[1].events_named("fault.")
        assert buffered[1].events_named("cache.transition")
        assert buffered[1].events_named("dma.burst")
        assert streamed[1].emitted < buffered[1].emitted
        # ... and the tracer saw the same requests regardless.
        assert streamed[2].assembled > 0
        assert _request_view(streamed[2]) == _request_view(buffered[2])
        assert (streamed[0].class_report()
                == buffered[0].class_report())

    def test_span_tracer_on_the_exerciser(self):
        def run(streaming: bool):
            kernel = build_exerciser(2, ExerciserParams(threads=6), seed=SEED)
            if streaming:
                hub, tracer = trace_spans(kernel)
            else:
                hub = TelemetryHub(kernel.sim, max_events=1_000_000)
                attach_kernel(hub, kernel)
                tracer = SpanTracer(hub)
            kernel.run(warmup_cycles=20_000, measure_cycles=60_000)
            tracer.close()
            return hub, tracer

        (s_hub, streamed), (b_hub, buffered) = run(True), run(False)
        assert b_hub.events_named("sched.run")
        assert s_hub.emitted < b_hub.emitted
        assert streamed.summary() == buffered.summary()
        assert streamed.render() == buffered.render()

    def test_flight_recorder_ring(self):
        capacity = 1_000_000

        def kernel():
            return build_exerciser(2, ExerciserParams(threads=6), seed=SEED)

        own = kernel()
        recorder = FlightRecorder(own, capacity=capacity)
        own.run(warmup_cycles=20_000, measure_cycles=60_000)

        everything = kernel()
        hub = TelemetryHub(everything.sim, max_events=1_000_000)
        attach_kernel(hub, everything)
        rider = FlightRecorder(everything, capacity=capacity, hub=hub)
        everything.run(warmup_cycles=20_000, measure_cycles=60_000)

        low_rate = [event.to_dict() for event in rider.events()
                    if set(EVENTS[event.name].categories)
                    & LOW_RATE_CATEGORIES]
        assert recorder.recorded > 0
        assert rider.recorded > recorder.recorded
        assert [event.to_dict() for event in recorder.events()] == low_rate
