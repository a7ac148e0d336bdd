"""Command-line interface: ``firefly-sim``.

Subcommands:

``simulate``
    Build a machine and run the calibrated workload; print the metric
    summary (optionally the Figure 1 diagram and the bus trace).
``table1``
    Print the analytic Table 1 for a chosen parameter set.
``exerciser``
    Run the Topaz Threads exerciser (the Table 2 workload) and print
    the measurement block.
``fsm``
    Print a coherence protocol's measured state-transition table
    (Figure 3 for the firefly protocol).
``trace``
    Run a workload with full telemetry, write a Chrome-trace/JSONL
    file, and print the per-phase ASCII timeline.
``postmortem``
    Render a ``firefly-crash/1`` crash report (from a crash JSON or a
    chaos report that captured one) as a human-readable postmortem:
    the error, the wait-for cycle, per-CPU run state and the flight
    recorder's causal timeline.  ``--scenario deadlock`` runs the
    pinned AB/BA deadlock instead and captures the report live
    (``--json`` saves it).  See docs/CAUSAL.md.
``verify``
    Static analysis: run the guard checker over every protocol's
    declarative DSL definition (exhaustiveness, determinism,
    reachability, fact consistency — docs/PROTOCOL_DSL.md), then
    exhaustively model-check the protocol's reachable N-cache global
    state space against the I1–I4 coherence invariants plus
    transition-table structural properties, and run the
    simulation-safety linter over the sources.  ``--json`` writes the
    findings (stable ordering) for CI.  Exits non-zero on any
    violation; see docs/VERIFY.md.
``bench``
    Run the pinned canary suite and write ``BENCH_<n>.json``: each
    scenario's simulated metrics from one run at the pinned seed, and
    the two paired CPU-time gates on the cost of observing (disabled
    telemetry and the flight recorder).  Exits non-zero when a gate
    fails.  Nothing here times a scenario: speed comparisons between
    revisions use ``fireflybench/`` through ``scripts/ab.py``.  See
    docs/OBSERVATORY.md.
``chaos``
    Run the seeded fault-injection campaigns: pinned scenarios covering
    bus parity corruption, SECDED memory flips, dropped snoops, CPU
    board failure and QBus device timeouts, each reporting detection
    latency, recovery time and degradation vs a fault-free twin.
    Identical seeds produce byte-identical reports; exits non-zero if
    any scenario's recovery story fails.  See docs/FAULTS.md.
``serve``
    Run the resilient-serving SLO campaigns: open-loop client tiers
    firing Poisson/bursty/diurnal arrivals at RPC server pools through
    the resilience layer (deadlines, retries, circuit breakers, load
    shedding, hedging), reporting per-class p50/p95/p99 latency plus
    shed/retry/hedge counts, with the latency-under-chaos scenario
    composing fault injection and reporting degradation vs a
    fault-free twin.  Exits non-zero if any scenario violates its SLO
    gates.  See docs/SERVING.md.
``sweep``
    Run a (processor-count x seed) grid of machine runs and print (or
    write as JSON) the purely simulated metrics.  The document is
    byte-identical at any ``--jobs`` value.
``campaign``
    The campaign manager (see docs/CAMPAIGNS.md): ``run`` executes a
    declarative YAML/JSON campaign spec against the persistent result
    ledger, skipping already-completed trials, checking pinned golden
    digests, and writing a byte-deterministic merged report;
    ``resume`` is ``run`` that refuses to start from an empty ledger;
    ``report`` renders the static HTML dashboard from the committed
    ``BENCH_<n>.json`` files plus the campaign ledgers;
    ``gc`` compacts a ledger to the rows the current spec and git
    revision can still use.

``bench``, ``chaos``, ``serve``, ``sweep`` and ``campaign run`` run
their seeded trials through one pipeline (see
:mod:`repro.observatory.trials`) and accept ``--jobs N`` to fan them
out over worker processes; the job count changes no simulated bit, and
a failing trial is reported under the same name at every job count.

``simulate`` and ``exerciser`` also accept ``--telemetry-out PATH`` to
capture a trace of an ordinary run, ``--spans`` for transaction span
percentiles, and ``--divergence`` for the live analytic-model
residual report.  Every file-writing flag (``--telemetry-out``;
chaos, serve, sweep, verify and postmortem ``--json``; campaign
``--report``/``--out``) refuses to overwrite an existing file unless
``--force`` is passed.

Examples::

    firefly-sim simulate --processors 5 --protocol firefly
    firefly-sim simulate --generation cvax --processors 7 --diagram
    firefly-sim table1 --miss-rate 0.1
    firefly-sim exerciser --processors 5 --threads 16
    firefly-sim exerciser --processors 5 --telemetry-out run.trace.json
    firefly-sim exerciser --processors 5 --spans --divergence
    firefly-sim trace --workload exerciser --out trace.json
    firefly-sim postmortem --scenario deadlock --json crash.json
    firefly-sim postmortem crash.json
    firefly-sim fsm --protocol dragon
    firefly-sim verify --protocol firefly
    firefly-sim verify --all-protocols --dma
    firefly-sim verify --all-protocols --json findings.json
    firefly-sim bench --quick
    firefly-sim bench --quick --jobs 4 --out-dir /tmp/bench
    firefly-sim chaos --quick
    firefly-sim chaos --seed 2024 --scenario snoop-storm --json report.json
    firefly-sim chaos --quick --jobs 4
    firefly-sim serve --quick
    firefly-sim serve --scenario latency-under-chaos --json serve.json
    firefly-sim serve --quick --jobs 2
    firefly-sim sweep --processors 1,3,5,7 --seeds 1987 --jobs 4
    firefly-sim campaign run examples/campaigns/quick.yaml --jobs 2
    firefly-sim campaign resume examples/campaigns/full.yaml
    firefly-sim campaign report --out dashboard.html
    firefly-sim campaign gc examples/campaigns/quick.yaml
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analytic.queueing import AnalyticParameters, FireflyAnalyticModel
from repro.cache.protocols import available_protocols
from repro.reporting import Column, TextTable, render_state_diagram, \
    render_system_diagram
from repro.system import (
    CoherenceChecker,
    FireflyConfig,
    FireflyMachine,
    Generation,
)
from repro.telemetry import (
    DEFAULT_SAMPLE_INTERVAL,
    telemetry_for_kernel,
    telemetry_for_machine,
    write_export,
)
from repro.workloads.threads_exerciser import (
    ExerciserParams,
    build_exerciser,
    exerciser_expectations,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firefly-sim",
        description="Simulate the DEC SRC Firefly multiprocessor "
                    "(Thacker, Stewart & Satterthwaite, ASPLOS 1987)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the calibrated workload")
    sim.add_argument("--processors", type=int, default=5)
    sim.add_argument("--generation", choices=("microvax", "cvax"),
                     default="microvax")
    sim.add_argument("--protocol", choices=sorted(available_protocols()),
                     default="firefly")
    sim.add_argument("--memory-mb", type=int, default=None)
    sim.add_argument("--seed", type=int, default=1987)
    sim.add_argument("--warmup-cycles", type=int, default=200_000)
    sim.add_argument("--measure-cycles", type=int, default=300_000)
    sim.add_argument("--diagram", action="store_true",
                     help="print the Figure 1 system diagram")
    sim.add_argument("--skip-check", action="store_true",
                     help="skip the coherence audit")
    _add_telemetry_args(sim)

    table1 = sub.add_parser("table1", help="print the analytic Table 1")
    table1.add_argument("--miss-rate", type=float, default=0.2)
    table1.add_argument("--dirty-fraction", type=float, default=0.25)
    table1.add_argument("--shared-write-fraction", type=float, default=0.1)

    exerciser = sub.add_parser("exerciser",
                               help="run the Table 2 Threads exerciser")
    exerciser.add_argument("--processors", type=int, default=5)
    exerciser.add_argument("--threads", type=int, default=16)
    exerciser.add_argument("--seed", type=int, default=1987)
    exerciser.add_argument("--measure-cycles", type=int, default=400_000)
    _add_telemetry_args(exerciser)

    fsm = sub.add_parser("fsm", help="print a protocol's measured FSM")
    fsm.add_argument("--protocol", choices=sorted(available_protocols()),
                     default="firefly")

    verify = sub.add_parser(
        "verify", help="statically verify protocols and lint the sources")
    verify.add_argument("--protocol", choices=sorted(available_protocols()),
                        default=None,
                        help="verify one protocol (default: all)")
    verify.add_argument("--all-protocols", action="store_true",
                        help="verify every registered protocol")
    verify.add_argument("--caches", type=int, default=3,
                        help="caches in the modelled system (default 3)")
    verify.add_argument("--dma", action="store_true",
                        help="also model DMA stimuli through the I/O cache")
    lint_scope = verify.add_mutually_exclusive_group()
    lint_scope.add_argument("--no-lint", action="store_true",
                            help="skip the simulation-safety linter")
    lint_scope.add_argument("--lint-only", action="store_true",
                            help="run only the linter, no model checking")
    verify.add_argument("--lint-path", action="append", default=None,
                        metavar="PATH",
                        help="lint these files/dirs (default: the "
                             "installed repro package sources)")
    verify.add_argument("--json", metavar="PATH", default=None,
                        help="write the findings document (guard/"
                             "structural/invariant findings, minimal "
                             "counterexamples, lint hits) as JSON with "
                             "stable ordering")
    verify.add_argument("--force", action="store_true",
                        help="overwrite an existing --json file")

    trace = sub.add_parser(
        "trace", help="run a workload under full telemetry")
    trace.add_argument("--workload", choices=("exerciser", "synthetic"),
                       default="exerciser")
    trace.add_argument("--out", default="firefly.trace.json",
                       help="output path (default firefly.trace.json)")
    trace.add_argument("--format", choices=("chrome", "jsonl"), default=None,
                       help="export format (default: by file suffix)")
    trace.add_argument("--processors", type=int, default=5)
    trace.add_argument("--threads", type=int, default=16)
    trace.add_argument("--protocol", choices=sorted(available_protocols()),
                       default="firefly")
    trace.add_argument("--seed", type=int, default=1987)
    trace.add_argument("--warmup-cycles", type=int, default=100_000)
    trace.add_argument("--measure-cycles", type=int, default=200_000)
    trace.add_argument("--sample-interval", type=int,
                       default=DEFAULT_SAMPLE_INTERVAL)

    postmortem = sub.add_parser(
        "postmortem", help="render a crash report (or run the pinned "
                           "deadlock scenario and capture one)")
    postmortem.add_argument("report", nargs="?", metavar="PATH",
                            help="crash JSON (firefly-crash/1) or a "
                                 "chaos report containing one; omit "
                                 "when using --scenario")
    postmortem.add_argument("--scenario", choices=("deadlock",),
                            default=None,
                            help="run this pinned crash scenario and "
                                 "postmortem it live")
    postmortem.add_argument("--seed", type=int, default=None,
                            help="scenario seed (default: the pinned "
                                 "seed)")
    postmortem.add_argument("--json", metavar="PATH", default=None,
                            help="write the captured crash report as "
                                 "JSON (sorted keys, deterministic)")
    postmortem.add_argument("--force", action="store_true",
                            help="overwrite an existing --json file")

    bench = sub.add_parser(
        "bench", help="run the pinned benchmark suite (BENCH_<n>.json)")
    bench.add_argument("--quick", action="store_true",
                       help="short horizons (CI mode)")
    bench.add_argument("--scenario", action="append", default=None,
                       metavar="NAME",
                       help="run only this scenario (repeatable)")
    bench.add_argument("--out-dir", default=".",
                       help="directory for BENCH_<n>.json (default: .)")
    bench.add_argument("--skip-overhead", action="store_true",
                       help="skip the observability overhead gates")
    bench.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the scenario "
                            "fan-out; simulated results are identical "
                            "at any job count (default 1)")

    for name, blurb in (("chaos", "run the seeded fault-injection "
                                  "campaigns"),
                        ("serve", "run the resilient-serving SLO "
                                  "campaigns")):
        _add_scenario_args(sub.add_parser(name, help=blurb))

    sweep = sub.add_parser(
        "sweep", help="run a (processors x seed) metric sweep")
    sweep.add_argument("--processors", default="1,2,3,4,5,6,7",
                       metavar="LIST",
                       help="comma-separated processor counts "
                            "(default 1,2,3,4,5,6,7 — the Table 1 axis)")
    sweep.add_argument("--seeds", default="1987,1988,1989", metavar="LIST",
                       help="comma-separated seeds (default 1987,1988,1989)")
    sweep.add_argument("--protocol", choices=sorted(available_protocols()),
                       default="firefly")
    sweep.add_argument("--generation", choices=("microvax", "cvax"),
                       default="microvax")
    sweep.add_argument("--warmup-cycles", type=int, default=None,
                       help="warm-up cycles per point")
    sweep.add_argument("--measure-cycles", type=int, default=None,
                       help="measured cycles per point")
    sweep.add_argument("--json", metavar="PATH", default=None,
                       help="write the sweep document as JSON "
                            "(sorted keys; byte-identical at any --jobs)")
    sweep.add_argument("--force", action="store_true",
                       help="overwrite an existing --json file")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes for grid fan-out (default 1)")

    campaign = sub.add_parser(
        "campaign", help="declarative sweep campaigns with a "
                         "persistent, resumable result store")
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    def _campaign_common(sub_parser, with_spec=True):
        if with_spec:
            sub_parser.add_argument("spec", metavar="SPEC",
                                    help="campaign spec file "
                                         "(.yaml/.yml/.json)")
        sub_parser.add_argument("--store-dir", default=".campaign",
                                metavar="DIR",
                                help="result-store directory holding "
                                     "the ledgers (default .campaign)")

    for verb, blurb in (("run", "run a campaign, skipping trials the "
                                "ledger already holds"),
                        ("resume", "like run, but refuse to start "
                                   "from an empty ledger")):
        runp = campaign_sub.add_parser(verb, help=blurb)
        _campaign_common(runp)
        runp.add_argument("--jobs", type=int, default=1,
                          help="worker processes for trial fan-out "
                               "(default 1)")
        runp.add_argument("--report", metavar="PATH", default=None,
                          help="write the merged campaign report as "
                               "JSON (byte-identical for identical "
                               "ledger content at any --jobs)")
        runp.add_argument("--force", action="store_true",
                          help="overwrite an existing --report file")
        runp.add_argument("--print-golden", action="store_true",
                          help="print a ready-to-paste golden: section "
                               "pinning this run's digests")

    reportp = campaign_sub.add_parser(
        "report", help="render the static HTML dashboard")
    _campaign_common(reportp, with_spec=False)
    reportp.add_argument("--bench-dir", default=".", metavar="DIR",
                         help="directory holding the BENCH_<n>.json "
                              "files (default .)")
    reportp.add_argument("--out", default="dashboard.html",
                         metavar="PATH",
                         help="output HTML path (default "
                              "dashboard.html)")
    reportp.add_argument("--force", action="store_true",
                         help="overwrite an existing --out file")

    gcp = campaign_sub.add_parser(
        "gc", help="compact a campaign ledger to currently-live rows")
    _campaign_common(gcp)

    return parser


def _add_telemetry_args(sub_parser) -> None:
    sub_parser.add_argument(
        "--telemetry-out", metavar="PATH", default=None,
        help="capture telemetry and write a Chrome-trace JSON "
             "(or JSONL if PATH ends in .jsonl)")
    sub_parser.add_argument(
        "--force", action="store_true",
        help="overwrite an existing --telemetry-out file")
    sub_parser.add_argument(
        "--sample-interval", type=int, default=DEFAULT_SAMPLE_INTERVAL,
        help="cycles between time-series samples "
             f"(default {DEFAULT_SAMPLE_INTERVAL})")
    sub_parser.add_argument(
        "--spans", action="store_true",
        help="trace MBus/miss spans; print percentile and "
             "critical-path tables")
    sub_parser.add_argument(
        "--divergence", action="store_true",
        help="continuously compare the analytic model against "
             "measured rates; print the residual report")


def _add_scenario_args(sub_parser) -> None:
    """The flags ``chaos`` and ``serve`` share."""
    sub_parser.add_argument("--seed", type=int, default=1987,
                            help="scenario seed (default 1987); the same "
                                 "seed reproduces the same run")
    sub_parser.add_argument("--quick", action="store_true",
                            help="short horizons (CI smoke mode)")
    sub_parser.add_argument("--scenario", action="append", default=None,
                            metavar="NAME",
                            help="run only this scenario (repeatable)")
    sub_parser.add_argument("--list", action="store_true",
                            help="list the pinned scenarios and exit")
    sub_parser.add_argument("--json", metavar="PATH", default=None,
                            help="also write the report as JSON")
    sub_parser.add_argument("--force", action="store_true",
                            help="overwrite an existing --json file")
    sub_parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes for scenario fan-out; "
                                 "the report is byte-identical at any job "
                                 "count (default 1)")


def _guard_output(path_str, force: bool, flag: str) -> None:
    """Refuse to overwrite an existing output file without ``--force``.

    Called before the simulation runs, so a long measurement is never
    wasted on a file that will not be written.  Shared by every
    file-writing flag.
    """
    from repro.common.errors import ConfigurationError
    if path_str is not None and Path(path_str).exists() and not force:
        raise ConfigurationError(
            f"{flag} {path_str} already exists; pass --force to "
            f"overwrite it")


def _write_json(path: str, document) -> None:
    """Write a document as indented JSON with sorted keys."""
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True)
                          + "\n")


def _begin_telemetry(args, subject, for_kernel: bool):
    """(hub, sampler) when ``--telemetry-out`` was given, else (None, None)."""
    if getattr(args, "telemetry_out", None) is None:
        return None, None
    _guard_output(args.telemetry_out, args.force, "--telemetry-out")
    setup = telemetry_for_kernel if for_kernel else telemetry_for_machine
    hub, sampler = setup(subject, interval=args.sample_interval)
    sampler.start()
    return hub, sampler


def _begin_observatory(args, subject, hub):
    """(tracer, monitor) for ``--spans`` / ``--divergence``, else Nones.

    When a telemetry hub is already attached (``--telemetry-out``) the
    span tracer subscribes to it; otherwise it brings up its own
    non-buffering hub via :func:`repro.observatory.trace_spans`.
    """
    tracer = monitor = None
    if getattr(args, "spans", False):
        from repro.observatory import SpanTracer, trace_spans
        if hub is not None:
            tracer = SpanTracer(hub)
        else:
            _, tracer = trace_spans(subject)
    if getattr(args, "divergence", False):
        from repro.observatory import DivergenceMonitor
        monitor = DivergenceMonitor(subject)
        monitor.start()
    return tracer, monitor


def _finish_observatory(tracer, monitor) -> None:
    if tracer is not None:
        tracer.close()
        print()
        print(tracer.render())
    if monitor is not None:
        monitor.stop()
        print()
        print(monitor.report().render())


def _finish_telemetry(args, hub, sampler) -> None:
    """Stop sampling, export, and print the per-phase timeline."""
    if hub is None:
        return
    sampler.stop()
    fmt = write_export(args.telemetry_out, hub, [sampler],
                       fmt=getattr(args, "format", None))
    from repro.reporting import render_phase_timeline
    print()
    print(render_phase_timeline(hub, sampler))
    print()
    print(f"telemetry: {hub.emitted} events ({hub.dropped} dropped), "
          f"{sampler.dropped} samples aged out -> "
          f"{args.telemetry_out} [{fmt}]")


def _cmd_simulate(args) -> int:
    config = FireflyConfig(
        processors=args.processors,
        generation=Generation(args.generation),
        protocol=args.protocol,
        memory_megabytes=args.memory_mb,
        seed=args.seed)
    machine = FireflyMachine(config)
    if args.diagram:
        print(render_system_diagram(machine))
        print()
    hub, sampler = _begin_telemetry(args, machine, for_kernel=False)
    tracer, monitor = _begin_observatory(args, machine, hub)
    metrics = machine.run(warmup_cycles=args.warmup_cycles,
                          measure_cycles=args.measure_cycles)
    print(metrics.summary())
    if not args.skip_check:
        audited = CoherenceChecker(machine).check()
        print(f"coherence OK ({audited} cached words audited)")
    _finish_observatory(tracer, monitor)
    _finish_telemetry(args, hub, sampler)
    return 0


def _cmd_table1(args) -> int:
    model = FireflyAnalyticModel(AnalyticParameters(
        miss_rate=args.miss_rate,
        dirty_fraction=args.dirty_fraction,
        shared_write_fraction=args.shared_write_fraction))
    points = model.table1()
    table = TextTable([Column("NP", "d"), Column("L", ".2f"),
                       Column("TPI", ".1f"), Column("RP", ".2f"),
                       Column("TP", ".2f")])
    for point in points:
        table.add_row(int(point.processors), point.load, point.tpi,
                      point.relative_performance, point.total_performance)
    print(table.render())
    print(f"knee: ~{model.knee_processors()} processors before marginal "
          f"gain becomes unattractive")
    return 0


def _cmd_exerciser(args) -> int:
    kernel = build_exerciser(args.processors,
                             ExerciserParams(threads=args.threads),
                             seed=args.seed)
    hub, sampler = _begin_telemetry(args, kernel, for_kernel=True)
    tracer, monitor = _begin_observatory(args, kernel, hub)
    metrics = kernel.run(warmup_cycles=200_000,
                         measure_cycles=args.measure_cycles)
    expected = exerciser_expectations(args.processors)
    print(f"expected (analytic): reads {expected['reads_krate']:.0f}K/s  "
          f"writes {expected['writes_krate']:.0f}K/s  "
          f"total {expected['total_krate']:.0f}K/s")
    print(metrics.summary())
    print(f"migrations: {kernel.total_migrations}   context switches: "
          f"{kernel.stats['context_switches'].total}")
    _finish_observatory(tracer, monitor)
    _finish_telemetry(args, hub, sampler)
    return 0


def _cmd_fsm(args) -> int:
    print(render_state_diagram(args.protocol))
    return 0


def _counterexample_dict(counterexample) -> dict:
    from repro.verify.model import format_state
    return {
        "protocol": counterexample.protocol,
        "violation": str(counterexample.violation),
        "trace": [
            {"step": step, "stimulus": kind, "cache": cache,
             "state": format_state(state)}
            for step, ((kind, cache), state)
            in enumerate(counterexample.trace, start=1)
        ],
    }


def _cmd_verify(args) -> int:
    from repro.cache.protocols import PROTOCOL_DEFINITIONS
    from repro.verify import check_guards, lint_paths, verify_protocol

    _guard_output(args.json, args.force, "--json")
    document = {"protocols": {}, "lint": []}
    failures = 0

    if not args.lint_only:
        if args.protocol and not args.all_protocols:
            names = [args.protocol]
        else:
            names = sorted(available_protocols())
        for name in names:
            # Stage 1: the guard checker proves the declarative
            # definition total, deterministic, reachable and
            # fact-consistent before any state is explored.
            guard_findings = sorted(check_guards(PROTOCOL_DEFINITIONS[name]),
                                    key=lambda f: f.sort_key())
            entry = {
                "guard_findings": [
                    {"rule": f.rule, "state": f.state,
                     "stimulus": f.stimulus, "message": f.message}
                    for f in guard_findings],
            }
            for finding in guard_findings:
                print(f"guard: {finding}")
            if guard_findings:
                failures += 1
                entry["model"] = None
                print(f"[FAIL] {name}: {len(guard_findings)} guard "
                      f"finding(s); model checking skipped")
            else:
                # Stage 2: exhaustive model check of the global state
                # space on the live single-line rig.
                report = verify_protocol(name, caches=args.caches,
                                         include_dma=args.dma)
                print(report.render())
                entry["model"] = {
                    "ok": report.ok,
                    "caches": report.caches,
                    "states_explored": report.states_explored,
                    "transitions_taken": report.transitions_taken,
                    "structural_findings": [
                        str(f) for f in report.structural_findings],
                    "counterexample": (
                        None if report.counterexample is None
                        else _counterexample_dict(report.counterexample)),
                }
                if not report.ok:
                    failures += 1
            document["protocols"][name] = entry

    if not args.no_lint:
        package_root = Path(__file__).resolve().parent
        targets = args.lint_path or [package_root]
        findings = lint_paths(targets)
        for finding in findings:
            print(finding)
        print(f"lint: {len(findings)} finding(s) over "
              f"{', '.join(str(t) for t in targets)}")
        document["lint"] = [
            {"path": f.path, "line": f.line, "col": f.col,
             "rule": f.rule, "message": f.message}
            for f in findings]
        failures += len(findings)

    document["ok"] = failures == 0
    if args.json is not None:
        _write_json(args.json, document)
        print(f"verify: wrote {args.json}")

    if failures:
        print(f"verify: FAILED ({failures} problem(s))", file=sys.stderr)
        return 1
    print("verify: all checks passed")
    return 0


def _cmd_trace(args) -> int:
    from repro.reporting import render_phase_timeline
    if args.workload == "exerciser":
        kernel = build_exerciser(args.processors,
                                 ExerciserParams(threads=args.threads),
                                 seed=args.seed)
        hub, sampler = telemetry_for_kernel(kernel,
                                            interval=args.sample_interval)
        subject = kernel
    else:
        config = FireflyConfig(processors=args.processors,
                               protocol=args.protocol, seed=args.seed)
        machine = FireflyMachine(config)
        hub, sampler = telemetry_for_machine(machine,
                                             interval=args.sample_interval)
        subject = machine
    sampler.start()
    metrics = subject.run(warmup_cycles=args.warmup_cycles,
                          measure_cycles=args.measure_cycles)
    sampler.stop()
    fmt = write_export(args.out, hub, [sampler], fmt=args.format)
    print(render_phase_timeline(hub, sampler))
    print()
    print(metrics.summary())
    print()
    print(f"telemetry: {hub.emitted} events ({hub.dropped} dropped), "
          f"{sampler.dropped} samples aged out -> "
          f"{args.out} [{fmt}]")
    if fmt == "chrome":
        print("open in chrome://tracing or https://ui.perfetto.dev")
    return 0


def _cmd_postmortem(args) -> int:
    from repro.causal import (PINNED_DEADLOCK_SEED, extract_crash,
                              render_crash_report, run_pinned_deadlock)
    from repro.common.errors import ConfigurationError

    _guard_output(args.json, args.force, "--json")
    if args.scenario == "deadlock":
        seed = args.seed if args.seed is not None else PINNED_DEADLOCK_SEED
        report = run_pinned_deadlock(seed=seed)
    elif args.report is not None:
        document = json.loads(Path(args.report).read_text())
        report = extract_crash(document)
        if report is None:
            raise ConfigurationError(
                f"{args.report} holds no firefly-crash/1 report "
                f"(pass a crash JSON or a chaos report that captured "
                f"one)")
    else:
        raise ConfigurationError(
            "pass a crash JSON path or --scenario deadlock")
    if args.json is not None:
        _write_json(args.json, report)
    print(render_crash_report(report))
    if args.json is not None:
        print(f"postmortem: wrote {args.json}")
    return 0


def _cmd_bench(args) -> int:
    from repro.common.errors import ConfigurationError
    from repro.observatory import run_suite, write_bench
    from repro.observatory.bench import overhead_verdicts

    out_dir = Path(args.out_dir)
    if not out_dir.is_dir():
        raise ConfigurationError(f"--out-dir {out_dir} is not a directory")
    document = run_suite(quick=args.quick, scenarios=args.scenario,
                         skip_overhead=args.skip_overhead,
                         jobs=args.jobs,
                         progress=print)
    path = write_bench(document, out_dir)
    overhead = document["overhead"]
    if overhead is not None:
        for passed, line in overhead_verdicts(overhead):
            if passed:
                print(line)
            else:
                print(f"error: {line} exceeds its budget", file=sys.stderr)
    print(f"bench: wrote {path}")
    return 0 if overhead is None or overhead["ok"] else 1


def _cmd_scenarios(args) -> int:
    """``chaos`` and ``serve``: run pinned scenarios, exit 1 on a FAIL."""
    if args.command == "chaos":
        from repro.faults.chaos import CHAOS_SCENARIOS as pinned
        from repro.faults.chaos import run_campaign as run
    else:
        from repro.serving.engine import SERVE_SCENARIOS as pinned
        from repro.serving.engine import run_serve_campaign as run

    if args.list:
        width = max(len(scenario.name) for scenario in pinned) + 2
        for scenario in pinned:
            print(f"{scenario.name:<{width}} {scenario.description}")
        return 0
    _guard_output(args.json, args.force, "--json")
    report = run(seed=args.seed, quick=args.quick,
                 scenarios=args.scenario, jobs=args.jobs)
    print(report.render())
    if args.json is not None:
        _write_json(args.json, report.to_dict())
        print(f"{args.command}: wrote {args.json}")
    return 0 if report.ok else 1


def _parse_int_list(text: str, flag: str) -> List[int]:
    from repro.common.errors import ConfigurationError
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigurationError(f"{flag} expects comma-separated "
                                 f"integers, got {text!r}") from None
    if not values:
        raise ConfigurationError(f"{flag} is empty")
    return values


def _cmd_sweep(args) -> int:
    from repro.observatory.runner import (SWEEP_MEASURE, SWEEP_WARMUP,
                                          run_sweep)

    warmup = args.warmup_cycles if args.warmup_cycles is not None \
        else SWEEP_WARMUP
    measure = args.measure_cycles if args.measure_cycles is not None \
        else SWEEP_MEASURE
    _guard_output(args.json, args.force, "--json")
    document = run_sweep(
        _parse_int_list(args.processors, "--processors"),
        _parse_int_list(args.seeds, "--seeds"),
        protocol=args.protocol, generation=args.generation,
        warmup=warmup, measure=measure, jobs=args.jobs, progress=print)
    table = TextTable([Column("NP", "d"), Column("seed", "d"),
                       Column("bus load", ".4f"), Column("TPI", ".3f"),
                       Column("miss rate", ".4f")])
    for point in document["points"]:
        table.add_row(point["processors"], point["seed"],
                      point["bus_load"], point["mean_tpi"],
                      point["mean_miss_rate"])
    print(table.render())
    if args.json is not None:
        _write_json(args.json, document)
        print(f"sweep: wrote {args.json}")
    return 0


def _cmd_campaign(args) -> int:
    from repro.campaign import CampaignStore, load_spec

    store = CampaignStore(args.store_dir)

    if args.campaign_command in ("run", "resume"):
        from repro.campaign import golden_block, run_campaign_spec

        _guard_output(args.report, args.force, "--report")
        spec = load_spec(args.spec)
        run = run_campaign_spec(
            spec, store, jobs=args.jobs,
            resume_only=args.campaign_command == "resume",
            progress=print)
        print(f"campaign {spec.name}: {run.total} trial(s) merged "
              f"({run.ran} ran, {run.skipped} skipped via ledger)")
        if args.report is not None:
            _write_json(args.report, run.report)
            print(f"campaign: wrote {args.report}")
        if args.print_golden:
            print()
            print(golden_block(run))
        for label in run.golden_failures:
            verdict = run.golden[label]
            print(f"golden drift: {label} is {verdict['actual']}, "
                  f"pinned {verdict['pinned']}", file=sys.stderr)
        if run.golden:
            ok_count = sum(1 for v in run.golden.values()
                           if v["verdict"] == "ok")
            print(f"golden: {ok_count}/{len(run.golden)} pinned "
                  f"trial(s) match")
        return 0 if run.ok else 1

    if args.campaign_command == "report":
        from repro.observatory import bench_files, load_bench
        from repro.reporting import render_dashboard

        _guard_output(args.out, args.force, "--out")
        bench_dir = Path(args.bench_dir)
        docs = [(path.name, load_bench(path))
                for path in bench_files(bench_dir)]
        ledgers = [(name, list(store.load(name).rows.values()))
                   for name in store.campaigns()]
        Path(args.out).write_text(render_dashboard(docs, ledgers))
        trials = sum(len(rows) for _, rows in ledgers)
        print(f"campaign report: {len(docs)} BENCH file(s), "
              f"{len(ledgers)} ledger(s) ({trials} trial(s)) -> "
              f"{args.out}")
        return 0

    # gc
    from repro.campaign import gc_campaign

    spec = load_spec(args.spec)
    kept, dropped = gc_campaign(spec, store)
    print(f"campaign gc: {spec.name}: kept {kept} row(s), "
          f"dropped {dropped}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "table1": _cmd_table1,
    "exerciser": _cmd_exerciser,
    "fsm": _cmd_fsm,
    "trace": _cmd_trace,
    "postmortem": _cmd_postmortem,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "chaos": _cmd_scenarios,
    "serve": _cmd_scenarios,
    "sweep": _cmd_sweep,
    "campaign": _cmd_campaign,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (console script ``firefly-sim``)."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # present config errors tidily
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
