"""Firefly simulator benchmark: host speed and paper fidelity.

Run from the repository root::

    python3 fireflybench/run.py --workload table2-exerciser --seed 1987 \\
        --seconds 20 --trace 0

With ``--trace 0`` the simulator's import is timed in a few fresh
interpreters, the workload is built and run repeatedly at the given
seed for about ``--seconds`` seconds, and the end-to-end metrics are
reported: simulated MBus cycles per host second, set-up time and peak
memory.  With ``--trace 1`` a few untraced trials are followed by one
trial under the standard library profiler, and the per-layer metrics are
reported instead: each layer's share of host self time, its simulated
work counts, and host nanoseconds per unit of that work.

Every trial's outputs are checked: repeats and the traced trial must
produce bit-identical simulated statistics, the serving SLOs must hold,
caches must be coherent and the accounting identities must balance.  A
trial that fails a check counts as a failed operation and its cause is
printed.  A human-readable report goes to standard output, followed by
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Host time per unit of work: (metric, layer, work count it divides by).
NS_PER_UNIT = (
    ("events.ns_per_event", "events", "events.dispatched"),
    ("processor.ns_per_instr", "processor", "processor.instructions"),
    ("refgen.ns_per_ref", "refgen", "refgen.refs"),
    ("cache.ns_per_ref", "cache", "cache.refs"),
    ("protocol.ns_per_ref", "protocol", "cache.refs"),
    ("mbus.ns_per_op", "mbus", "mbus.ops"),
    ("topaz.ns_per_switch", "topaz", "topaz.context_switches"),
    ("telemetry.ns_per_event", "telemetry", "telemetry.events_emitted"),
    ("rng.ns_per_draw", "rng", "rng.draws"),
    ("vectorized.ns_per_instr", "vectorized", "vectorized.instructions"),
)

#: Work counts reported as they are, with their units.
COUNT_UNITS = {
    "events.dispatched": "count", "processor.instructions": "count",
    "processor.stall_cycles": "cycles", "refgen.refs": "count",
    "cache.refs": "count", "cache.snoops": "count",
    "protocol.mshared_writes": "count", "protocol.dirty_victims": "count",
    "mbus.ops": "count", "mbus.load": "ratio",
    "mbus.arb_wait_cycles": "cycles", "mbus.retries": "count",
    "memory.line_reads": "count", "memory.line_writes": "count",
    "topaz.context_switches": "count", "topaz.migrations": "count",
    "topaz.blocks": "count", "io.dma_words": "count", "io.packets": "count",
    "serving.calls": "count", "serving.retries": "count",
    "serving.shed": "count", "serving.success_ratio": "ratio",
    "telemetry.events_emitted": "count", "rng.draws": "count",
    "vectorized.instructions": "count",
}

#: Work per simulated MBus cycle: (metric, work count).
PER_TICK = (("events.per_tick", "events.dispatched"),
            ("mbus.ops_per_tick", "mbus.ops"),
            ("cache.refs_per_tick", "cache.refs"))

#: The Mersenne Twister's C methods: every random draw calls one of them.
_DRAW_METHODS = ("<method 'random' of '_random.Random' objects>",
                 "<method 'getrandbits' of '_random.Random' objects>")

#: Fresh interpreters the simulator's import is timed in (odd: a median).
IMPORT_SAMPLES = 5

#: Run in a fresh interpreter with ``SRC`` and ``HERE`` as arguments:
#: prints the import's time on the reference host.
_IMPORT_PROBE = """
import sys
sys.path[:0] = sys.argv[1:]
from hostspeed import Timed
with Timed() as timing:
    import workloads
print(timing.normalized)
"""


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class FastPathCounter:
    """Counts cache accesses completed by the non-generator fast paths.

    Installed around the traced trial only: it wraps the two class
    methods with counting functions, whose own profile entries are left
    out of the layer shares.
    """

    NAMES = ("_counted_read_fast", "_counted_write_fast")

    def __init__(self, cache_class) -> None:
        self.cache_class = cache_class
        self.completed = 0
        self._saved = (cache_class.cpu_read_fast, cache_class.cpu_write_fast)

    def __enter__(self) -> "FastPathCounter":
        read_fast, write_fast = self._saved
        counter = self

        def _counted_read_fast(cache, ref):
            done = read_fast(cache, ref)
            counter.completed += done
            return done

        def _counted_write_fast(cache, ref, value):
            done = write_fast(cache, ref, value)
            counter.completed += done
            return done

        self.cache_class.cpu_read_fast = _counted_read_fast
        self.cache_class.cpu_write_fast = _counted_write_fast
        return self

    def __exit__(self, *exc) -> None:
        (self.cache_class.cpu_read_fast,
         self.cache_class.cpu_write_fast) = self._saved


def _raised() -> str:
    """Print the exception being handled to stderr; return its last line."""
    text = traceback.format_exc().strip()
    print(text, file=sys.stderr)
    return text.splitlines()[-1]


def import_seconds() -> float:
    """Median import time of the simulator, on the reference host.

    Each sample imports into a fresh interpreter, so each pays the whole
    import, as a user's first command does.
    """
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.split()[-1]))
    return median(samples)


def run_trials(workload, seed: int, budget: float,
               min_trials: int) -> Tuple[List, List[str]]:
    """Untraced trials until the next one would overrun ``budget``."""
    from workloads import Meter

    trials, errors = [], []
    start = time.perf_counter()
    while True:
        try:
            trials.append(workload(seed, Meter()))
        except Exception:  # one broken trial is a failed operation
            errors.append(_raised())
        elapsed = time.perf_counter() - start
        done = len(trials) + len(errors)
        if done >= min_trials and elapsed * (done + 1) / done > budget:
            return trials, errors


def check_trial(trial, reference_digest: str, mismatch: str) -> List[str]:
    """A trial's own check failures, plus a statistics mismatch if any."""
    found = list(trial.failures)
    if trial.digest != reference_digest:
        found.append(f"{mismatch} (digest {trial.digest} vs "
                     f"{reference_digest})")
    return found


def end_to_end(trials: List, import_s: float) -> Dict[str, Dict]:
    """Medians over the trials, host times on the reference host."""
    rate = median(trial.ticks / trial.meter.run_norm_s for trial in trials)
    # The vectorized mode builds nothing before its first tick.
    builds = [build for trial in trials for build in trial.meter.builds_norm_s]
    setup = import_s + (median(builds) if builds else 0.0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "sim_ticks_per_s": {"value": rate, "unit": "1/s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(untraced: List, traced, profile: pstats.Stats,
              fast_completed: int) -> Dict[str, Dict]:
    """Per-layer metrics from one traced trial and the untraced ones."""
    from layers import LAYERS, LayerMap, attribute_self_time

    seconds = attribute_self_time(profile, LayerMap(SRC),
                                  exclude=FastPathCounter.NAMES)
    total = sum(seconds.values()) or 1.0
    shares = {layer: seconds[layer] / total for layer in LAYERS}
    untraced_run_s = median(trial.meter.run_norm_s for trial in untraced)

    counts = dict(traced.counts)
    counts["rng.draws"] = sum(
        nc for func, (_cc, nc, _tt, _ct, _callers) in profile.stats.items()
        if func[0] == "~" and func[2] in _DRAW_METHODS)
    metrics: Dict[str, Dict] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = {"value": shares[layer],
                                          "unit": "ratio"}
    for name, unit in COUNT_UNITS.items():
        metrics[name] = {"value": counts.get(name, 0), "unit": unit}
    ticks = traced.ticks
    for name, work in PER_TICK:
        metrics[name] = {"value": counts.get(work, 0) / ticks,
                         "unit": "1/cycle"}
    refs = counts.get("cache.refs", 0)
    metrics["cache.hit_ratio"] = {
        "value": counts.get("cache.hits", 0) / refs if refs else 0.0,
        "unit": "ratio"}
    metrics["cache.fast_path_ratio"] = {
        "value": fast_completed / refs if refs else 0.0, "unit": "ratio"}
    # A layer's host time is its traced self share applied to the
    # untraced run time (on the reference host), so the profiler's own
    # cost is not charged.
    for name, layer, work in NS_PER_UNIT:
        units = counts.get(work, 0)
        value = shares[layer] * untraced_run_s * 1e9 / units if units else 0.0
        metrics[name] = {"value": value, "unit": "ns"}
    metrics["trace.overhead_ratio"] = {
        "value": traced.meter.run_norm_s / untraced_run_s, "unit": "ratio"}
    return metrics


def _entry_calls(profile: pstats.Stats) -> Dict[str, int]:
    """Calls into each layer's public entry points (for the report)."""
    from layers import call_count

    points = (("cache/cache.py", "cpu_read_fast"),
              ("cache/cache.py", "cpu_write_fast"),
              ("cache/cache.py", "cpu_read"), ("cache/cache.py", "cpu_write"),
              ("cache/cache.py", "snoop"), ("bus/mbus.py", "transaction"),
              ("common/events.py", "run_until"),
              ("common/events.py", "_step"),
              ("trace/vectorized.py", "run_vectorized"))
    found = {}
    for suffix, name in points:
        calls = call_count(profile, suffix, name)
        if calls:
            found[f"{suffix[:-3].replace('/', '.')}.{name}"] = calls
    return found


def report(args, trials: List, failures: List[List[str]],
           errors: List[str], metrics: Dict[str, Dict]) -> None:
    print(f"fireflybench {args.workload} seed={args.seed} "
          f"trace={args.trace}")
    digests = sorted({trial.digest for trial in trials})
    print(f"  {len(trials) + len(errors)} trial(s); simulated statistics "
          f"digest {', '.join(digests) or 'none'}")
    for index, found in enumerate(failures):
        for cause in found:
            print(f"  FAILED trial {index}: {cause}")
    for cause in errors:
        print(f"  FAILED trial (raised): {cause}")
    if not trials:
        return
    first = trials[0]
    ticks_host = median(t.ticks / t.meter.run_s for t in trials)
    print(f"  per trial: {first.ticks} simulated cycles; sim_ticks_per_s "
          f"{ticks_host:.6g} as measured here")
    if first.paper:
        points = "; ".join(f"{label} {sim:.4f} vs {ref:.2f}"
                           for label, sim, ref in first.paper)
        print(f"  paper_load_err {first.paper_load_err:.6f} "
              f"(mean |simulated - paper| bus load: {points})")
    else:
        print("  paper_load_err unvalidated: no paper reference for this "
              "workload")
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:>16.6g} {entry['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"fireflybench: no simulator sources at {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"fireflybench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    budget = args.seconds / 2 if args.trace else args.seconds
    trials, errors = run_trials(workload, args.seed, budget,
                                min_trials=1 if args.trace else 2)
    traced = None
    if args.trace and trials:
        from repro.cache.cache import SnoopyCache

        profiler = cProfile.Profile()
        with FastPathCounter(SnoopyCache) as counter:
            try:
                traced = workload(args.seed, workloads.Meter(profiler))
            except Exception:  # the traced trial fails like any other
                errors.append("traced trial: " + _raised())
    checked = trials + ([traced] if traced is not None else [])
    failures = [check_trial(trial, trials[0].digest,
                            "simulated statistics differ from the first "
                            "trial") for trial in trials]
    if traced is not None:
        failures.append(check_trial(traced, trials[0].digest,
                                    "simulated statistics differ under "
                                    "tracing"))

    metrics: Dict[str, Dict] = {}
    if not args.trace and trials:
        metrics = end_to_end(trials, import_seconds())
    elif traced is not None:
        profile = pstats.Stats(profiler)
        metrics = per_layer(trials, traced, profile, counter.completed)
    report(args, checked, failures, errors, metrics)
    if traced is not None:
        for name, calls in _entry_calls(profile).items():
            print(f"  calls {name:40s} {calls:>12d}")
    failed = sum(1 for found in failures if found) + len(errors)
    attempted = len(checked) + len(errors)
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
