"""Deterministic parallel trial executor.

Every harness — ``firefly-sim chaos``, ``serve``, ``sweep`` and
``campaign run`` — reduces to the same shape of work: an ordered
list of seeded trials, each of which builds its entire simulated world
from its seed and returns plain data.  Trials share no mutable state —
every RNG stream is derived from the trial's own seed inside the trial —
so they can run in worker processes without changing a single simulated
bit.  This module provides that fan-out:

- :func:`run_ordered` — execute a list of picklable specs through a
  module-level worker function, either in-process (``jobs <= 1``) or
  on a :class:`~concurrent.futures.ProcessPoolExecutor`, returning
  results **in spec order** regardless of completion order.  With the
  same specs, ``jobs=N`` and ``jobs=1`` produce identical result
  lists (wall-clock timing fields aside, which are measurements of the
  host, not of the simulation).  The harnesses all reach it through
  :func:`repro.observatory.trials.run_trials`, whose one worker runs
  any declared trial kind.
- :func:`run_sweep` — the ``firefly-sim sweep`` document builder: a
  (processor-count x seed) grid of machine runs with purely simulated
  metrics, byte-identical JSON at any job count.

Failure contract: a trial that raises is reported as a single
:class:`TrialFailure` naming the failing trial — the child's traceback
is summarised, never dumped raw — on both the serial and the parallel
path, and a worker process that dies outright (killed, segfault)
surfaces the same way instead of hanging the parent.  Remaining queued
trials are cancelled, and a ``KeyboardInterrupt`` in the parent
terminates every worker process before re-raising — Ctrl-C never leaks
simulating workers.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError

SWEEP_SCHEMA = "firefly-sweep/1"

#: Default (warmup, measure) cycles for one sweep point.
SWEEP_WARMUP = 20_000
SWEEP_MEASURE = 60_000


class TrialFailure(SimulationError):
    """One trial failed; names the trial."""

    def __init__(self, label: str, detail: str) -> None:
        super().__init__(f"trial {label} failed: {detail}")
        self.label = label
        self.detail = detail


def _guarded(worker: Callable, spec) -> Tuple[str, object]:
    """Run one trial in the child, tagging the outcome.

    Exceptions are flattened to a string in the child rather than
    re-raised: a pickled exception that fails to unpickle in the
    parent (custom ``__init__`` signatures, unpicklable payloads)
    would otherwise break the pool and lose the error entirely.
    """
    try:
        return ("ok", worker(spec))
    except Exception as exc:  # noqa: BLE001 - summarised for the parent
        return ("error", f"{type(exc).__name__}: {exc}")


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Kill the pool's worker processes outright.

    Used on KeyboardInterrupt only: ``shutdown(cancel_futures=True)``
    cancels *queued* work but lets already-running trials finish, so a
    Ctrl-C during a long fan-out would leave workers simulating for
    minutes after the user asked to stop.  The process handles are a
    private attribute of the executor; degrade to a plain shutdown if a
    future Python hides them.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except OSError:
            pass


def run_ordered(specs: Sequence, worker: Callable, jobs: int = 1,
                describe: Callable[[object], str] = str,
                on_result: Optional[Callable[[object, object], None]] = None
                ) -> List:
    """Run ``worker(spec)`` for every spec; results in spec order.

    ``worker`` must be a module-level function and each spec a small
    picklable value that carries *everything* the trial needs (names
    and seeds, not live objects).  ``jobs <= 1`` runs in-process with
    identical semantics — the parallel path is pure fan-out, never a
    behaviour switch.

    ``on_result(spec, result)`` is invoked in **spec order** as each
    trial's result is collected, on both the serial and parallel paths.
    Campaign resume rides on this: every result the callback saw is
    durable even if a later trial fails, and spec-order delivery keeps
    append-only stores deterministic at any job count.

    A ``KeyboardInterrupt`` during a fan-out terminates the worker
    processes and re-raises — no leaked workers, no swallowed Ctrl-C.
    """
    if jobs is None:
        jobs = 1
    if jobs <= 1 or len(specs) <= 1:
        results = []
        for spec in specs:
            tag, payload = _guarded(worker, spec)
            if tag != "ok":
                raise TrialFailure(describe(spec), payload)
            if on_result is not None:
                on_result(spec, payload)
            results.append(payload)
        return results
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(specs)))
    try:
        futures = [pool.submit(_guarded, worker, spec) for spec in specs]
        results = []
        for spec, future in zip(specs, futures):
            try:
                tag, payload = future.result()
            except BrokenProcessPool:
                raise TrialFailure(
                    describe(spec),
                    "worker process died before returning a result") from None
            except Exception as exc:  # transport failures, not trial errors
                raise TrialFailure(
                    describe(spec),
                    f"{type(exc).__name__}: {exc}") from None
            if tag != "ok":
                raise TrialFailure(describe(spec), payload)
            if on_result is not None:
                on_result(spec, payload)
            results.append(payload)
        return results
    except KeyboardInterrupt:
        # Raised outside future.result() (e.g. between collections):
        # same contract — tear the workers down before propagating.
        _terminate_workers(pool)
        raise
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


# ---------------------------------------------------------------------------
# the sweep document


def run_sweep(processor_counts: Sequence[int], seeds: Sequence[int],
              protocol: str = "firefly", generation: str = "microvax",
              warmup: int = SWEEP_WARMUP, measure: int = SWEEP_MEASURE,
              jobs: int = 1,
              progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Run the (processors x seed) grid and return the sweep document.

    The grid is one ``sweep`` trial group (see
    :mod:`repro.observatory.trials`), validated like a campaign's.  The
    document contains only simulated quantities — no wall-clock fields —
    so serialising it with sorted keys yields byte-identical JSON for
    any ``jobs`` value.
    """
    from repro.observatory.trials import (expand_group, run_trials,
                                          validate_group)

    group = validate_group({
        "kind": "sweep", "processors": list(processor_counts),
        "protocol": protocol, "generation": generation,
        "warmup": warmup, "measure": measure, "seeds": list(seeds)},
        "sweep")
    trials = expand_group(group, ())
    if progress is not None:
        progress(f"sweep: {len(trials)} point(s) "
                 f"({len(processor_counts)} processor count(s) x "
                 f"{len(seeds)} seed(s), jobs={max(1, jobs)})")
    return {
        "schema": SWEEP_SCHEMA,
        "protocol": protocol,
        "generation": generation,
        "warmup_cycles": warmup,
        "measure_cycles": measure,
        "processor_counts": list(processor_counts),
        "seeds": list(seeds),
        "points": run_trials(trials, jobs=jobs),
    }
