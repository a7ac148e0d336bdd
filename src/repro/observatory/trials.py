"""The trial-kind registry: every kind of seeded trial, declared once.

``firefly-sim chaos``, ``serve``, ``sweep`` and ``campaign run`` all
run *trials*: a :class:`TrialSpec` ``(kind, label, seed,
params)`` is a small picklable value from which one trial rebuilds its
whole simulated world.  :data:`TRIAL_KINDS` declares each kind once:

- ``keys`` — the parameters a campaign group (or a subcommand) may set,
  each with its default and its check;
- ``axes`` — the list-valued keys that expand by cross product, and the
  parameter each one expands into;
- ``label`` — the trial's name: its campaign label and golden-digest
  key, and the name a failure reports;
- ``run`` — the module-level function that runs one trial and returns
  its outcome;
- ``extract`` — that outcome as JSON-safe campaign data, with no
  wall-clock fields, so campaign reports stay byte-deterministic.

:func:`validate_group` checks a group of parameters, :func:`expand_group`
turns it into trials, and :func:`run_trials` runs any list of trials
through the one pool worker, :func:`run_trial`, and the one
:func:`~repro.observatory.runner.run_ordered` call — in-process at
``jobs=1``, on worker processes above.  A failing trial is therefore
the same :class:`~repro.observatory.runner.TrialFailure`, naming the
trial's label, at every job count.  The subcommands are presets: each
builds one group; a campaign spec lists many.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from operator import attrgetter
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.cache.protocols import available_protocols
from repro.common.errors import ConfigurationError, SimulationError
from repro.observatory import bench
from repro.observatory.runner import SWEEP_MEASURE, SWEEP_WARMUP, run_ordered
from repro.system import FireflyConfig, FireflyMachine, Generation
from repro.system.scenario import Horizon, Scenario

Check = Callable[[Any, str], Any]

#: Default of an optional key: left out of the parameters when unset.
_UNSET = object()

#: Keys every group may carry besides its kind's own.
_COMMON_KEYS = ("kind", "seeds", "exclude")


class TrialSpec(NamedTuple):
    """One seeded trial, as handed to the pool worker."""

    kind: str
    label: str
    seed: int
    params: Dict


@dataclass(frozen=True)
class Key:
    """One parameter of a trial kind: its default and its check."""

    default: Any
    check: Check


@dataclass(frozen=True)
class TrialKind:
    """Everything the harness knows about one kind of trial."""

    name: str
    keys: Dict[str, Key]
    axes: Tuple[Tuple[str, str], ...]
    label: str
    run: Callable[[TrialSpec], Any]
    extract: Callable[[Any], Any] = lambda outcome: outcome
    scenarios: Optional[Callable[[], Sequence[Scenario]]] = None


# ---------------------------------------------------------------------------
# checks: (value, where) -> the normalised value, or ConfigurationError


def _integer(minimum: Optional[int] = None) -> Check:
    def check(value, where):
        # bool is an int subclass; YAML's true/false must not pass.
        if isinstance(value, bool) or not isinstance(value, int) \
                or (minimum is not None and value < minimum):
            bound = "" if minimum is None else f" >= {minimum}"
            raise ConfigurationError(
                f"{where} must be an integer{bound}, got {value!r}")
        return value
    return check


def _each(check: Check) -> Check:
    """A non-empty list of values passing ``check``; a scalar is a
    one-item list."""
    def check_list(value, where):
        values = value if isinstance(value, list) else [value]
        if not values:
            raise ConfigurationError(f"{where} must not be empty")
        return [check(item, where) for item in values]
    return check_list


def _one_of(options: Callable[[], Sequence[str]]) -> Check:
    def check(value, where):
        known = sorted(options())
        if value not in known:
            raise ConfigurationError(
                f"{where} must be one of {', '.join(known)}; got {value!r}")
        return value
    return check


def _boolean(value, where):
    if not isinstance(value, bool):
        raise ConfigurationError(f"{where} must be a boolean")
    return value


def _text(value, where):
    if not isinstance(value, str) or not value:
        raise ConfigurationError(f"{where} must be a non-empty string")
    return value


def _scenario_names(kind: str) -> Check:
    """The one scenario selection: every name pinned, none twice.

    ``None`` selects the whole pinned table, in pinned order.
    """
    def check(value, where):
        pinned = [s.name for s in TRIAL_KINDS[kind].scenarios()]
        if value is None:
            return pinned
        names = [str(name) for name in
                 (value if isinstance(value, list) else [value])]
        unknown = sorted(set(names) - set(pinned))
        if unknown:
            raise ConfigurationError(
                f"{where}: unknown {kind} scenario(s) "
                f"{', '.join(unknown)}; pinned: {', '.join(pinned)}")
        twice = sorted({name for name in names if names.count(name) > 1})
        if twice:
            raise ConfigurationError(
                f"{where}: {kind} scenario(s) {', '.join(twice)} named "
                f"more than once")
        return names
    return check


def check_seeds(value, where: str) -> List[int]:
    """A non-empty list of distinct integer seeds."""
    if not isinstance(value, list) or not value:
        raise ConfigurationError(f"{where} must be a non-empty list of "
                                 f"integers")
    check = _integer()
    for seed in value:
        check(seed, where)
    if len(set(value)) != len(value):
        raise ConfigurationError(f"{where} contains duplicate seeds")
    return list(value)


# ---------------------------------------------------------------------------
# run functions: TrialSpec -> outcome (module-level; run_trial finds them)


def _run_sweep_point(trial: TrialSpec) -> Dict:
    """One machine run of the ``firefly-sim sweep`` grid."""
    params = trial.params
    machine = FireflyMachine(FireflyConfig(
        processors=params["processors"], protocol=params["protocol"],
        generation=Generation(params["generation"]), seed=trial.seed))
    metrics = machine.run(warmup_cycles=params["warmup"],
                          measure_cycles=params["measure"])
    return {
        "processors": params["processors"],
        "seed": trial.seed,
        "cycles": machine.sim.now,
        "bus_load": metrics.bus_load,
        "mean_tpi": metrics.mean_tpi,
        "mean_miss_rate": metrics.mean_miss_rate,
        "mean_cpu_krate": metrics.mean_cpu_krate,
        "dirty_fraction": metrics.dirty_fraction,
    }


def _pinned(trial: TrialSpec) -> Tuple[Scenario, Horizon]:
    """The pinned scenario a bench/chaos/serve trial names, and its
    horizon."""
    by_name = {s.name: s for s in TRIAL_KINDS[trial.kind].scenarios()}
    scenario = by_name[trial.params["scenario"]]
    return scenario, scenario.horizon(trial.params["quick"])


def _run_pinned(trial: TrialSpec):
    """A chaos or serving scenario; its outcome object."""
    scenario, horizon = _pinned(trial)
    return scenario.runner(scenario, horizon, trial.seed)


def _run_bench(trial: TrialSpec) -> Dict:
    """A bench scenario's campaign record: its simulated cycles and
    metrics."""
    cycles, metrics = _run_pinned(trial)
    return {"seed": trial.seed, "cycles": cycles, "metrics": metrics}


def _run_vector(trial: TrialSpec) -> Dict:
    """A vectorized statistical run (:mod:`repro.trace.vectorized`)."""
    from repro.trace.vectorized import run_vectorized

    params = trial.params
    result = run_vectorized(params["processors"], params["instructions"],
                            trial.seed)
    metrics = result.metrics()
    # The backend names the draw path, not a statistic; campaign
    # reports and their golden digests have never carried it.
    metrics.pop("backend")
    return {"seed": trial.seed, "cycles": result.ticks, "metrics": metrics}


def _run_probe(trial: TrialSpec) -> Dict:
    """The trivial self-test trial: a pure function of its seed.

    ``fail_env`` names an environment variable holding a
    comma-separated seed list; a listed seed raises, which is how the
    resume tests kill a campaign mid-run without changing the spec
    (and thus the trial keys) between the two runs.  ``spin`` adds
    deterministic busy work so interrupt tests have time to interrupt.
    """
    params = trial.params
    fail_env = params.get("fail_env")
    if fail_env:
        listed = {part.strip()
                  for part in os.environ.get(fail_env, "").split(",")
                  if part.strip()}
        if str(trial.seed) in listed:
            raise SimulationError(f"probe fault injected for seed "
                                  f"{trial.seed} (via ${fail_env})")
    value = trial.seed * trial.seed + params.get("offset", 0)
    for _ in range(params.get("spin", 0)):
        value = (value * 1103515245 + 12345) % (1 << 31)
    return {"seed": trial.seed, "value": value}


def _as_dict(outcome) -> Dict:
    return outcome.to_dict()


# ---------------------------------------------------------------------------
# the registry
#
# Scenario tables are looked up when used, never at import: the chaos
# and serving modules import the observatory, and a monkeypatched table
# must be the one that runs.


def _bench_scenarios():
    return bench.SCENARIOS


def _chaos_scenarios():
    from repro.faults import chaos
    return chaos.CHAOS_SCENARIOS


def _serve_scenarios():
    from repro.serving import engine
    return engine.SERVE_SCENARIOS


def _scenario_kind(name: str, scenarios, run, **extract) -> TrialKind:
    """bench, chaos and serve: one pinned scenario per trial."""
    return TrialKind(
        name=name,
        keys={"scenarios": Key(None, _scenario_names(name)),
              "quick": Key(True, _boolean)},
        axes=(("scenarios", "scenario"),),
        label=name + "/{scenario}/{mode}/s{seed}",
        run=run, scenarios=scenarios, **extract)


TRIAL_KINDS: Dict[str, TrialKind] = {kind.name: kind for kind in (
    TrialKind(
        "sweep",
        keys={"processors": Key([1, 2, 3, 4, 5], _each(_integer(1))),
              "protocol": Key("firefly", _each(_one_of(available_protocols))),
              "generation": Key("microvax", _one_of(
                  lambda: [g.value for g in Generation])),
              "warmup": Key(SWEEP_WARMUP, _integer(0)),
              "measure": Key(SWEEP_MEASURE, _integer(1))},
        axes=(("processors", "processors"), ("protocol", "protocol")),
        label="sweep/np{processors}/{protocol}/{generation}/s{seed}",
        run=_run_sweep_point),
    _scenario_kind("bench", _bench_scenarios, _run_bench),
    _scenario_kind("chaos", _chaos_scenarios, _run_pinned, extract=_as_dict),
    _scenario_kind("serve", _serve_scenarios, _run_pinned, extract=_as_dict),
    TrialKind(
        "vector",
        keys={"processors": Key([2, 4, 6], _each(_integer(1))),
              "instructions": Key(100_000, _integer(1))},
        axes=(("processors", "processors"),),
        label="vector/np{processors}/i{instructions}/s{seed}",
        run=_run_vector),
    TrialKind(
        "probe",
        keys={"name": Key("probe", _text),
              "offset": Key(0, _integer()),
              "spin": Key(0, _integer(0)),
              "fail_env": Key(_UNSET, _text)},
        axes=(),
        label="probe/{name}/s{seed}",
        run=_run_probe),
)}


# ---------------------------------------------------------------------------
# groups: validation and expansion


def validate_group(group, where: str) -> Dict:
    """Check one group of trial parameters; returns it normalised.

    Every key of the group's kind is filled in (optional ones only when
    set), so the result fully determines the trials it expands into.
    """
    if not isinstance(group, dict):
        raise ConfigurationError(f"{where}: trial group must be a mapping")
    name = group.get("kind")
    if not isinstance(name, str) or name not in TRIAL_KINDS:
        raise ConfigurationError(
            f"{where}: kind must be one of {', '.join(TRIAL_KINDS)}; "
            f"got {name!r}")
    kind = TRIAL_KINDS[name]
    allowed = set(_COMMON_KEYS) | set(kind.keys)
    unknown = sorted(set(group) - allowed)
    if unknown:
        raise ConfigurationError(
            f"{where}: unknown key(s) for kind {name!r}: "
            f"{', '.join(unknown)} (allowed: {', '.join(sorted(allowed))})")
    validated: Dict = {"kind": name}
    if "seeds" in group:
        validated["seeds"] = check_seeds(group["seeds"], f"{where}: seeds")
    for key, spec in kind.keys.items():
        if key in group or spec.default is not _UNSET:
            validated[key] = spec.check(group.get(key, spec.default),
                                        f"{where}: {key}")
    validated["exclude"] = _check_exclude(group.get("exclude", []), kind,
                                          where)
    return validated


def _check_exclude(value, kind: TrialKind, where: str) -> List[Dict]:
    if not isinstance(value, list):
        raise ConfigurationError(f"{where}: exclude must be a list of "
                                 f"mappings")
    axis_keys = {key for key, _ in kind.axes} | {"seed"}
    for i, entry in enumerate(value):
        if not isinstance(entry, dict) or not entry:
            raise ConfigurationError(f"{where}: exclude[{i}] must be a "
                                     f"non-empty mapping")
        unknown = sorted(set(entry) - axis_keys)
        if unknown:
            raise ConfigurationError(
                f"{where}: exclude[{i}] names unknown axis(es): "
                f"{', '.join(unknown)} (axes: "
                f"{', '.join(sorted(axis_keys))})")
    return [dict(entry) for entry in value]


def expand_group(group: Dict, default_seeds: Sequence[int]
                 ) -> List[TrialSpec]:
    """A validated group's trials, in deterministic matrix order.

    Axes expand by cross product in declaration order, seeds last;
    ``exclude`` entries drop every cell matching all of their keys.
    """
    kind = TRIAL_KINDS[group["kind"]]
    axes = [key for key, _ in kind.axes]
    fixed = {key: group[key] for key in kind.keys
             if key in group and key not in axes}
    trials: List[TrialSpec] = []
    for cell in itertools.product(*(group[key] for key in axes),
                                  group.get("seeds", default_seeds)):
        match = dict(zip(axes + ["seed"], cell))
        if any(all(match.get(key) == value for key, value in entry.items())
               for entry in group["exclude"]):
            continue
        seed = cell[-1]
        params = dict(fixed)
        params.update((param, value)
                      for (_, param), value in zip(kind.axes, cell))
        mode = "quick" if params.get("quick") else "full"
        trials.append(TrialSpec(kind.name,
                                kind.label.format(seed=seed, mode=mode,
                                                  **params),
                                seed, params))
    return trials


# ---------------------------------------------------------------------------
# running


def run_trial(trial: TrialSpec):
    """The pool worker: run one trial, return its kind's outcome."""
    kind = TRIAL_KINDS.get(trial.kind)
    if kind is None:
        raise ConfigurationError(f"unknown trial kind {trial.kind!r}")
    return kind.run(trial)


def run_trials(trials: Sequence[TrialSpec], jobs: int = 1,
               on_result: Optional[Callable[[TrialSpec, Any], None]] = None
               ) -> List:
    """Every trial's outcome, in order, at any ``jobs`` value.

    ``on_result(trial, outcome)`` sees each outcome in trial order as it
    is collected (see :func:`~repro.observatory.runner.run_ordered`).
    """
    return run_ordered(trials, run_trial, jobs=jobs,
                       describe=attrgetter("label"), on_result=on_result)


def run_scenarios(kind: str, seed: int, quick: bool,
                  names: Optional[Sequence[str]] = None,
                  jobs: int = 1) -> List:
    """The ``chaos`` / ``serve`` preset: pinned scenarios at one seed.

    ``names`` selects and orders the scenarios (default: all, in pinned
    order); the outcomes come back in that order.
    """
    group = validate_group({"kind": kind,
                            "scenarios": list(names) if names else None,
                            "quick": quick, "seeds": [seed]}, kind)
    return run_trials(expand_group(group, ()), jobs=jobs)
