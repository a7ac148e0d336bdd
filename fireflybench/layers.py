"""Simulator layers, and host self time attributed to them.

A layer is a named group of ``repro`` modules.  Every module under
``src/repro`` is claimed by exactly one rule below (the benchmark's tests
enforce it), so a new module has to be placed deliberately instead of
landing in ``harness`` by default.  Code outside ``repro`` (the
interpreter, the standard library, numpy, this benchmark) is ``host``,
except the standard library's ``random`` module and the C methods of its
generator: ``repro.common.rng`` hands draws straight to them, so their
time is ``rng``'s whoever calls them.

A rule is a dotted module name; a trailing ``.*`` claims the package and
everything below it.
"""

from __future__ import annotations

import pstats
import random
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

LAYER_RULES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("events", ("repro.common.events",)),
    ("processor", ("repro.processor", "repro.processor.cpu",
                   "repro.processor.timing", "repro.processor.mix",
                   "repro.processor.onchip")),
    ("refgen", ("repro.processor.refgen",)),
    ("cache", ("repro.cache", "repro.cache.cache", "repro.cache.line",
               "repro.cache.fsm")),
    ("protocol", ("repro.cache.protocols.*", "repro.protodsl.runtime")),
    ("mbus", ("repro.bus", "repro.bus.mbus", "repro.bus.signals")),
    ("memory", ("repro.memory.*",)),
    ("topaz", ("repro.topaz.*",)),
    ("io", ("repro.io.*", "repro.bus.qbus")),
    ("serving", ("repro.serving.*",)),
    ("telemetry", ("repro.telemetry.*", "repro.causal.*")),
    ("rng", ("repro.common.rng",)),
    ("stats", ("repro.common.stats",)),
    ("vectorized", ("repro.trace.vectorized", "repro.analytic.*")),
    ("machine", ("repro.system.*", "repro.workloads.*", "repro.common",
                 "repro.common.errors", "repro.common.provenance",
                 "repro.common.queues", "repro.common.types")),
    ("harness", ("repro", "repro.cli", "repro.campaign.*", "repro.faults.*",
                 "repro.observatory.*", "repro.protodsl",
                 "repro.protodsl.check", "repro.protodsl.defs",
                 "repro.protodsl.oracle", "repro.reporting.*",
                 "repro.verify.*", "repro.trace", "repro.trace.format",
                 "repro.trace.recorder", "repro.trace.replay",
                 "repro.trace.stats")),
)

HOST = "host"
RNG = "rng"

#: The standard library module behind ``repro.common.rng``.
RANDOM_FILE = Path(random.__file__).resolve()

#: Profiler names of the Mersenne Twister's C methods end with this.
RANDOM_C_METHOD = " of '_random.Random' objects>"

#: Every layer name, in report order (``host`` last).
LAYERS: Tuple[str, ...] = tuple(name for name, _ in LAYER_RULES) + (HOST,)


def _matches(rule: str, module: str) -> bool:
    if rule.endswith(".*"):
        package = rule[:-2]
        return module == package or module.startswith(package + ".")
    return module == rule


def matching_layers(module: str) -> List[str]:
    """Every layer with a rule claiming ``module`` (one, when well mapped)."""
    return [name for name, rules in LAYER_RULES
            if any(_matches(rule, module) for rule in rules)]


def layer_of_module(module: str) -> str:
    """The layer of a dotted module name; ``host`` outside ``repro``."""
    if module != "repro" and not module.startswith("repro."):
        return HOST
    found = matching_layers(module)
    if len(found) != 1:
        raise ValueError(f"module {module} maps to layers {found}, "
                         f"expected exactly one")
    return found[0]


def repro_modules(src: Path) -> List[str]:
    """Dotted names of every module under ``src/repro``."""
    names = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        names.append(".".join(parts))
    return names


class LayerMap:
    """Maps source file names (as the profiler reports them) to layers."""

    def __init__(self, src: Path) -> None:
        self._src = src.resolve()
        self._cache: Dict[str, str] = {}

    def layer_of_file(self, filename: str) -> str:
        layer = self._cache.get(filename)
        if layer is None:
            layer = self._cache[filename] = self._classify(filename)
        return layer

    def _classify(self, filename: str) -> str:
        try:
            path = Path(filename).resolve()
        except OSError:
            return HOST
        if path == RANDOM_FILE:
            return RNG
        try:
            relative = path.relative_to(self._src)
        except ValueError:
            return HOST
        parts = list(relative.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        return layer_of_module(".".join(parts))


FuncKey = Tuple[str, int, str]


def attribute_self_time(stats: pstats.Stats, layer_map: LayerMap,
                        exclude: Iterable[str] = ()
                        ) -> Dict[str, float]:
    """Self seconds per layer from a profile.

    Python functions count toward the layer of their own module.  A C
    function has no frame of its own: its self time goes to the layers of
    the Python frames that called it, split by the time spent under each
    caller, so a heap push made by the event core counts as ``events``.
    The generator's C methods are the exception: they count as ``rng``,
    since refgen, serving and the rest call them directly.  Functions
    whose name is in ``exclude`` (the benchmark's own counting wrappers)
    are left out entirely.
    """
    excluded = set(exclude)
    seconds = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tottime, _ct, callers) in stats.stats.items():
        if func[2] in excluded:
            continue
        if func[0] != "~":
            seconds[layer_map.layer_of_file(func[0])] += tottime
            continue
        if func[2].endswith(RANDOM_C_METHOD):
            seconds[RNG] += tottime
            continue
        attributed = 0.0
        for caller, edge in callers.items():
            if caller[2] in excluded:
                continue
            seconds[layer_map.layer_of_file(caller[0])] += edge[2]
            attributed += edge[2]
        seconds[HOST] += max(tottime - attributed, 0.0)
    return seconds


def call_count(stats: pstats.Stats, filename_suffix: str,
               name: str) -> Optional[int]:
    """Calls of one function (generator resumptions count as calls)."""
    for func, (_cc, nc, _tt, _ct, _callers) in stats.stats.items():
        if func[2] == name and func[0].endswith(filename_suffix):
            return nc
    return None
