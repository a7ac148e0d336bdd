"""The machine builder: assembles a complete Firefly.

A :class:`FireflyMachine` wires together memory modules, the MBus, one
snoopy cache and CPU per processor slot, the optional QBus I/O
subsystem behind processor 0 (the I/O processor on the primary board),
and per-CPU reference sources.

By default every CPU runs the synthetic calibrated workload
(:class:`~repro.processor.refgen.SyntheticReferenceSource`); callers
may supply a ``source_factory`` to run anything else (the Topaz runtime
does this to execute real thread programs).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.bus.mbus import MBus
from repro.bus.qbus import QBus
from repro.cache.cache import SnoopyCache
from repro.cache.protocols import protocol_by_name
from repro.common.errors import ConfigurationError
from repro.common.events import Simulator
from repro.common.rng import StreamFactory
from repro.memory.main_memory import MainMemory
from repro.processor.cpu import Processor, ReferenceSource
from repro.processor.refgen import (
    RegionLayout,
    SharedRegion,
    SyntheticReferenceSource,
)
from repro.system.config import FireflyConfig, Generation
from repro.system.metrics import MachineMetrics, collect_metrics
from repro.telemetry.probe import NULL_PROBE

SourceFactory = Callable[[int, "FireflyMachine"], ReferenceSource]

_MIN_CPU_SPAN_WORDS = 16384


class FireflyMachine:
    """A fully assembled Firefly system ready to simulate.

    Parameters
    ----------
    config:
        The machine description.
    source_factory:
        Optional ``f(cpu_id, machine) -> ReferenceSource`` override.
        When omitted, each CPU gets a synthetic calibrated source with
        its own private code/heap regions plus the machine-wide shared
        region.
    """

    def __init__(self, config: FireflyConfig,
                 source_factory: Optional[SourceFactory] = None,
                 sim: Optional[Simulator] = None) -> None:
        self.config = config
        # Multi-machine experiments (e.g. real two-machine RPC) place
        # several Fireflies on one simulator; by default each machine
        # owns its own clock.
        self.sim = sim if sim is not None else Simulator()
        self.streams = StreamFactory(config.seed)
        geometry = config.effective_cache

        self.memory = self._build_memory()
        self.mbus = MBus(self.sim, self.memory,
                         words_per_line=geometry.words_per_line)
        self.protocol = protocol_by_name(config.protocol)

        self.shared_region = self._place_shared_region()
        self._cpu_span = self._compute_cpu_span()

        self.caches: List[SnoopyCache] = []
        self.cpus: List[Processor] = []
        factory = source_factory or self._default_source
        for cpu_id in range(config.processors):
            cache = SnoopyCache(self.mbus, self.protocol, cpu_id, geometry)
            self.caches.append(cache)
        for cpu_id in range(config.processors):
            source = factory(cpu_id, self)
            rng = (self.streams.stream(f"cpu{cpu_id}.prefetch")
                   if config.prefetch.enabled else None)
            cpu = Processor(self.sim, cpu_id, config.timing,
                            self.caches[cpu_id], source,
                            prefetch=config.prefetch, rng=rng)
            self.cpus.append(cpu)

        self.qbus: Optional[QBus] = None
        if config.io_enabled:
            self.qbus = QBus(self.sim, self.io_cache)

        #: Telemetry probe; inert unless a TelemetryHub is attached.
        self.probe = NULL_PROBE
        self._started = False
        self._failed_cpus: List[int] = []

    # -- construction helpers ------------------------------------------

    def _build_memory(self) -> MainMemory:
        config = self.config
        geometry = config.effective_cache
        megabytes = config.effective_memory_megabytes
        if config.generation is Generation.MICROVAX:
            return MainMemory.standard_microvax(
                megabytes, words_per_line=geometry.words_per_line)
        return MainMemory.standard_cvax(
            megabytes, words_per_line=geometry.words_per_line)

    def _place_shared_region(self) -> SharedRegion:
        words = self.config.shared_region_words
        total = self.memory.total_words
        base = total - words
        # Align down to a line boundary so sharing statistics are clean.
        wpl = self.config.effective_cache.words_per_line
        base = (base // wpl) * wpl
        if base <= 0:
            raise ConfigurationError("shared region does not fit in memory")
        return SharedRegion(base, words)

    def _compute_cpu_span(self) -> int:
        available = self.shared_region.base_word
        span = available // self.config.processors
        if span < _MIN_CPU_SPAN_WORDS:
            raise ConfigurationError(
                f"memory too small for {self.config.processors} private "
                f"regions (span would be {span} words)")
        return min(span, 262144)

    def layout_for(self, cpu_id: int) -> RegionLayout:
        """The private code/heap regions assigned to one CPU."""
        base = cpu_id * self._cpu_span
        code_words = self._cpu_span // 4
        heap_words = self._cpu_span // 2
        return RegionLayout(code_base=base, code_words=code_words,
                            heap_base=base + code_words,
                            heap_words=heap_words)

    def _default_source(self, cpu_id: int,
                        machine: "FireflyMachine") -> ReferenceSource:
        return SyntheticReferenceSource(
            rng=self.streams.stream(f"cpu{cpu_id}.refs"),
            layout=self.layout_for(cpu_id),
            shared=self.shared_region,
            shape=self.config.workload,
            mix=self.config.mix)

    # -- convenience accessors ---------------------------------------------

    @property
    def io_cache(self) -> SnoopyCache:
        """Processor 0's cache — all DMA flows through it."""
        return self.caches[0]

    @property
    def io_cpu(self) -> Processor:
        """Processor 0 — the one CPU with QBus access."""
        return self.cpus[0]

    # -- running --------------------------------------------------------------

    def start(self) -> None:
        """Launch every CPU process (idempotent)."""
        if self._started:
            return
        for cpu in self.cpus:
            cpu.start()
        self._started = True

    # -- graceful degradation ------------------------------------------

    @property
    def failed_cpus(self) -> Tuple[int, ...]:
        """CPU ids offlined so far, in failure order."""
        return tuple(self._failed_cpus)

    @property
    def online_cpus(self) -> List[Processor]:
        """CPUs still running (construction order)."""
        return [cpu for cpu in self.cpus if not cpu.failed]

    def offline_cpu(self, cpu_id: int, absorb: bool = True):
        """Fail one CPU board and recover gracefully; returns a Process.

        The paper's availability story — "a multiprocessor can be
        structured to continue operation in the face of failures of
        individual processors" — maps to three steps: stop the board,
        sweep its cache's dirty lines back to memory (as ordinary
        victim write-backs the survivors snoop), and detach it from the
        snoop fan-out.  With ``absorb=True`` the board's reference
        stream is then interleaved into the least-loaded survivor
        (synthetic workloads); the Topaz layer passes ``absorb=False``
        and re-queues the dead board's thread itself.

        Processor 0 cannot be offlined: it is the I/O processor on the
        primary board, and the QBus (hence all I/O) dies with it.
        """
        if not 0 <= cpu_id < len(self.cpus):
            raise ConfigurationError(f"no CPU {cpu_id} in this machine")
        if cpu_id == 0:
            raise ConfigurationError(
                "cannot offline CPU 0: it is the I/O processor on the "
                "primary board (the QBus has no other master)")
        cpu = self.cpus[cpu_id]
        if cpu.failed:
            raise ConfigurationError(f"CPU {cpu_id} is already offline")
        cache = self.caches[cpu_id]
        cpu.fail()
        self._failed_cpus.append(cpu_id)
        if self.probe.active:
            self.probe.instant("fault.cpu_fail", "machine", cpu=cpu_id)

        def _offline():
            written = yield from cache.flush_lines()
            self.mbus.detach_snooper(cache.snooper_id)
            if absorb:
                self._absorb_orphan(cpu_id)
            if self.probe.active:
                self.probe.instant("fault.cpu_offlined", "machine",
                                   cpu=cpu_id, writebacks=written)
            return written

        return self.sim.process(_offline(), name=f"offline{cpu_id}")

    def _absorb_orphan(self, cpu_id: int) -> Processor:
        """Hand the failed CPU's reference stream to a survivor."""
        survivors = self.online_cpus
        if not survivors:  # pragma: no cover - CPU 0 can never fail
            raise ConfigurationError("no surviving CPU to absorb work")
        survivor = min(
            survivors,
            key=lambda c: (c.stats.counter("instructions").total, c.cpu_id))
        survivor.absorb_source(self.cpus[cpu_id].source)
        return survivor

    def mark_window(self) -> None:
        """Open a measurement window on every component."""
        self.mbus.mark_window()
        if self.qbus is not None:
            self.qbus.mark_window()
        for cache in self.caches:
            cache.stats.mark_all()
        for cpu in self.cpus:
            cpu.mark_window()

    def run(self, warmup_cycles: int = 100_000,
            measure_cycles: int = 400_000) -> MachineMetrics:
        """Warm up, open a window, measure, and collect metrics.

        The warm-up mirrors the paper's methodology: Table 2's counters
        "span several minutes of execution of the target program",
        i.e. steady state, not cold caches.
        """
        if warmup_cycles < 0 or measure_cycles <= 0:
            raise ConfigurationError("invalid warmup/measure horizon")
        self.start()
        if self.probe.active:
            self.probe.instant("phase.warmup", "machine",
                               cycles=warmup_cycles)
        self.sim.run_until(self.sim.now + warmup_cycles)
        self.mark_window()
        start = self.sim.now
        if self.probe.active:
            self.probe.instant("phase.measure", "machine",
                               cycles=measure_cycles)
        self.sim.run_until(start + measure_cycles)
        if self.probe.active:
            self.probe.instant("phase.end", "machine")
        return collect_metrics(self, window_cycles=measure_cycles)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cfg = self.config
        return (f"<FireflyMachine {cfg.processors}x {cfg.timing.name} "
                f"{cfg.effective_memory_megabytes}MB {cfg.protocol}>")
