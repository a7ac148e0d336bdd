"""Measurement collection: the counters the paper reports.

Rates are in **K references per second** to match Table 2's units.
Bus load L, miss rate M, dirty fraction D and TPI use the paper's
definitions:

- L — fraction of non-idle MBus cycles over the window;
- M — misses / CPU references presented to the off-chip cache;
- D — fraction of valid cache lines that would need a victim write;
- TPI — ticks per instruction realised over the window.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List

from repro.common.stats import ratio
from repro.common.types import SECONDS_PER_CYCLE


@dataclass(frozen=True)
class CpuMetrics:
    """One processor's windowed measurements."""

    cpu_id: int
    instructions: int
    ifetches: int
    data_reads: int
    data_writes: int
    read_krate: float
    write_krate: float
    miss_rate: float
    tpi: float
    idle_fraction: float

    @property
    def references(self) -> int:
        return self.ifetches + self.data_reads + self.data_writes

    @property
    def total_krate(self) -> float:
        return self.read_krate + self.write_krate

    @property
    def read_write_ratio(self) -> float:
        return ratio(self.read_krate, self.write_krate)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict view (field values only, properties recomputable)."""
        return asdict(self)


@dataclass(frozen=True)
class MachineMetrics:
    """Whole-machine windowed measurements (one ``run()`` call)."""

    window_cycles: int
    cpus: List[CpuMetrics]
    bus_load: float
    bus_ops: int
    bus_reads_memory: int
    bus_reads_cache: int
    bus_writes_mshared: int
    bus_writes_not_mshared: int
    bus_victim_writes: int
    dirty_fraction: float
    qbus_load: float = 0.0

    @property
    def window_seconds(self) -> float:
        return self.window_cycles * SECONDS_PER_CYCLE

    @property
    def processors(self) -> int:
        return len(self.cpus)

    @property
    def bus_reads(self) -> int:
        return self.bus_reads_memory + self.bus_reads_cache

    @property
    def bus_writes(self) -> int:
        return (self.bus_writes_mshared + self.bus_writes_not_mshared
                + self.bus_victim_writes)

    @property
    def bus_krate(self) -> float:
        """MBus operations per second, in K (Table 2's 'MBus Total')."""
        return self.bus_ops / self.window_seconds / 1e3

    @property
    def mean_cpu_krate(self) -> float:
        """Per-CPU mean total reference K-rate."""
        if not self.cpus:
            return 0.0
        return sum(c.total_krate for c in self.cpus) / len(self.cpus)

    @property
    def mean_read_krate(self) -> float:
        if not self.cpus:
            return 0.0
        return sum(c.read_krate for c in self.cpus) / len(self.cpus)

    @property
    def mean_write_krate(self) -> float:
        if not self.cpus:
            return 0.0
        return sum(c.write_krate for c in self.cpus) / len(self.cpus)

    @property
    def mean_miss_rate(self) -> float:
        if not self.cpus:
            return 0.0
        return sum(c.miss_rate for c in self.cpus) / len(self.cpus)

    @property
    def mean_tpi(self) -> float:
        busy = [c.tpi for c in self.cpus if c.tpi > 0]
        if not busy:
            return 0.0
        return sum(busy) / len(busy)

    @property
    def total_instruction_krate(self) -> float:
        instructions = sum(c.instructions for c in self.cpus)
        return instructions / self.window_seconds / 1e3

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict of the field values, ``cpus`` as a list of
        :meth:`CpuMetrics.to_dict` dicts (properties are recomputable).

        The paper benchmarks write their ``benchmarks/results`` JSON
        through this, and ``fireflybench/`` digests it.
        """
        data = asdict(self)
        data["cpus"] = [cpu.to_dict() for cpu in self.cpus]
        return data

    def summary(self) -> str:
        """A human-readable block, in the spirit of Table 2."""
        lines = [
            f"window: {self.window_cycles} cycles "
            f"({self.window_seconds * 1e3:.2f} ms simulated)",
            f"bus load L = {self.bus_load:.3f}   "
            f"MBus total = {self.bus_krate:.0f} K ops/sec",
            f"MBus reads: {self.bus_reads} "
            f"(memory {self.bus_reads_memory}, cache {self.bus_reads_cache})",
            f"MBus writes: MShared {self.bus_writes_mshared}, "
            f"not-MShared {self.bus_writes_not_mshared}, "
            f"victims {self.bus_victim_writes}",
            f"dirty fraction D = {self.dirty_fraction:.3f}",
        ]
        for cpu in self.cpus:
            lines.append(
                f"  cpu{cpu.cpu_id}: reads {cpu.read_krate:7.0f}K/s  "
                f"writes {cpu.write_krate:6.0f}K/s  M={cpu.miss_rate:.3f}  "
                f"TPI={cpu.tpi:5.2f}  idle={cpu.idle_fraction:.0%}")
        return "\n".join(lines)


def collect_metrics(machine, window_cycles: int) -> MachineMetrics:
    """Read every component's windowed counters into a snapshot."""
    cpus = []
    for cpu, cache in zip(machine.cpus, machine.caches):
        stats = cache.stats
        hits = sum(stats[k].windowed for k in
                   ("ifetch.hit", "dread.hit", "dwrite.hit") if k in stats)
        misses = sum(stats[k].windowed for k in
                     ("ifetch.miss", "dread.miss", "dwrite.miss") if k in stats)
        seconds = window_cycles * SECONDS_PER_CYCLE
        cpus.append(CpuMetrics(
            cpu_id=cpu.cpu_id,
            instructions=cpu.stats["instructions"].windowed,
            ifetches=cpu.stats["refs.ifetch"].windowed,
            data_reads=cpu.stats["refs.dread"].windowed,
            data_writes=cpu.stats["refs.dwrite"].windowed,
            read_krate=(cpu.stats["refs.ifetch"].windowed
                        + cpu.stats["refs.dread"].windowed) / seconds / 1e3,
            write_krate=cpu.stats["refs.dwrite"].windowed / seconds / 1e3,
            miss_rate=ratio(misses, hits + misses),
            tpi=cpu.measured_tpi(),
            idle_fraction=ratio(cpu.stats["idle_cycles"].windowed,
                                window_cycles),
        ))

    bus = machine.mbus.stats
    dirty = [cache.dirty_fraction() for cache in machine.caches]
    return MachineMetrics(
        window_cycles=window_cycles,
        cpus=cpus,
        bus_load=machine.mbus.load(),
        bus_ops=bus.get_windowed("ops"),
        bus_reads_memory=bus.get_windowed("read.memory_supplied"),
        bus_reads_cache=bus.get_windowed("read.cache_supplied"),
        bus_writes_mshared=bus.get_windowed("write.mshared"),
        bus_writes_not_mshared=bus.get_windowed("write.not_mshared"),
        bus_victim_writes=bus.get_windowed("write.victim"),
        dirty_fraction=sum(dirty) / len(dirty) if dirty else 0.0,
        qbus_load=machine.qbus.load() if machine.qbus is not None else 0.0,
    )
