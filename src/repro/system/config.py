"""Machine configuration.

A :class:`FireflyConfig` fully describes a machine: generation
(MicroVAX or CVAX), processor count, memory size, cache geometry,
coherence protocol, prefetcher behaviour, workload shape and the
random seed.  Validation happens here, eagerly, so an inconsistent
machine is impossible to build.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.cache.cache import CacheGeometry
from repro.cache.protocols import available_protocols
from repro.common.errors import ConfigurationError
from repro.processor.cpu import PrefetchConfig
from repro.processor.mix import VAX_MIX, ReferenceMix
from repro.processor.refgen import WorkloadShape
from repro.processor.timing import CVAX_TIMING, MICROVAX_TIMING, ProcessorTiming


class Generation(enum.Enum):
    """The two Firefly hardware generations."""

    MICROVAX = "microvax"
    CVAX = "cvax"

    @property
    def timing(self) -> ProcessorTiming:
        return MICROVAX_TIMING if self is Generation.MICROVAX else CVAX_TIMING

    @property
    def default_cache(self) -> CacheGeometry:
        return (CacheGeometry.MICROVAX if self is Generation.MICROVAX
                else CacheGeometry.CVAX)

    @property
    def default_memory_megabytes(self) -> int:
        return 16 if self is Generation.MICROVAX else 32

    @property
    def max_memory_megabytes(self) -> int:
        return 16 if self is Generation.MICROVAX else 128


@dataclass(frozen=True)
class FireflyConfig:
    """Everything needed to build a :class:`~repro.system.FireflyMachine`.

    The defaults describe the paper's "standard five-processor
    configuration" of the original machine: five MicroVAX CPUs (one of
    which is the I/O processor), 16 KB write-back snoopy caches running
    the Firefly protocol, and 16 MB of memory.
    """

    processors: int = 5
    generation: Generation = Generation.MICROVAX
    memory_megabytes: Optional[int] = None
    protocol: str = "firefly"
    cache_geometry: Optional[CacheGeometry] = None
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)
    mix: ReferenceMix = VAX_MIX
    workload: WorkloadShape = field(default_factory=WorkloadShape)
    shared_region_words: int = 512
    seed: int = 1987
    io_enabled: bool = False

    MAX_PROCESSORS = 16

    def __post_init__(self) -> None:
        if not 1 <= self.processors <= self.MAX_PROCESSORS:
            raise ConfigurationError(
                f"processor count must be 1..{self.MAX_PROCESSORS}, "
                f"got {self.processors}")
        if self.protocol not in available_protocols():
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; "
                f"known: {', '.join(available_protocols())}")
        if self.memory_megabytes is not None:
            if self.memory_megabytes > self.generation.max_memory_megabytes:
                raise ConfigurationError(
                    f"{self.generation.value} Firefly supports at most "
                    f"{self.generation.max_memory_megabytes} MB, "
                    f"got {self.memory_megabytes}")
        if self.shared_region_words < 1:
            raise ConfigurationError("shared region must be non-empty")

    @property
    def effective_memory_megabytes(self) -> int:
        return (self.memory_megabytes
                if self.memory_megabytes is not None
                else self.generation.default_memory_megabytes)

    @property
    def effective_cache(self) -> CacheGeometry:
        return (self.cache_geometry
                if self.cache_geometry is not None
                else self.generation.default_cache)

    @property
    def timing(self) -> ProcessorTiming:
        return self.generation.timing

    def with_changes(self, **overrides) -> "FireflyConfig":
        """A modified copy — the sweep helper used by the benches.

        >>> FireflyConfig().with_changes(processors=9).processors
        9
        """
        from dataclasses import replace
        return replace(self, **overrides)
