"""Unit tests for configuration and machine assembly."""

import pytest

from repro.cache.cache import CacheGeometry
from repro.common.errors import ConfigurationError
from repro.processor.cpu import PrefetchConfig
from repro.system import (
    CoherenceChecker,
    FireflyConfig,
    FireflyMachine,
    Generation,
)


class TestConfigValidation:
    def test_defaults_are_the_standard_machine(self):
        config = FireflyConfig()
        assert config.processors == 5
        assert config.generation is Generation.MICROVAX
        assert config.effective_memory_megabytes == 16
        assert config.effective_cache.size_bytes == 16 * 1024
        assert config.protocol == "firefly"

    def test_cvax_defaults(self):
        config = FireflyConfig(generation=Generation.CVAX)
        assert config.effective_cache.size_bytes == 64 * 1024
        assert config.effective_memory_megabytes == 32
        assert config.timing.has_onchip_icache

    def test_processor_bounds(self):
        with pytest.raises(ConfigurationError):
            FireflyConfig(processors=0)
        with pytest.raises(ConfigurationError):
            FireflyConfig(processors=17)

    def test_memory_limits_per_generation(self):
        """MicroVAX tops out at 16 MB, CVAX at 128 MB (paper §3, §5)."""
        with pytest.raises(ConfigurationError):
            FireflyConfig(memory_megabytes=32)
        FireflyConfig(generation=Generation.CVAX, memory_megabytes=128)
        with pytest.raises(ConfigurationError):
            FireflyConfig(generation=Generation.CVAX, memory_megabytes=256)

    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            FireflyConfig(protocol="mostly-coherent")

    def test_with_changes(self):
        config = FireflyConfig().with_changes(processors=7, seed=3)
        assert config.processors == 7 and config.seed == 3
        assert FireflyConfig().processors == 5  # original untouched


class TestMachineAssembly:
    def test_standard_machine_structure(self):
        machine = FireflyMachine(FireflyConfig())
        assert len(machine.cpus) == 5
        assert len(machine.caches) == 5
        assert len(machine.mbus.snoopers) == 5
        assert machine.memory.total_megabytes == pytest.approx(16)
        assert machine.qbus is None

    def test_io_enabled_builds_qbus(self):
        machine = FireflyMachine(FireflyConfig(io_enabled=True))
        assert machine.qbus is not None
        assert machine.qbus.io_cache is machine.caches[0]
        assert machine.io_cpu is machine.cpus[0]

    def test_cpu_layouts_are_disjoint(self):
        machine = FireflyMachine(FireflyConfig(processors=8))
        spans = []
        for cpu_id in range(8):
            layout = machine.layout_for(cpu_id)
            spans.append((layout.code_base,
                          layout.heap_base + layout.heap_words))
        for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start

    def test_shared_region_at_top_of_memory(self):
        machine = FireflyMachine(FireflyConfig())
        region = machine.shared_region
        assert region.base_word + region.words <= machine.memory.total_words
        # Above every CPU's private span.
        top_private = machine.layout_for(4).heap_base + \
            machine.layout_for(4).heap_words
        assert region.base_word >= top_private

    def test_cache_geometry_override(self):
        config = FireflyConfig(cache_geometry=CacheGeometry(1024, 1))
        machine = FireflyMachine(config)
        assert machine.caches[0].geometry.lines == 1024


class TestRunAndMetrics:
    def test_run_returns_metrics(self):
        machine = FireflyMachine(FireflyConfig(processors=2))
        metrics = machine.run(warmup_cycles=20_000, measure_cycles=50_000)
        assert metrics.processors == 2
        assert metrics.window_cycles == 50_000
        assert metrics.bus_ops > 0
        assert 0.0 < metrics.bus_load < 1.0
        for cpu in metrics.cpus:
            assert cpu.instructions > 0
            assert cpu.total_krate > 0
            assert 0.0 < cpu.miss_rate < 1.0
            assert cpu.tpi > 11.9  # never faster than no-wait

    def test_metrics_summary_renders(self):
        machine = FireflyMachine(FireflyConfig(processors=1))
        metrics = machine.run(warmup_cycles=5_000, measure_cycles=20_000)
        text = metrics.summary()
        assert "bus load" in text and "cpu0" in text

    def test_bad_horizons_rejected(self):
        machine = FireflyMachine(FireflyConfig(processors=1))
        with pytest.raises(ConfigurationError):
            machine.run(warmup_cycles=-1, measure_cycles=100)
        with pytest.raises(ConfigurationError):
            machine.run(warmup_cycles=0, measure_cycles=0)

    def test_start_is_idempotent(self):
        machine = FireflyMachine(FireflyConfig(processors=1))
        machine.start()
        machine.start()
        machine.sim.run_until(1000)
        assert machine.cpus[0].stats["instructions"].total > 0

    def test_determinism_across_builds(self):
        """Identical configs produce identical measurements."""
        def measure():
            machine = FireflyMachine(FireflyConfig(processors=3, seed=77))
            metrics = machine.run(warmup_cycles=10_000,
                                  measure_cycles=40_000)
            return (metrics.bus_ops, metrics.bus_writes,
                    tuple(c.instructions for c in metrics.cpus))
        assert measure() == measure()

    def test_seed_changes_measurements(self):
        def measure(seed):
            machine = FireflyMachine(FireflyConfig(processors=2, seed=seed))
            return machine.run(10_000, 40_000).bus_ops
        assert measure(1) != measure(2)

    def test_five_cpu_run_is_coherent(self):
        machine = FireflyMachine(FireflyConfig())
        machine.run(warmup_cycles=20_000, measure_cycles=30_000)
        audited = CoherenceChecker(machine).check()
        assert audited > 100

    @pytest.mark.parametrize("protocol", ["write-through", "berkeley",
                                          "dragon", "mesi", "write-once"])
    def test_baseline_protocol_machines_run_coherently(self, protocol):
        machine = FireflyMachine(FireflyConfig(processors=3,
                                               protocol=protocol))
        metrics = machine.run(warmup_cycles=10_000, measure_cycles=20_000)
        assert metrics.bus_ops > 0
        CoherenceChecker(machine).check()

    def test_cvax_machine_runs(self):
        machine = FireflyMachine(FireflyConfig(generation=Generation.CVAX,
                                               processors=2))
        metrics = machine.run(warmup_cycles=10_000, measure_cycles=30_000)
        assert metrics.bus_ops > 0
        assert machine.cpus[0].onchip is not None
        assert machine.cpus[0].onchip.stats["hit"].total > 0
        CoherenceChecker(machine).check()

    def test_prefetch_machine_runs(self):
        config = FireflyConfig(processors=2,
                               prefetch=PrefetchConfig(enabled=True))
        machine = FireflyMachine(config)
        machine.run(warmup_cycles=10_000, measure_cycles=30_000)
        covered = sum(c.stats.totals().get("prefetch_covered", 0)
                      for c in machine.cpus)
        assert covered > 0
