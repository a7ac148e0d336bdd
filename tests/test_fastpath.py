"""The hot-path contract: fast paths change wall-clock, never a bit.

The simulator's cache-hit fast paths (:meth:`SnoopyCache.cpu_read_fast`
/ :meth:`cpu_write_fast`) and the batched RNG draws exist purely for
host throughput.  These tests pin the contract from
docs/PERFORMANCE.md: with the fast paths forced off (every access
through the original generator machinery), every simulated metric and
every telemetry event count is identical, for every registered
protocol; and every batched RNG sequence equals its unbatched twin
element for element, as does the numpy kernel ``count_below``, which
must also leave its stream exactly where the unbatched twin stands.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.cache import SnoopyCache
from repro.cache.protocols import available_protocols
from repro.common.errors import ConfigurationError
from repro.common.rng import DEFAULT_CHUNK, RandomStream, StreamFactory
from repro.system import FireflyConfig, FireflyMachine
from repro.telemetry import telemetry_for_machine

WARMUP = 2_000
MEASURE = 10_000


def _run_machine(protocol: str, fast: bool, seed: int = 1987,
                 with_telemetry: bool = False):
    """(metrics dict, telemetry event count) for one small run.

    ``fast=False`` makes both fast paths decline every access, so each
    one goes through the generator path.
    """
    machine = FireflyMachine(FireflyConfig(
        processors=2, protocol=protocol, seed=seed))
    hub = None
    if with_telemetry:
        hub, sampler = telemetry_for_machine(machine)
        sampler.start()
    with pytest.MonkeyPatch.context() as patch:
        if not fast:
            patch.setattr(SnoopyCache, "cpu_read_fast",
                          lambda cache, ref: False)
            patch.setattr(SnoopyCache, "cpu_write_fast",
                          lambda cache, ref, value: False)
        metrics = machine.run(warmup_cycles=WARMUP, measure_cycles=MEASURE)
    return metrics.to_dict(), (hub.emitted if hub is not None else None)


class TestFastPathEquivalence:
    @pytest.mark.parametrize("protocol", sorted(available_protocols()))
    def test_metrics_identical_fast_on_vs_off(self, protocol):
        """Every protocol: silent-write/read fast paths are invisible.

        This exercises ``silent_write_result`` against the protocol's
        own ``write_hit`` on live traffic — a protocol whose declared
        silent result diverged from its generator path would drift
        here.
        """
        fast, _ = _run_machine(protocol, fast=True)
        slow, _ = _run_machine(protocol, fast=False)
        assert fast == slow

    def test_telemetry_event_counts_identical(self):
        """With probes LIVE, the fast write path emits the exact same
        transition events the generator path would."""
        fast_metrics, fast_events = _run_machine(
            "firefly", fast=True, with_telemetry=True)
        slow_metrics, slow_events = _run_machine(
            "firefly", fast=False, with_telemetry=True)
        assert fast_metrics == slow_metrics
        assert fast_events == slow_events
        assert fast_events > 0

    def test_same_seed_same_metrics(self):
        first, _ = _run_machine("firefly", fast=True, seed=1988)
        second, _ = _run_machine("firefly", fast=True, seed=1988)
        assert first == second

    def test_different_seed_differs(self):
        first, _ = _run_machine("firefly", fast=True, seed=1987)
        second, _ = _run_machine("firefly", fast=True, seed=1990)
        assert first != second


#: The stream names the simulator actually derives from a root seed.
NAMED_STREAMS = (
    "faults",
    "topaz.kernel",
    "cpu0.refs",
    "cpu0.prefetch",
    "cpu0.data",
    "cpu4.refs",
    "thread0.footprint",
    "thread15.footprint",
)

# The numpy kernel, RandomStream.count_below, against random_block on a
# twin stream.

#: A small chunk, so chunk edges are cheap to reach.
SMALL_CHUNK = 1_000

#: Draw counts around the Mersenne Twister's 624-word refill (one
#: double takes two words) and around both chunk sizes.
KERNEL_COUNTS = (0, 1, 311, 312, 313, 623, 624, 625,
                 SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1)
EDGE_COUNTS = (DEFAULT_CHUNK - 1, DEFAULT_CHUNK, DEFAULT_CHUNK + 1)


def _prefix(seed: int):
    """A seed's mix of scalar draws: random, randint, choice, getrandbits.

    Each consumes a different number of generator words, so the prefixes
    leave the stream at scattered positions in its 624-word state.
    """
    gen = random.Random(seed)
    kinds = ("random", "randint", "choice", "getrandbits")
    return [(gen.choice(kinds), gen.randint(1, 200))
            for _ in range(gen.randrange(0, 900))]


def _advance(stream: RandomStream, prefix) -> None:
    for kind, arg in prefix:
        if kind == "random":
            stream.random()
        elif kind == "randint":
            stream.randint(0, arg)
        elif kind == "choice":
            stream.choice(range(arg))
        else:
            stream._rng.getrandbits(arg)


def _kernel(stream, n, p, chunk):
    return stream.count_below(n, p, chunk)


def _assert_kernel_matches(seed, n, p=None, chunk=SMALL_CHUNK,
                           kernel=_kernel):
    """``kernel`` on one stream equals ``random_block`` on its twin.

    ``p=None`` compares against the middle drawn float itself, so a draw
    equal to ``p`` must not count.
    """
    stream = RandomStream(seed, "kernel")
    twin = RandomStream(seed, "kernel")
    prefix = _prefix(seed)
    _advance(stream, prefix)
    _advance(twin, prefix)
    block = twin.random_block(n)
    if p is None:
        p = block[n // 2] if block else 0.5
    assert kernel(stream, n, p, chunk) == sum(draw < p for draw in block)
    assert stream._rng.getstate() == twin._rng.getstate()
    assert stream.random() == twin.random()
    assert stream.randint(0, 10 ** 6) == twin.randint(0, 10 ** 6)
    assert stream.choice(range(1000)) == twin.choice(range(1000))


# Broken kernels for the mutation tests: the real kernel with one step of
# its contract undone.

def _writes_back_position_plus_one(stream, n, p, chunk):
    count = stream.count_below(n, p, chunk)
    version, internal, gauss_next = stream._rng.getstate()
    stream._rng.setstate(
        (version, internal[:-1] + (internal[-1] + 1,), gauss_next))
    return count


def _skips_the_write_back(stream, n, p, chunk):
    before = stream._rng.getstate()
    count = stream.count_below(n, p, chunk)
    stream._rng.setstate(before)
    return count


def _draws_from_a_freshly_seeded_generator(stream, n, p, chunk):
    fresh = RandomStream(0, "fresh")
    count = fresh.count_below(n, p, chunk)
    stream._rng.setstate(fresh._rng.getstate())
    return count


class TestBatchedRngIdentity:
    @pytest.mark.parametrize("name", NAMED_STREAMS)
    def test_random_block_matches_unbatched(self, name):
        batched = RandomStream(1987, name)
        unbatched = RandomStream(1987, name)
        block = batched.random_block(512)
        assert block == [unbatched.random() for _ in range(512)]

    @pytest.mark.parametrize("name", NAMED_STREAMS)
    def test_prebound_calls_match_plain_random(self, name):
        """The pre-bound fast rewrites consume the exact same
        Mersenne-Twister words as the stdlib calls they stand for."""
        stream = RandomStream(1987, name)
        twin = random.Random((1987 << 32) ^ zlib.crc32(name.encode()))
        assert [stream.randint(0, 99) for _ in range(50)] \
            == [twin.randrange(0, 100) for _ in range(50)]
        assert [stream.choice("abcdef") for _ in range(50)] \
            == [twin.choice("abcdef") for _ in range(50)]
        assert [stream.bernoulli(0.3) for _ in range(50)] \
            == [twin.random() < 0.3 for _ in range(50)]

    def test_block_interleaves_with_scalar_draws(self):
        """Blocks then scalars stay aligned with a pure scalar stream
        (a block IS successive scalar draws)."""
        batched = RandomStream(7, "mix")
        unbatched = RandomStream(7, "mix")
        sequence = batched.random_block(10) + [batched.random()] \
            + batched.random_block(3)
        assert sequence == [unbatched.random() for _ in range(14)]

    def test_factory_streams_are_independent_of_order(self):
        a_first = StreamFactory(3)
        b_first = StreamFactory(3)
        a1 = a_first.stream("alpha")
        _ = a_first.stream("beta")
        _ = b_first.stream("beta")
        a2 = b_first.stream("alpha")
        assert a1.random_block(32) == a2.random_block(32)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("p", (0.0, 1.0, None, 0.3))
    def test_count_below_matches_random_block_on_a_twin(self, seed, p):
        for n in KERNEL_COUNTS:
            _assert_kernel_matches(seed, n, p)

    @pytest.mark.parametrize("seed", (0, 5))
    def test_count_below_at_the_default_chunk_edges(self, seed):
        for n in EDGE_COUNTS:
            _assert_kernel_matches(seed, n, None, chunk=DEFAULT_CHUNK)

    def test_count_below_is_exact_at_the_probability_edges(self):
        assert RandomStream(1, "k").count_below(1000, 0.0) == 0
        assert RandomStream(1, "k").count_below(1000, 1.0) == 1000

    def test_count_below_rejects_negative_counts_and_chunks(self):
        stream = RandomStream(1, "k")
        with pytest.raises(ConfigurationError, match="draw count"):
            stream.count_below(-1, 0.5)
        with pytest.raises(ConfigurationError, match="chunk"):
            stream.count_below(10, 0.5, chunk=0)

    @pytest.mark.parametrize("mutant", (
        _writes_back_position_plus_one, _skips_the_write_back,
        _draws_from_a_freshly_seeded_generator))
    def test_count_below_identity_check_catches_mutant(self, mutant):
        """Each broken kernel fails the check the real one passes."""
        _assert_kernel_matches(3, 313, 0.3)
        with pytest.raises(AssertionError):
            _assert_kernel_matches(3, 313, 0.3, kernel=mutant)
