"""Deterministic random streams and fixed-point accumulators.

Reproducibility rule: every stochastic model component draws from its
own named stream, derived from a single root seed.  Adding a new
component therefore never perturbs the draws of existing ones, and two
runs with the same configuration produce bit-identical statistics.

The paper's reference mix (0.95 instruction reads, 0.78 data reads,
0.40 data writes per instruction) and base TPI of 11.9 are fractional
per-instruction quantities.  :class:`FractionalAccumulator` converts
them into integer per-instruction counts whose long-run average is
exact, without randomness — which keeps the calibration of the analytic
model against the cycle simulator tight.
"""

from __future__ import annotations

import random
import zlib
from typing import Sequence

from repro.common.errors import ConfigurationError

#: Uniforms one bulk draw holds at once; bounds peak memory, not results.
DEFAULT_CHUNK = 65_536


class RandomStream:
    """A named, seeded pseudo-random stream (wraps :mod:`random.Random`).

    Draw-for-draw identity is load-bearing: every BENCH metric and the
    calibration tests pin exact values, so each method below must
    consume exactly the same Mersenne-Twister words as the plain
    :mod:`random.Random` call it stands in for.  The fast paths are
    therefore *provably identical* rewrites, not approximations:

    - ``random``/``shuffle`` are the underlying C methods, pre-bound;
    - ``randint(lo, hi)`` is ``lo + _randbelow(hi - lo + 1)``, which is
      precisely what ``Random.randrange`` computes after its (pure,
      draw-free) argument validation;
    - ``choice(seq)`` is ``seq[_randbelow(len(seq))]``, ditto;
    - ``count_below(n, p)`` runs the same Mersenne Twister in numpy
      (``MT19937``) from this stream's own 624-word state and position:
      the legacy ``RandomState.random_sample`` builds each double from
      two words exactly as ``random()`` does, ``((a >> 5) * 2**26 +
      (b >> 6)) / 2**53``, and the final state is written back, so the
      count and every later draw equal ``n`` calls to ``random()``.

    Bulk float draws are :meth:`random_block` (the reference) and
    :meth:`count_below` (the kernel); see those docstrings for when
    batching is sound.
    """

    __slots__ = ("name", "_rng", "random", "shuffle", "_randbelow",
                 "_expovariate")

    def __init__(self, root_seed: int, name: str) -> None:
        self.name = name
        # Derive a stable 64-bit seed from (root_seed, name) so streams
        # are independent of creation order.
        digest = zlib.crc32(name.encode("utf-8"))
        rng = random.Random((root_seed << 32) ^ digest)
        self._rng = rng
        #: Uniform float in [0, 1) — the C method itself, no wrapper.
        self.random = rng.random
        #: In-place Fisher-Yates shuffle — the C-backed method itself.
        self.shuffle = rng.shuffle
        self._randbelow = rng._randbelow
        self._expovariate = rng.expovariate

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self._randbelow(hi - lo + 1)

    def choice(self, seq: Sequence):
        """Uniform choice from a non-empty sequence."""
        return seq[self._randbelow(len(seq))]

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        return self.random() < p

    def expovariate(self, mean: float) -> float:
        """Exponentially distributed value with the given mean."""
        if mean <= 0:
            raise ConfigurationError(f"exponential mean must be positive, got {mean}")
        return self._expovariate(1.0 / mean)

    def geometric(self, mean: float) -> int:
        """Geometric run length (>= 1) with the given mean."""
        if mean < 1:
            raise ConfigurationError(f"geometric mean must be >= 1, got {mean}")
        if mean == 1:
            return 1
        p = 1.0 / mean
        n = 1
        draw = self.random
        while draw() >= p:
            n += 1
        return n

    # -- batched draws --------------------------------------------------

    def random_block(self, n: int) -> list:
        """Draw ``n`` uniform floats in one vectorized block.

        Element-for-element identical to ``n`` successive ``random()``
        calls (it IS ``n`` successive calls, made in bulk without
        Python-level dispatch per draw).  Sound wherever a consumer
        draws a *known* number of floats with no interleaved
        ``randint``/``choice``/``shuffle`` — those route through
        ``getrandbits`` and consume different generator words, so
        pre-drawing floats across one would reorder the stream.
        """
        if n < 0:
            raise ConfigurationError(f"block size must be >= 0, got {n}")
        draw = self.random
        return [draw() for _ in range(n)]

    def count_below(self, n: int, p: float,
                    chunk: int = DEFAULT_CHUNK) -> int:
        """How many of the stream's next ``n`` uniforms fall below ``p``.

        Equal to ``sum(draw < p for draw in self.random_block(n))``, and
        leaves the stream where those ``n`` draws would, but draws them
        in numpy's ``MT19937`` (see the class docstring), ``chunk`` at a
        time; ``chunk`` bounds peak memory, not results.  Sound where
        :meth:`random_block` is.
        """
        if n < 0:
            raise ConfigurationError(f"draw count must be >= 0, got {n}")
        if chunk < 1:
            raise ConfigurationError(f"chunk must be >= 1, got {chunk}")
        from numpy import array, count_nonzero, uint32
        from numpy.random import MT19937, RandomState

        version, internal, gauss_next = self._rng.getstate()
        bitgen = MT19937(0)  # a fixed seed, overwritten at once
        bitgen.state = {"bit_generator": "MT19937",
                        "state": {"key": array(internal[:-1], dtype=uint32),
                                  "pos": internal[-1]}}
        sample = RandomState(bitgen).random_sample
        count = 0
        while n > 0:
            size = min(chunk, n)
            count += int(count_nonzero(sample(size) < p))
            n -= size
        state = bitgen.state["state"]
        self._rng.setstate(
            (version, tuple(state["key"].tolist()) + (state["pos"],),
             gauss_next))
        return count


class StreamFactory:
    """Creates named :class:`RandomStream` objects from one root seed.

    >>> streams = StreamFactory(seed=42)
    >>> a = streams.stream("cpu0.data")
    >>> b = streams.stream("cpu1.data")
    >>> a.random() != b.random()
    True
    """

    __slots__ = ("seed", "_issued")

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._issued: set = set()

    def stream(self, name: str) -> RandomStream:
        """Create the stream for ``name``; duplicate names are an error."""
        if name in self._issued:
            raise ConfigurationError(f"random stream {name!r} requested twice")
        self._issued.add(name)
        return RandomStream(self.seed, name)


class FractionalAccumulator:
    """Deterministic conversion of a fractional rate into integer counts.

    ``next()`` returns integers whose running mean converges to ``rate``
    (within one unit, binary floating point being what it is), using
    error-diffusion (Bresenham-style):

    >>> acc = FractionalAccumulator(0.4)
    >>> [acc.next() for _ in range(5)]
    [0, 0, 1, 0, 1]
    >>> acc = FractionalAccumulator(0.25)
    >>> sum(acc.next() for _ in range(100))
    25
    """

    __slots__ = ("rate", "_residue")

    def __init__(self, rate: float, phase: float = 0.0) -> None:
        if rate < 0:
            raise ConfigurationError(f"rate must be non-negative, got {rate}")
        if not 0.0 <= phase < 1.0:
            raise ConfigurationError(f"phase must be in [0, 1), got {phase}")
        self.rate = rate
        self._residue = phase

    def next(self) -> int:
        """Return the integer count for the next step."""
        self._residue += self.rate
        whole = int(self._residue)
        self._residue -= whole
        return whole

    def reset(self, phase: float = 0.0) -> None:
        """Restart the error diffusion from ``phase``."""
        if not 0.0 <= phase < 1.0:
            raise ConfigurationError(f"phase must be in [0, 1), got {phase}")
        self._residue = phase
