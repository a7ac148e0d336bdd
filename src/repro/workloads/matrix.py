"""A medium-grained data-parallel kernel: threaded matrix multiply.

Paper §2: "we knew that some important applications could be modified
to take advantage of parallelism".  This workload is the reproduction's
canonical such application: C = A x B with the rows of C partitioned
among threads.  A and B live in *shared* simulated memory and are read
through the caches (read-only sharing: lines go SHARED, reads stay
quiet); each thread writes its own C rows (private dirty lines).  The
result is verified against numpy, so the workload doubles as an
end-to-end correctness test of the whole stack — coherence protocol,
bus, runtime.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.common.errors import ConfigurationError
from repro.topaz import ops
from repro.topaz.kernel import TopazKernel


class MatrixWorkload:
    """C = A x B across ``workers`` threads on one kernel."""

    def __init__(self, kernel: TopazKernel, n: int = 12,
                 workers: int = 4, seed: int = 42) -> None:
        if n < 1 or workers < 1:
            raise ConfigurationError("matrix size and workers must be >= 1")
        self.kernel = kernel
        self.n = n
        self.workers = min(workers, n)
        # Seeded explicitly: drawing from a RandomStream instead would
        # change the matrix values every result of this workload pins.
        rng = np.random.default_rng(seed)  # lint: allow(V101)
        self.a = rng.integers(0, 100, size=(n, n), dtype=np.int64)
        self.b = rng.integers(0, 100, size=(n, n), dtype=np.int64)

        words = n * n
        self._a_base = kernel.alloc_shared(words, "matrix A")
        self._b_base = kernel.alloc_shared(words, "matrix B")
        self._c_base = kernel.alloc_shared(words, "matrix C")
        memory = kernel.machine.memory
        for i in range(n):
            for j in range(n):
                memory.poke(self._a_base + i * n + j, int(self.a[i, j]))
                memory.poke(self._b_base + i * n + j, int(self.b[i, j]))
        self._threads: List = []

    def _worker(self, first_row: int, last_row: int):
        n, a_base, b_base, c_base = (self.n, self._a_base, self._b_base,
                                     self._c_base)

        def body():
            for i in range(first_row, last_row):
                for j in range(n):
                    acc = 0
                    for k in range(n):
                        left = yield ops.Read(a_base + i * n + k)
                        right = yield ops.Read(b_base + k * n + j)
                        acc += left * right
                        yield ops.Compute(1)   # the multiply-add
                    yield ops.Write(c_base + i * n + j, acc)
            return last_row - first_row
        return body

    def start(self) -> None:
        """Fork the row-band workers."""
        rows_per = -(-self.n // self.workers)
        for w in range(self.workers):
            first = w * rows_per
            last = min(self.n, first + rows_per)
            if first >= last:
                break
            self._threads.append(self.kernel.fork(
                self._worker(first, last), name=f"mm{w}"))

    def run(self, max_cycles: int = 200_000_000) -> int:
        """Multiply; verify against numpy; return elapsed cycles."""
        self.start()
        start = self.kernel.sim.now
        self.kernel.machine.start()
        deadline = start + max_cycles
        while self.kernel.sim.now < deadline:
            if all(t.done for t in self._threads):
                self.verify()
                return self.kernel.sim.now - start
            self.kernel.sim.run_until(
                min(self.kernel.sim.now + 50_000, deadline))
        raise ConfigurationError("multiply did not finish in the horizon")

    def result(self) -> np.ndarray:
        """C as currently visible in coherent memory."""
        n = self.n
        out = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                out[i, j] = self.kernel._coherent_value(
                    self._c_base + i * n + j)
        return out

    def verify(self) -> None:
        """Assert the simulated result equals the numpy product."""
        expected = self.a @ self.b
        actual = self.result()
        if not np.array_equal(expected, actual):
            bad = np.argwhere(expected != actual)[0]
            raise AssertionError(
                f"matrix mismatch at {tuple(bad)}: "
                f"expected {expected[tuple(bad)]}, got {actual[tuple(bad)]}")
