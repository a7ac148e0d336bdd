"""Vectorized statistical mode: §5.2 runs without the event loop.

The paper's queueing analysis — and the Table 1 regeneration — consume
only aggregate statistics: miss rate M, dirty fraction D, shared-write
fraction S.  For runs where nothing but (M, D, S) and the derived
load/TPI/RP numbers matter, coroutine fidelity is wasted work: the
event loop dispatches one event per simulated tick just to make the
same Bernoulli draws the statistics summarise.  This module makes those
draws in bulk and feeds the measured rates straight into the §5.2
open queueing model (:mod:`repro.analytic.queueing`):

1. **Batched draws.**  Each simulated CPU owns a ``cpu{i}.vector``
   :class:`~repro.common.rng.RandomStream`; per-instruction reference
   counts come from the paper's mix via the same ``floor(n * rate)``
   totals the :class:`~repro.common.rng.FractionalAccumulator` error
   diffusion produces, and every reference makes one uniform draw per
   stochastic decision — miss?, victim dirty?, write shared? — and
   only the count below each probability is kept.  The numpy backend
   draws and counts them in numpy's Mersenne Twister
   (:meth:`~repro.common.rng.RandomStream.count_below`, loaded from
   and written back to the stream); the pure-Python backend, the
   reference, draws them with ``random_block``.  Both consume *the
   same draws in the same order* and reduce them to *integer counts*,
   so their results are bit-identical.

2. **Closed-form bus service.**  Bus occupancy is accumulated in
   closed form — ``bus_op_ticks * (misses + dirty victims + shared
   writes)`` — and the empirical rates are substituted into
   :class:`~repro.analytic.queueing.FireflyAnalyticModel`, whose
   ``NP(L)`` inversion yields the self-consistent load, TPI and RP for
   the configured processor count: exactly the numbers the
   :class:`~repro.observatory.divergence.DivergenceMonitor` predicts
   from a coroutine run's measured window rates.

Validity envelope (see docs/PERFORMANCE.md): the mode is sound for
*open, stationary* workloads whose stochastic structure is i.i.d. per
reference — the synthetic Table 1 sweeps and trace-reduced parameter
studies.  It cannot see closed-loop feedback (cache warm-up
transients, sharing-migration bursts, fault injection, scheduler
interaction), so its outputs are validated against the coroutine
simulator within the DivergenceMonitor's noise bands, never expected
to match byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.analytic.queueing import AnalyticParameters, FireflyAnalyticModel
from repro.common.errors import ConfigurationError
from repro.common.rng import DEFAULT_CHUNK, RandomStream

try:  # the numpy backend draws in numpy; the python backend needs none
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via backend="python"
    _np = None

#: The two draw backends (identical results, different speeds).
BACKENDS = ("numpy", "python")


def numpy_available() -> bool:
    """Whether the numpy backend can be selected."""
    return _np is not None


@dataclass(frozen=True)
class VectorizedResult:
    """One vectorized statistical run, reduced to the §5.2 quantities.

    The count fields are exact integers (identical across backends);
    the model fields are the analytic evaluation at the *empirical*
    rates — directly comparable to a coroutine run's measured
    ``bus_load`` / ``mean_tpi`` / RP within the divergence bands.
    """

    processors: int
    instructions: int           # total across CPUs
    references: int
    misses: int
    dirty_victims: int
    shared_writes: int
    data_writes: int
    miss_rate: float            # empirical M-hat
    dirty_fraction: float       # empirical D-hat (victims / misses)
    shared_write_fraction: float  # empirical S-hat
    bus_busy_ticks: int         # closed-form: N * (miss + victim + wthru)
    bus_load: float             # model load at the empirical rates
    mean_tpi: float
    relative_performance: float
    total_performance: float
    ticks: int                  # simulated ticks covered per CPU
    backend: str
    seed: int

    def metrics(self) -> Dict:
        """Flat JSON-safe dict, shaped like a bench scenario's metrics."""
        return {
            "processors": self.processors,
            "instructions": self.instructions,
            "references": self.references,
            "misses": self.misses,
            "dirty_victims": self.dirty_victims,
            "shared_writes": self.shared_writes,
            "miss_rate": self.miss_rate,
            "dirty_fraction": self.dirty_fraction,
            "shared_write_fraction": self.shared_write_fraction,
            "bus_load": self.bus_load,
            "mean_tpi": self.mean_tpi,
            "relative_performance": self.relative_performance,
            "total_performance": self.total_performance,
            "backend": self.backend,
        }


def _resolve_backend(backend: Optional[str]) -> str:
    if backend is None:
        return "numpy" if _np is not None else "python"
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown vectorized backend {backend!r}; known: "
            f"{', '.join(BACKENDS)}")
    if backend == "numpy" and _np is None:
        raise ConfigurationError(
            "numpy backend requested but numpy is not importable; "
            "use backend='python'")
    return backend


def _count_below_reference(stream: RandomStream, draws: int, p: float,
                           chunk: int) -> int:
    """The pure-Python backend's count: ``random_block`` draws, ``<``.

    :meth:`RandomStream.count_below` (the numpy backend) must equal it
    for every stream, count and probability.
    """
    count = 0
    while draws > 0:
        block = stream.random_block(min(chunk, draws))
        draws -= len(block)
        count += sum(1 for draw in block if draw < p)
    return count


def params_from_reduction(reduction,
                          base: Optional[AnalyticParameters] = None
                          ) -> AnalyticParameters:
    """Analytic parameters measured from a reduced trace.

    This is the trace-driven entry point: ``reduce_trace`` produces the
    measured mix, M and D; the shared-write fraction (invisible to a
    single-cache reduction) stays at the base value.
    """
    base = base or AnalyticParameters()
    return replace(base, mix=reduction.mix,
                   miss_rate=min(max(reduction.miss_rate, 1e-6), 1 - 1e-6),
                   dirty_fraction=min(max(reduction.dirty_fraction, 0.0),
                                      1.0))


def run_vectorized(processors: int, instructions: int, seed: int,
                   params: Optional[AnalyticParameters] = None,
                   chunk: int = DEFAULT_CHUNK,
                   backend: Optional[str] = None) -> VectorizedResult:
    """Run the statistical mode: batched draws -> §5.2 model outputs.

    ``instructions`` is the per-CPU instruction budget.  Each CPU's
    draws come from its own named stream, mirroring the coroutine
    simulator's stream-per-component rule, so adding a CPU never
    perturbs another CPU's statistics.
    """
    if processors < 1:
        raise ConfigurationError(
            f"processor count must be >= 1, got {processors}")
    if instructions < 1:
        raise ConfigurationError(
            f"instruction budget must be >= 1, got {instructions}")
    if chunk < 1:
        raise ConfigurationError(f"chunk must be >= 1, got {chunk}")
    backend = _resolve_backend(backend)
    count_below = (RandomStream.count_below if backend == "numpy"
                   else _count_below_reference)
    params = params or AnalyticParameters()
    mix = params.mix

    # Per-CPU reference totals: the FractionalAccumulator's
    # error-diffusion sum over n instructions is floor(n * rate), so
    # these closed-form counts match what a coroutine CPU would issue.
    ireads = int(instructions * mix.instruction_reads)
    dreads = int(instructions * mix.data_reads)
    dwrites = int(instructions * mix.data_writes)
    refs_per_cpu = ireads + dreads + dwrites

    references = misses = dirty_victims = shared_writes = 0
    for cpu in range(processors):
        stream = RandomStream(seed, f"cpu{cpu}.vector")
        # Draw order is part of the contract: miss draws for every
        # reference, then one dirty draw per miss, then one shared draw
        # per data write — fixed counts, so both backends stay aligned.
        cpu_misses = count_below(stream, refs_per_cpu, params.miss_rate,
                                 chunk)
        cpu_dirty = count_below(stream, cpu_misses, params.dirty_fraction,
                                chunk)
        cpu_shared = count_below(stream, dwrites,
                                 params.shared_write_fraction, chunk)
        references += refs_per_cpu
        misses += cpu_misses
        dirty_victims += cpu_dirty
        shared_writes += cpu_shared

    miss_rate = misses / references if references else 0.0
    dirty_fraction = dirty_victims / misses if misses else 0.0
    shared_fraction = shared_writes / dwrites / processors if dwrites else 0.0

    # Closed-form §5.2 bus service: every miss is one bus read, every
    # dirty victim one write-back, every shared write one write-through
    # — N ticks each.
    bus_ops = misses + dirty_victims + shared_writes
    bus_busy_ticks = params.bus_op_ticks * bus_ops

    empirical = replace(
        params,
        miss_rate=min(max(miss_rate, 1e-6), 1.0 - 1e-6),
        dirty_fraction=min(max(dirty_fraction, 0.0), 1.0),
        shared_write_fraction=min(max(shared_fraction, 0.0), 1.0))
    model = FireflyAnalyticModel(empirical)
    load = model.load_for_processors(processors)
    tpi = model.tpi(load)
    rp = empirical.base_tpi / tpi

    return VectorizedResult(
        processors=processors,
        instructions=instructions * processors,
        references=references,
        misses=misses,
        dirty_victims=dirty_victims,
        shared_writes=shared_writes,
        data_writes=dwrites * processors,
        miss_rate=miss_rate,
        dirty_fraction=dirty_fraction,
        shared_write_fraction=shared_fraction,
        bus_busy_ticks=bus_busy_ticks,
        bus_load=load,
        mean_tpi=tpi,
        relative_performance=rp,
        total_performance=processors * rp,
        ticks=int(instructions * tpi),
        backend=backend,
        seed=seed)


def divergence_check(result: VectorizedResult, measured: Dict[str, float],
                     bands=None) -> Dict[str, Dict]:
    """Compare a vectorized run against coroutine-simulator measurements.

    ``measured`` carries a coroutine run's ``bus_load`` and ``tpi``
    (``mean_tpi`` is accepted as an alias); RP is derived.  Residuals
    follow the DivergenceMonitor's conventions — absolute for load,
    relative for TPI and RP — and the same default bands, so "the
    vectorized mode agrees with the simulator" means precisely "the
    analytic model agrees with the simulator", the paper's own
    slide-rule accuracy standard.  Returns per-metric verdicts plus an
    ``"ok"`` summary entry.
    """
    from repro.observatory.divergence import DivergenceBands

    bands = bands or DivergenceBands()
    tpi = measured.get("tpi", measured.get("mean_tpi"))
    if tpi is None or "bus_load" not in measured:
        raise ConfigurationError(
            "divergence_check needs measured 'bus_load' and 'tpi' "
            "(or 'mean_tpi')")
    base_tpi = result.mean_tpi * result.relative_performance
    comparisons = {
        "bus_load": (measured["bus_load"], result.bus_load,
                     measured["bus_load"] - result.bus_load,
                     bands.bus_load_abs),
        "tpi": (tpi, result.mean_tpi,
                (tpi - result.mean_tpi) / result.mean_tpi,
                bands.tpi_rel),
        "relative_performance": (
            base_tpi / tpi, result.relative_performance,
            (base_tpi / tpi - result.relative_performance)
            / result.relative_performance,
            bands.relative_performance_rel),
    }
    verdicts: Dict[str, Dict] = {}
    all_ok = True
    for metric, (meas, vec, residual, band) in comparisons.items():
        ok = abs(residual) <= band
        all_ok = all_ok and ok
        verdicts[metric] = {"measured": meas, "vectorized": vec,
                            "residual": residual, "band": band, "ok": ok}
    verdicts["ok"] = all_ok
    return verdicts
