"""Static protocol verification and simulation-safety linting.

Four checkers, all usable as a library and via ``firefly-sim verify``:

- :mod:`repro.verify.model` — an exhaustive model checker for the
  reachable global state space of an N-cache system under any
  implemented coherence protocol, checking the I1–I4 invariants (the
  same predicates the runtime :class:`~repro.system.checker.
  CoherenceChecker` applies, factored into
  :mod:`repro.verify.invariants`) on every reachable state and
  producing a minimal counterexample stimulus trace on violation.
  Its transition function is the protocol's runtime code, run on the
  live single-line rig of :mod:`repro.protodsl.oracle`.
- :mod:`repro.verify.structural` — structural checks over a protocol's
  measured transition table (:func:`repro.cache.fsm.
  full_transition_table`): totality, determinism, reachability, no
  dead-end states, and no arc that parks a cache in a silent-write
  state while a peer still holds the line.
- :mod:`repro.verify.lint` — an AST lint pass over simulator sources
  that flags determinism hazards (unseeded ``random``, wall-clock
  reads inside simulated time, iteration over unordered sets, direct
  ``line.state`` mutation outside the protocol layer, hand-written
  protocol handlers that bypass the DSL pipeline).
- :mod:`repro.protodsl.check` (re-exported here) — the guard checker:
  per-(state, stimulus) exhaustiveness, determinism, reachability and
  fact-consistency proofs over the declarative protocol definitions,
  run before any simulation.

See ``docs/VERIFY.md`` and ``docs/PROTOCOL_DSL.md`` for the full
treatment.
"""

from repro.verify.invariants import (
    INVARIANTS,
    Copy,
    Violation,
    check_word,
)
from repro.verify.lint import LintFinding, lint_paths, lint_source
from repro.verify.model import (
    Counterexample,
    ModelChecker,
    VerificationReport,
    verify_protocol,
)
from repro.verify.structural import StructuralFinding, check_structure
from repro.protodsl import GuardFinding, check_guards
from repro.protodsl.oracle import abstract_state_of

__all__ = [
    "Copy",
    "Counterexample",
    "GuardFinding",
    "INVARIANTS",
    "LintFinding",
    "ModelChecker",
    "StructuralFinding",
    "VerificationReport",
    "Violation",
    "abstract_state_of",
    "check_guards",
    "check_structure",
    "check_word",
    "lint_paths",
    "lint_source",
    "verify_protocol",
]
