"""The simulation-safety linter: AST checks for determinism hazards.

A cycle simulator's value rests on bit-identical reruns; the hazards
that quietly destroy that property are always the same four, so they
are linted for mechanically, next to two vocabulary rules (V105,
V106):

``V101 unseeded-random``
    Importing :mod:`random` or ``numpy.random`` (``import numpy.random``,
    ``from numpy import random``, ``from numpy.random import ...``), or
    reaching it as ``np.random.<name>``, anywhere outside
    :mod:`repro.common.rng`.  Every stochastic component must draw
    from its own named, seeded :class:`~repro.common.rng.RandomStream`
    so adding a component never perturbs existing draws.
``V102 wall-clock``
    Calling ``time.time``/``monotonic``/``perf_counter``/``sleep`` or
    ``datetime.now``-style constructors inside simulator code.  The
    only clock that exists inside a simulation is ``sim.now``; wall
    time makes results machine- and load-dependent.
``V103 unordered-iteration``
    Iterating directly over a ``set``/``frozenset`` display, call, or
    set union/intersection expression (in a ``for`` or comprehension)
    without ``sorted(...)``.  Set iteration order varies with hash
    seeding and insertion history; in event-ordering paths that skew
    results run to run.
``V104 state-bypass``
    Assigning a ``LineState`` to ``<expr>.state`` outside the cache
    layer (``repro/cache/``) and the verifier's injection rigs.  Line
    states may only change through the protocol FSM; a direct mutation
    bypasses the coherence machinery the checker audits.  (Unrelated
    ``.state`` attributes — thread states, RPC states — are not
    flagged: the value must mention ``LineState``.)
``V105 hand-written-protocol``
    A ``*Protocol`` subclass that defines ``read_miss`` / ``write_hit``
    / ``write_miss`` / ``snoop`` by hand instead of deriving the
    handlers from a declarative :class:`repro.protodsl.defs.
    ProtocolDef`.  Hand-written handlers bypass the guard checker's
    exhaustiveness/determinism/reachability proofs and silently fall
    out of sync with the generated facts table and transition oracle.
    (Classes whose base is literally ``Protocol`` — i.e. ``typing.
    Protocol`` structural types — are not protocol implementations and
    are not flagged.)
``V106 uncatalogued-event``
    An ``instant`` / ``instant_at`` / ``complete`` call whose literal
    event name is not declared in the event catalogue
    (:mod:`repro.telemetry.catalog`).  The hub refuses such an event
    only when the emit site runs with its probe live; the lint finds it
    without running anything.

False positives are silenced per line with ``# lint: allow(V1xx)``
(deliberate, reviewed exceptions — e.g. a test helper corrupting state
on purpose).  The linter is pure :mod:`ast` analysis: no imports are
executed, so linting is safe on any tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.telemetry.catalog import EVENTS

#: Paths (relative, substring match) exempt from a given rule.
_RULE_PATH_EXEMPTIONS = {
    "V101": ("repro/common/rng.py",),
    "V104": ("repro/cache/", "repro/verify/"),
}

_WALL_CLOCK_CALLS = {
    ("time", "time"), ("time", "monotonic"), ("time", "perf_counter"),
    ("time", "process_time"), ("time", "sleep"), ("time", "time_ns"),
    ("time", "monotonic_ns"), ("time", "perf_counter_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}

_SET_CONSTRUCTORS = {"set", "frozenset"}
_ORDERING_SINKS = {"sorted", "min", "max", "sum", "len", "any", "all"}

#: The CoherenceProtocol handlers V105 refuses to see hand-written.
_PROTOCOL_HANDLERS = ("read_miss", "write_hit", "write_miss", "snoop")

#: Names V101 takes for numpy even without an ``import numpy as``.
_NUMPY_NAMES = ("numpy", "np")

#: Probe emit methods whose first argument V106 checks.
_EMIT_METHODS = ("instant", "instant_at", "complete")


@dataclass(frozen=True)
class LintFinding:
    """One linter hit: where, which rule, and why it matters."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def lint_source(source: str, path: str = "<string>") -> List[LintFinding]:
    """Lint one module's source text; returns findings, never raises.

    >>> lint_source("import random\\n")[0].rule
    'V101'
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintFinding(path, exc.lineno or 0, exc.offset or 0,
                            "V100", f"syntax error: {exc.msg}")]
    allowed = _allow_pragmas(source)
    visitor = _HazardVisitor(path)
    visitor.visit(tree)
    return [f for f in visitor.findings
            if f.rule not in allowed.get(f.line, ())
            and not _path_exempt(path, f.rule)]


def lint_paths(paths: Sequence, root: Optional[Path] = None,
               ) -> List[LintFinding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: List[LintFinding] = []
    for path in _py_files(paths):
        display = str(path if root is None else path.relative_to(root))
        findings.extend(
            lint_source(path.read_text(encoding="utf-8"), display))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col))


def _py_files(paths: Sequence) -> Iterable[Path]:
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            yield from sorted(p for p in entry.rglob("*.py")
                              if "__pycache__" not in p.parts)
        else:
            yield entry


def _path_exempt(path: str, rule: str) -> bool:
    normalised = path.replace("\\", "/")
    return any(fragment in normalised
               for fragment in _RULE_PATH_EXEMPTIONS.get(rule, ()))


def _allow_pragmas(source: str) -> dict:
    """{line number: (allowed rule ids,)} from ``# lint: allow(...)``."""
    allowed = {}
    for number, text in enumerate(source.splitlines(), start=1):
        marker = "# lint: allow("
        index = text.find(marker)
        if index < 0:
            continue
        inside = text[index + len(marker):text.find(")", index)]
        allowed[number] = tuple(rule.strip() for rule in inside.split(","))
    return allowed


class _HazardVisitor(ast.NodeVisitor):
    """Collects rule violations over one module's AST."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[LintFinding] = []
        self._numpy_names = set(_NUMPY_NAMES)

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(LintFinding(
            self.path, node.lineno, node.col_offset, rule, message))

    # -- V101: unseeded randomness ------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        # Names numpy is bound to, so `np.random.<name>` is caught under
        # any alias (and under the conventional ones without an import).
        self._numpy_names = set(_NUMPY_NAMES) | {
            alias.asname for sub in ast.walk(node)
            if isinstance(sub, ast.Import) for alias in sub.names
            if alias.name == "numpy" and alias.asname}
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root == "random" or _is_numpy_random(alias.name):
                self._flag(node, "V101",
                           f"import of {alias.name!r}: draw from the seeded "
                           f"repro.common.rng streams instead")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == "numpy" and any(alias.name == "random"
                                     for alias in node.names):
            module = "numpy.random"
        if module.split(".")[0] == "random" or _is_numpy_random(module):
            self._flag(node, "V101",
                       f"import from {module!r}: draw from the seeded "
                       f"repro.common.rng streams instead")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in self._numpy_names):
            self._flag(node, "V101",
                       f"use of {node.value.id}.random: draw from the "
                       f"seeded repro.common.rng streams instead")
        self.generic_visit(node)

    # -- V102: wall-clock reads / V106: uncatalogued events -------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_tail(node.func)
        if dotted in _WALL_CLOCK_CALLS:
            self._flag(node, "V102",
                       f"wall-clock call {'.'.join(dotted)}(): simulated "
                       f"code must use the Simulator clock (sim.now)")
        name = _emitted_event_name(node)
        if name is not None and name not in EVENTS:
            self._flag(node, "V106",
                       f"telemetry event {name!r} is not in the event "
                       f"catalogue: declare it in repro.telemetry.catalog "
                       f"under the emitting probe's category")
        self.generic_visit(node)

    # -- V103: unordered iteration ------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _check_iteration(self, iter_node: ast.expr) -> None:
        if _is_set_expression(iter_node):
            self._flag(iter_node, "V103",
                       "iteration over an unordered set: wrap in sorted() "
                       "so event ordering is deterministic")

    # -- V105: hand-written protocol handlers ---------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if any(_is_protocol_base(base) for base in node.bases):
            handlers = [stmt.name for stmt in node.body
                        if isinstance(stmt, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))
                        and stmt.name in _PROTOCOL_HANDLERS]
            if handlers:
                self._flag(node, "V105",
                           f"class {node.name} hand-writes protocol "
                           f"handler(s) {', '.join(sorted(handlers))}: "
                           f"express the protocol as a declarative "
                           f"repro.protodsl ProtocolDef (compiled by "
                           f"DSLProtocol) so the guard checker can prove "
                           f"its transition tables")
        self.generic_visit(node)

    # -- V104: FSM bypass ----------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        # Only `.state` assignments whose value involves LineState are
        # cache-line transitions; other subsystems (threads, RPC) have
        # their own unrelated .state attributes.
        if any(isinstance(t, ast.Attribute) and t.attr == "state"
               for t in node.targets) and _mentions_line_state(node.value):
            self._flag(node, "V104",
                       "direct LineState assignment bypasses the protocol "
                       "FSM; route the change through the protocol (or mark "
                       "a deliberate test corruption with a pragma)")
        self.generic_visit(node)


def _is_numpy_random(module: str) -> bool:
    return module == "numpy.random" or module.startswith("numpy.random.")


def _dotted_tail(func: ast.expr) -> Optional[Tuple[str, str]]:
    """("time", "monotonic") for ``time.monotonic`` / ``a.time.monotonic``."""
    if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                      ast.Attribute):
        return (func.value.attr, func.attr)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return (func.value.id, func.attr)
    return None


def _emitted_event_name(call: ast.Call) -> Optional[str]:
    """The literal event name of a probe emit call, else None."""
    if (isinstance(call.func, ast.Attribute)
            and call.func.attr in _EMIT_METHODS and call.args
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)):
        return call.args[0].value
    return None


def _is_protocol_base(base: ast.expr) -> bool:
    """A base class name that marks a coherence-protocol subclass.

    The last dotted segment must *end* with ``Protocol`` without being
    exactly ``Protocol`` — ``typing.Protocol`` structural types are
    interfaces, not protocol implementations.
    """
    if isinstance(base, ast.Attribute):
        name = base.attr
    elif isinstance(base, ast.Name):
        name = base.id
    else:
        return False
    return name.endswith("Protocol") and name != "Protocol"


def _mentions_line_state(node: ast.expr) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id == "LineState"
               for sub in ast.walk(node))


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _SET_CONSTRUCTORS:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # A union/intersection/difference of sets is itself a set; only
        # flag when at least one operand is syntactically a set.
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False
