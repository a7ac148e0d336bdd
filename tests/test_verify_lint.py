"""The simulation-safety linter: every rule, pragma, and exemption."""

import textwrap
from pathlib import Path

from repro.verify.lint import lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_in(source: str, path: str = "module.py"):
    return [f.rule for f in lint_source(textwrap.dedent(source), path)]


class TestV100Syntax:
    def test_syntax_error_is_reported_not_raised(self):
        findings = lint_source("def broken(:\n", "bad.py")
        assert [f.rule for f in findings] == ["V100"]
        assert findings[0].line == 1
        assert "syntax error" in findings[0].message


class TestV101UnseededRandom:
    def test_import_random(self):
        assert rules_in("import random\n") == ["V101"]

    def test_import_random_submodule_and_alias(self):
        assert rules_in("import random.shuffle as sh\n") == ["V101"]
        assert rules_in("import numpy.random\n") == ["V101"]

    def test_from_random_import(self):
        assert rules_in("from random import shuffle\n") == ["V101"]

    def test_seeded_rng_module_is_fine(self):
        assert rules_in("from repro.common.rng import RandomStream\n") == []

    def test_rng_module_itself_is_exempt(self):
        assert rules_in("import random\n",
                        "src/repro/common/rng.py") == []


class TestV102WallClock:
    def test_time_time(self):
        assert rules_in("import time\nt = time.time()\n") == ["V102"]

    def test_monotonic_and_perf_counter(self):
        assert rules_in("stamp = time.monotonic()\n") == ["V102"]
        assert rules_in("stamp = time.perf_counter_ns()\n") == ["V102"]

    def test_datetime_now(self):
        assert rules_in("when = datetime.now()\n") == ["V102"]
        assert rules_in("when = datetime.datetime.utcnow()\n") == ["V102"]

    def test_sim_clock_is_fine(self):
        assert rules_in("now = sim.now\n") == []


class TestV103UnorderedIteration:
    def test_for_over_set_display(self):
        assert rules_in("for x in {1, 2, 3}:\n    pass\n") == ["V103"]

    def test_for_over_set_call(self):
        assert rules_in("for x in set(items):\n    pass\n") == ["V103"]
        assert rules_in("for x in frozenset(items):\n    pass\n") == ["V103"]

    def test_comprehension_over_set_union(self):
        source = "out = [x for x in {1} | other]\n"
        assert rules_in(source) == ["V103"]

    def test_sorted_set_is_fine(self):
        assert rules_in("for x in sorted({1, 2}):\n    pass\n") == []

    def test_list_iteration_is_fine(self):
        assert rules_in("for x in [1, 2]:\n    pass\n") == []
        # Arithmetic BinOps are not sets even though Sub matches the op.
        assert rules_in("for x in range(n - 1):\n    pass\n") == []


class TestV104StateBypass:
    def test_direct_line_state_assignment(self):
        source = "line.state = LineState.DIRTY\n"
        assert rules_in(source) == ["V104"]

    def test_unrelated_state_attribute_is_fine(self):
        # Thread/RPC subsystems have their own .state; only values that
        # mention LineState are cache-line transitions.
        assert rules_in("thread.state = ThreadState.READY\n") == []

    def test_cache_layer_is_exempt(self):
        source = "line.state = LineState.DIRTY\n"
        assert lint_source(source, "src/repro/cache/protocols/mesi.py") == []


class TestV105HandWrittenProtocol:
    def test_hand_written_handler_is_flagged(self):
        source = """
        class MyProtocol(CoherenceProtocol):
            def write_hit(self, cache, line, index, offset, value):
                pass
        """
        assert rules_in(source) == ["V105"]

    def test_handler_override_under_dsl_subclass_is_flagged(self):
        source = """
        class Tampered(FireflyProtocol):
            def snoop(self, cache, line, line_address, op, data):
                pass
        """
        assert rules_in(source) == ["V105"]

    def test_finding_names_the_handlers(self):
        source = ("class P(CoherenceProtocol):\n"
                  "    def snoop(self): pass\n"
                  "    def write_miss(self): pass\n")
        findings = lint_source(source, "module.py")
        assert [f.rule for f in findings] == ["V105"]
        assert "snoop, write_miss" in findings[0].message

    def test_dsl_definition_class_is_fine(self):
        source = """
        class FireflyProtocol(DSLProtocol):
            definition = FIREFLY
        """
        assert rules_in(source) == []

    def test_typing_protocol_is_not_flagged(self):
        source = """
        class Snoopable(Protocol):
            def snoop(self, op): ...
        class Other(typing.Protocol):
            def write_hit(self): ...
        """
        assert rules_in(source) == []

    def test_non_handler_methods_are_fine(self):
        source = """
        class MyProtocol(CoherenceProtocol):
            def helper(self):
                pass
        """
        assert rules_in(source) == []

    def test_pragma_escape_on_the_class_line(self):
        source = """
        class Mutant(FireflyProtocol):  # lint: allow(V105)
            def read_miss(self, *a):
                pass
        """
        assert rules_in(source) == []


class TestV106UncataloguedEvent:
    def test_every_emit_method_is_checked(self):
        assert rules_in('probe.instant("bus.opp", "bus")\n') == ["V106"]
        assert rules_in('p.instant_at("sched.redy", "sched", 5)\n') == [
            "V106"]
        assert rules_in('p.complete("dma.bursts", "qbus", 0, 4)\n') == [
            "V106"]

    def test_catalogued_and_computed_names_are_fine(self):
        assert rules_in('probe.complete("bus.op", "bus", 0, 4)\n') == []
        assert rules_in('probe.instant(name, "bus")\n') == []
        assert rules_in('probe.instant()\n') == []

    def test_finding_names_the_event(self):
        findings = lint_source('probe.instant("gpu.launch", "gpu")\n',
                               "module.py")
        assert [f.rule for f in findings] == ["V106"]
        assert "'gpu.launch'" in findings[0].message

    def test_mutated_emit_site_is_caught(self):
        """Rename a real emit in mbus.py: the lint names its line."""
        path = REPO_ROOT / "src" / "repro" / "bus" / "mbus.py"
        source = path.read_text(encoding="utf-8")
        assert '"bus.grant"' in source
        mutant = source.replace('"bus.grant"', '"bus.granted"')
        line = next(number for number, text
                    in enumerate(mutant.splitlines(), start=1)
                    if '"bus.granted"' in text)
        findings = lint_source(mutant, "src/repro/bus/mbus.py")
        assert [(f.rule, f.line) for f in findings] == [("V106", line)]
        assert lint_source(source, "src/repro/bus/mbus.py") == []

    def test_pragma_escape(self):
        source = 'probe.instant("x.y", "t")  # lint: allow(V106)\n'
        assert rules_in(source) == []


class TestPragmas:
    def test_allow_pragma_suppresses_on_its_line(self):
        source = "import random  # lint: allow(V101)\n"
        assert rules_in(source) == []

    def test_pragma_lists_multiple_rules(self):
        source = ("line.state = LineState.DIRTY"
                  "  # lint: allow(V101, V104)\n")
        assert rules_in(source) == []

    def test_pragma_only_covers_named_rule(self):
        source = "import random  # lint: allow(V102)\n"
        assert rules_in(source) == ["V101"]

    def test_pragma_only_covers_its_line(self):
        source = "import random  # lint: allow(V101)\nimport random\n"
        findings = lint_source(source, "module.py")
        assert [(f.rule, f.line) for f in findings] == [("V101", 2)]


class TestLintPaths:
    def test_findings_carry_location_and_sort_stably(self, tmp_path):
        (tmp_path / "b.py").write_text("import random\n")
        (tmp_path / "a.py").write_text("t = time.time()\nimport random\n")
        findings = lint_paths([tmp_path], root=tmp_path)
        assert [(f.path, f.line, f.rule) for f in findings] == [
            ("a.py", 1, "V102"), ("a.py", 2, "V101"), ("b.py", 1, "V101")]
        assert "a.py:1:" in str(findings[0])

    def test_pycache_is_skipped(self, tmp_path):
        bad = tmp_path / "__pycache__"
        bad.mkdir()
        (bad / "stale.py").write_text("import random\n")
        assert lint_paths([tmp_path]) == []

    def test_simulator_sources_are_clean(self):
        """The enforced gate: ``src/`` must lint clean."""
        src = REPO_ROOT / "src"
        findings = lint_paths([src], root=REPO_ROOT)
        assert findings == [], "\n".join(str(f) for f in findings)
