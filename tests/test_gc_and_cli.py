"""The GC workload and the command-line interface."""

import pytest

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.system import CoherenceChecker
from repro.topaz.kernel import TopazKernel
from repro.workloads.gc_app import GcApplication, GcParams


def kernel_with(processors, seed=43):
    return TopazKernel.build(processors=processors, threads_hint=6,
                             seed=seed, shared_region_words=4096)


SMALL = GcParams(work_units=20, heap_cells=128, collect_threshold=96,
                 allocations_per_unit=16)


class TestGcApplication:
    def test_stop_world_completes_with_collections(self):
        app = GcApplication(kernel_with(1), SMALL,
                            concurrent_collector=False)
        elapsed = app.run()
        assert elapsed > 0
        assert app.collections >= 1
        CoherenceChecker(app.kernel.machine).check()

    def test_concurrent_completes_same_collections(self):
        stop = GcApplication(kernel_with(1), SMALL,
                             concurrent_collector=False)
        stop.run()
        conc = GcApplication(kernel_with(2), SMALL,
                             concurrent_collector=True)
        conc.run()
        assert conc.collections == stop.collections

    def test_second_processor_speeds_up_the_application(self):
        stop = GcApplication(kernel_with(1), SMALL,
                             concurrent_collector=False)
        stop_elapsed = stop.run()
        conc = GcApplication(kernel_with(2), SMALL,
                             concurrent_collector=True)
        conc_elapsed = conc.run()
        assert conc_elapsed < stop_elapsed
        CoherenceChecker(conc.kernel.machine).check()

    def test_params_validation(self):
        with pytest.raises(ConfigurationError):
            GcParams(work_units=0)
        with pytest.raises(ConfigurationError):
            GcParams(collect_threshold=10_000)


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "TPI" in out and "knee" in out
        assert "13.4" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--processors", "2",
                     "--warmup-cycles", "20000",
                     "--measure-cycles", "50000"]) == 0
        out = capsys.readouterr().out
        assert "bus load" in out
        assert "coherence OK" in out

    def test_simulate_with_diagram(self, capsys):
        assert main(["simulate", "--processors", "1",
                     "--warmup-cycles", "10000",
                     "--measure-cycles", "20000",
                     "--diagram", "--skip-check"]) == 0
        out = capsys.readouterr().out
        assert "Firefly System" in out
        assert "coherence OK" not in out

    def test_fsm(self, capsys):
        assert main(["fsm", "--protocol", "mesi"]) == 0
        out = capsys.readouterr().out
        assert "mesi" in out and "state V:" in out

    def test_exerciser(self, capsys):
        assert main(["exerciser", "--processors", "2", "--threads", "6",
                     "--measure-cycles", "100000"]) == 0
        out = capsys.readouterr().out
        assert "expected (analytic)" in out
        assert "migrations" in out

    def test_bad_config_is_a_clean_error(self, capsys):
        assert main(["simulate", "--processors", "99"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_bad_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["no-such-command"])


class TestCliVerify:
    """The verify subcommand: guard stage, --json document, lint scope."""

    def test_verify_one_protocol(self, capsys):
        assert main(["verify", "--protocol", "mesi", "--no-lint"]) == 0
        out = capsys.readouterr().out
        assert "[OK] mesi" in out
        assert "all checks passed" in out

    def test_lint_only_and_no_lint_are_exclusive(self, capsys):
        # Together they would check nothing and still report a pass.
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--lint-only", "--no-lint"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--lint-only" in err and "--no-lint" in err

    def test_verify_json_document(self, tmp_path, capsys):
        import json
        out_path = tmp_path / "findings.json"
        assert main(["verify", "--all-protocols", "--no-lint",
                     "--json", str(out_path)]) == 0
        capsys.readouterr()
        document = json.loads(out_path.read_text())
        assert document["ok"] is True
        assert sorted(document["protocols"]) == [
            "bedrock", "berkeley", "dragon", "firefly", "mesi", "moesi",
            "synapse", "write-once", "write-through"]
        entry = document["protocols"]["firefly"]
        assert entry["guard_findings"] == []
        assert entry["model"]["ok"] is True
        assert entry["model"]["counterexample"] is None

    def test_verify_json_is_byte_stable(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for path in (first, second):
            assert main(["verify", "--protocol", "bedrock", "--no-lint",
                         "--json", str(path)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_verify_json_refuses_overwrite_without_force(self, tmp_path,
                                                         capsys):
        out_path = tmp_path / "findings.json"
        out_path.write_text("{}")
        assert main(["verify", "--protocol", "mesi", "--no-lint",
                     "--json", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert "--force" in err
        assert out_path.read_text() == "{}"
        assert main(["verify", "--protocol", "mesi", "--no-lint",
                     "--json", str(out_path), "--force"]) == 0
        capsys.readouterr()

    def test_raising_stimulus_lands_in_the_document(self, tmp_path,
                                                    monkeypatch, capsys):
        import json

        import repro.verify.model as model
        from tests.test_verify_model import _DmaLeakWriteOnce
        monkeypatch.setattr(model, "protocol_by_name",
                            lambda name: _DmaLeakWriteOnce())
        out_path = tmp_path / "findings.json"
        assert main(["verify", "--protocol", "write-once", "--dma",
                     "--no-lint", "--json", str(out_path)]) == 1
        assert "->  raised" in capsys.readouterr().out
        model_entry = json.loads(out_path.read_text())[
            "protocols"]["write-once"]["model"]
        counterexample = model_entry["counterexample"]
        assert counterexample["violation"].startswith("completion violated")
        assert counterexample["trace"][-1]["state"] == "raised"

    def test_verify_lint_findings_land_in_the_document(self, tmp_path,
                                                       capsys):
        import json
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        out_path = tmp_path / "findings.json"
        assert main(["verify", "--lint-only", "--lint-path", str(bad),
                     "--json", str(out_path)]) == 1
        capsys.readouterr()
        document = json.loads(out_path.read_text())
        assert document["ok"] is False
        assert document["lint"][0]["rule"] == "V101"
