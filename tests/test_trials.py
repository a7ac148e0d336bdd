"""The one trial pipeline under chaos, serve, sweep and campaign.

Every harness expands its trials through the registry in
:mod:`repro.observatory.trials` and runs them through one
``run_ordered`` call at every job count, so a failing trial is reported
identically at ``jobs=1`` and ``jobs=2``, and every scenario selection
rejects the same malformed input.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import re

import pytest

from repro.campaign import CampaignStore, parse_spec, run_campaign_spec
from repro.campaign.spec import CAMPAIGN_SCHEMA
from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.faults.chaos import run_campaign
from repro.observatory.runner import TrialFailure, run_sweep
from repro.observatory.trials import TRIAL_KINDS
from repro.serving.engine import run_serve_campaign

pytestmark = pytest.mark.observatory


def _explode(trial):
    raise ValueError("scenario exploded")


def _spec_data(kind, scenarios):
    """A one-group campaign naming pinned scenarios of one kind."""
    return {"schema": CAMPAIGN_SCHEMA, "name": kind, "seeds": [1987],
            "matrix": [{"kind": kind, "scenarios": scenarios}]}


def _spec_file(tmp_path, data):
    path = tmp_path / f"{data['name']}.json"
    path.write_text(json.dumps(data))
    return path


def _campaign_harness(tmp_path, kind, scenarios):
    """A campaign of two pinned trials: (kind, API call at ``jobs``,
    CLI argv, failing label)."""
    data = _spec_data(kind, scenarios)
    spec = parse_spec(data)
    store = CampaignStore(tmp_path / f"{kind}-store")
    return (kind,
            lambda jobs: run_campaign_spec(spec, store, jobs=jobs),
            ["campaign", "run", str(_spec_file(tmp_path, data)),
             "--store-dir", str(tmp_path / f"{kind}-cli-store")],
            f"{kind}/{scenarios[0]}/quick/s1987")


def _harnesses(tmp_path):
    """harness -> (kind, API call at ``jobs``, CLI argv, failing label).

    Each runs two trials, so ``jobs=2`` really fans out.
    """
    return {
        "bench": _campaign_harness(tmp_path, "bench",
                                   ["core-microbench", "exerciser-1cpu"]),
        "chaos": (
            "chaos",
            lambda jobs: run_campaign(quick=True, jobs=jobs,
                                      scenarios=["bus-parity",
                                                 "cpu-offline"]),
            ["chaos", "--quick", "--scenario", "bus-parity",
             "--scenario", "cpu-offline"],
            "chaos/bus-parity/quick/s1987"),
        "serve": (
            "serve",
            lambda jobs: run_serve_campaign(quick=True, jobs=jobs,
                                            scenarios=["steady-poisson",
                                                       "bursty-shed"]),
            ["serve", "--quick", "--scenario", "steady-poisson",
             "--scenario", "bursty-shed"],
            "serve/steady-poisson/quick/s1987"),
        "sweep": (
            "sweep",
            lambda jobs: run_sweep([1, 2], [1987], warmup=100,
                                   measure=100, jobs=jobs),
            ["sweep", "--processors", "1,2", "--seeds", "1987",
             "--warmup-cycles", "100", "--measure-cycles", "100"],
            "sweep/np1/firefly/microvax/s1987"),
        "campaign": _campaign_harness(tmp_path, "chaos",
                                      ["bus-parity", "cpu-offline"]),
    }


class TestFailureNaming:
    @pytest.mark.parametrize("harness", ["bench", "chaos", "serve",
                                         "sweep", "campaign"])
    def test_same_trial_failure_at_every_job_count(
            self, harness, tmp_path, monkeypatch, capsys):
        """A raising runner surfaces as one TrialFailure naming the
        trial, word for word the same at jobs 1 and 2.  The patched
        registry reaches the pool workers through fork."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("patched runners reach pool workers only by fork")
        kind, run, argv, label = _harnesses(tmp_path)[harness]
        monkeypatch.setitem(TRIAL_KINDS, kind, dataclasses.replace(
            TRIAL_KINDS[kind], run=_explode))
        messages = []
        for jobs in (1, 2):
            with pytest.raises(TrialFailure) as exc:
                run(jobs)
            messages.append(str(exc.value))
        expected = f"trial {label} failed: ValueError: scenario exploded"
        assert messages == [expected, expected]
        for jobs in ("1", "2"):
            assert main(argv + ["--jobs", jobs]) == 1
            assert f"error: {expected}" in capsys.readouterr().err


class TestScenarioSelection:
    @pytest.mark.parametrize("command, run, name", [
        ("bench", lambda names: parse_spec(_spec_data("bench", names)),
         "core-microbench"),
        ("chaos", lambda names: run_campaign(quick=True, scenarios=names),
         "bus-parity"),
        ("serve", lambda names: run_serve_campaign(quick=True,
                                                   scenarios=names),
         "steady-poisson"),
    ], ids=["bench", "chaos", "serve"])
    def test_duplicate_scenario_rejected(self, command, run, name,
                                         tmp_path, capsys):
        """Naming a scenario twice is an error, like naming an unknown
        one — before anything runs."""
        message = f"{command} scenario(s) {name} named more than once"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            run([name, name])
        if command == "bench":
            spec = _spec_file(tmp_path, _spec_data("bench", [name, name]))
            argv = ["campaign", "run", str(spec),
                    "--store-dir", str(tmp_path / "store")]
        else:
            argv = [command, "--quick", "--scenario", name,
                    "--scenario", name]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "store").exists()
