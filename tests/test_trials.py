"""The one trial pipeline under bench, chaos, serve, sweep and campaign.

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
from repro.observatory.bench import run_suite
from repro.observatory.runner import TrialFailure, run_sweep
from repro.observatory.trials import TRIAL_KINDS
from repro.serving.engine import run_serve_campaign

pytestmark = pytest.mark.observatory


def _explode(trial):
    raise ValueError("scenario exploded")


def _campaign(tmp_path):
    """A campaign of two chaos trials, as a parsed spec and a spec file."""
    data = {"schema": CAMPAIGN_SCHEMA, "name": "boom", "seeds": [1987],
            "matrix": [{"kind": "chaos",
                        "scenarios": ["bus-parity", "cpu-offline"]}]}
    path = tmp_path / "boom.json"
    path.write_text(json.dumps(data))
    return parse_spec(data), path


def _harnesses(tmp_path):
    """harness -> (kind, API call at ``jobs``, CLI argv, failing label).

    Each runs two trials, so ``jobs=2`` really fans out.
    """
    spec, spec_path = _campaign(tmp_path)
    store = CampaignStore(tmp_path / "store")
    return {
        "bench": (
            "bench",
            lambda jobs: run_suite(quick=True,
                                   scenarios=["core-microbench",
                                              "exerciser-1cpu"],
                                   skip_overhead=True, jobs=jobs),
            ["bench", "--quick", "--scenario", "core-microbench",
             "--scenario", "exerciser-1cpu", "--skip-overhead",
             "--out-dir", str(tmp_path)],
            "bench/core-microbench/quick/s1987"),
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
        "campaign": (
            "chaos",
            lambda jobs: run_campaign_spec(spec, store, jobs=jobs),
            ["campaign", "run", str(spec_path), "--store-dir",
             str(tmp_path / "cli-store")],
            "chaos/bus-parity/quick/s1987"),
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
        ("bench", lambda names: run_suite(quick=True, scenarios=names,
                                          skip_overhead=True),
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
        argv = [command, "--quick", "--scenario", name, "--scenario", name]
        if command == "bench":
            argv += ["--out-dir", str(tmp_path)]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
