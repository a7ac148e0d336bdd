"""The campaign manager (repro.campaign) and observatory dashboard.

The load-bearing claims:

- a campaign spec expands deterministically (axes, exclusions, labels,
  content-hashed keys of spec+seed+git-sha);
- the JSONL ledger makes ``campaign run`` resumable: a run killed
  mid-flight loses only in-flight trials, the re-run skips everything
  the ledger holds, and the merged report is **byte-identical** to an
  uninterrupted run at any job count;
- golden digests turn silent result drift into a named failure;
- the HTML dashboard renders from the ledgers alone: each bench
  trial's §5.2 residuals under its own (campaign, trial label) column,
  and no host-speed verdict, from stdlib templating alone.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignStore,
    gc_campaign,
    golden_block,
    load_spec,
    parse_spec,
    run_campaign_spec,
)
from repro.campaign.spec import CAMPAIGN_SCHEMA
from repro.common.errors import ConfigurationError
from repro.common.provenance import content_hash, git_sha
from repro.observatory.runner import TrialFailure
from repro.observatory.trials import TrialSpec, run_trial
from repro.reporting import render_dashboard

pytestmark = pytest.mark.campaign

REPO_ROOT = Path(__file__).resolve().parents[1]

FAIL_ENV = "FIREFLY_TEST_PROBE_FAIL"


def probe_spec(name="resume-test", seeds=(1, 2, 3, 4, 5, 6),
               golden=None, fail_env=FAIL_ENV):
    group = {"kind": "probe", "name": "t"}
    if fail_env:
        group["fail_env"] = fail_env
    data = {"schema": CAMPAIGN_SCHEMA, "name": name,
            "description": "probe-only campaign for the test-suite",
            "seeds": list(seeds), "matrix": [group]}
    if golden:
        data["golden"] = golden
    return parse_spec(data)


def spec_dict(**overrides):
    data = {
        "schema": CAMPAIGN_SCHEMA,
        "name": "unit",
        "description": "",
        "seeds": [1987, 1988],
        "matrix": [{
            "kind": "sweep",
            "processors": [1, 2],
            "protocol": ["firefly", "write-through"],
            "warmup": 200,
            "measure": 800,
        }],
    }
    data.update(overrides)
    return data


# ---------------------------------------------------------------------------
# provenance (satellite: stamps on every artifact)


class TestProvenance:
    def test_content_hash_is_order_independent(self):
        assert content_hash({"a": 1, "b": [2, 3]}) \
            == content_hash({"b": [2, 3], "a": 1})

    def test_content_hash_distinguishes_values(self):
        assert content_hash({"a": 1}) != content_hash({"a": 2})

    def test_content_hash_rejects_nan(self):
        with pytest.raises(ValueError):
            content_hash({"a": float("nan")})

    def test_git_sha_in_this_checkout(self):
        sha = git_sha(REPO_ROOT)
        assert sha is not None and len(sha) == 40

    def test_git_sha_outside_a_checkout(self, tmp_path):
        assert git_sha(tmp_path) is None


# ---------------------------------------------------------------------------
# spec parsing and expansion


class TestSpecValidation:
    def test_valid_spec_parses(self):
        spec = parse_spec(spec_dict())
        assert spec.name == "unit"
        assert spec.spec_hash.startswith("sha256:")

    @pytest.mark.parametrize("mutation, fragment", [
        ({"schema": "nope/1"}, "schema"),
        ({"name": "has space"}, "name"),
        ({"seeds": []}, "seeds"),
        ({"seeds": [1, 1]}, "duplicate"),
        ({"matrix": []}, "matrix"),
        ({"extra": 1}, "unknown top-level"),
        ({"golden": {"x": "notadigest"}}, "digest"),
    ])
    def test_bad_top_level(self, mutation, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            parse_spec(spec_dict(**mutation))

    @pytest.mark.parametrize("group, fragment", [
        ({"kind": "mystery"}, "kind"),
        ({"kind": "sweep", "threads": 4}, "unknown key"),
        ({"kind": "sweep", "processors": [0]}, "processors"),
        ({"kind": "sweep", "protocol": "klingon"}, "protocol"),
        ({"kind": "sweep", "generation": "vax9000"}, "generation"),
        ({"kind": "bench", "scenarios": ["no-such"]}, "scenario"),
        ({"kind": "chaos", "scenarios": ["no-such"]}, "scenario"),
        ({"kind": "serve", "scenarios": ["no-such"]}, "scenario"),
        ({"kind": "serve", "warmup": 100}, "unknown key"),
        ({"kind": "probe", "name": ""}, "name"),
        ({"kind": "sweep", "exclude": [{"threads": 1}]}, "unknown axis"),
        ({"kind": "sweep", "exclude": ["np1"]}, "mapping"),
        # YAML booleans are ints to Python; no integer key takes one.
        ({"kind": "sweep", "processors": [True]},
         "processors must be an integer"),
        ({"kind": "sweep", "warmup": False}, "warmup must be an integer"),
        ({"kind": "sweep", "measure": True}, "measure must be an integer"),
        ({"kind": "vector", "processors": True},
         "processors must be an integer"),
        ({"kind": "vector", "instructions": True},
         "instructions must be an integer"),
        ({"kind": "probe", "offset": True}, "offset must be an integer"),
        ({"kind": "probe", "spin": False}, "spin must be an integer"),
        # A spec still carrying the old engine axis fails loudly.
        ({"kind": "bench", "engine": "heap"},
         r"unknown key\(s\) for kind 'bench': engine"),
        # ... and so does one still choosing a vectorized draw backend.
        ({"kind": "vector", "backend": "python"},
         r"unknown key\(s\) for kind 'vector': backend"),
    ])
    def test_bad_groups(self, group, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            parse_spec(spec_dict(matrix=[group]))

    def test_golden_must_name_real_trials(self):
        with pytest.raises(ConfigurationError, match="never produces"):
            parse_spec(spec_dict(
                golden={"sweep/np9/firefly/microvax/s1": "sha256:00"}))

    def test_duplicate_trials_rejected(self):
        group = {"kind": "probe", "name": "t"}
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_spec(spec_dict(matrix=[group, dict(group)]))

    def test_yaml_and_json_load_identically(self, tmp_path):
        data = spec_dict()
        json_path = tmp_path / "c.json"
        json_path.write_text(json.dumps(data))
        yaml_path = tmp_path / "c.yaml"
        yaml = pytest.importorskip("yaml")
        yaml_path.write_text(yaml.safe_dump(data))
        assert load_spec(json_path).spec_hash \
            == load_spec(yaml_path).spec_hash

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            load_spec(tmp_path / "nope.yaml")


class TestExpansion:
    def test_matrix_order_and_labels(self):
        spec = parse_spec(spec_dict())
        labels = [t.label for t in spec.expand("sha")]
        assert labels == [
            "sweep/np1/firefly/microvax/s1987",
            "sweep/np1/firefly/microvax/s1988",
            "sweep/np1/write-through/microvax/s1987",
            "sweep/np1/write-through/microvax/s1988",
            "sweep/np2/firefly/microvax/s1987",
            "sweep/np2/firefly/microvax/s1988",
            "sweep/np2/write-through/microvax/s1987",
            "sweep/np2/write-through/microvax/s1988",
        ]

    def test_exclusions_remove_matching_cells(self):
        data = spec_dict()
        data["matrix"][0]["exclude"] = [
            {"protocol": "write-through", "processors": 1},
            {"seed": 1988},
        ]
        labels = [t.label for t in parse_spec(data).expand("sha")]
        assert labels == [
            "sweep/np1/firefly/microvax/s1987",
            "sweep/np2/firefly/microvax/s1987",
            "sweep/np2/write-through/microvax/s1987",
        ]

    def test_serve_group_labels(self):
        data = spec_dict(matrix=[{
            "kind": "serve",
            "scenarios": ["steady-poisson", "bursty-shed"],
            "quick": True,
            "seeds": [1987],
        }])
        labels = [t.label for t in parse_spec(data).expand("sha")]
        assert labels == [
            "serve/steady-poisson/quick/s1987",
            "serve/bursty-shed/quick/s1987",
        ]

    def test_group_seeds_override_default(self):
        data = spec_dict()
        data["matrix"][0]["seeds"] = [7]
        seeds = {t.seed for t in parse_spec(data).expand("sha")}
        assert seeds == {7}

    def test_keys_hash_spec_seed_and_sha(self):
        spec = parse_spec(spec_dict())
        first = spec.expand("sha-one")
        again = spec.expand("sha-one")
        moved = spec.expand("sha-two")
        assert [t.key for t in first] == [t.key for t in again]
        assert set(t.key for t in first) \
            .isdisjoint(t.key for t in moved)
        assert len({t.key for t in first}) == len(first)


# ---------------------------------------------------------------------------
# the store


class TestStore:
    def row(self, key, value=0):
        return {"schema": "firefly-campaign-ledger/1", "campaign": "c",
                "key": key, "label": f"l/{key}", "kind": "probe",
                "seed": 1, "params": {}, "git_sha": "sha",
                "spec_hash": "sha256:0", "result": {"value": value}}

    def test_roundtrip_and_last_wins(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append("c", self.row("k1", 1))
        store.append("c", self.row("k2", 2))
        store.append("c", self.row("k1", 3))
        load = store.load("c")
        assert load.total_rows == 3
        assert load.rows["k1"]["result"] == {"value": 3}
        assert load.rows["k2"]["result"] == {"value": 2}

    def test_missing_ledger_is_empty(self, tmp_path):
        load = CampaignStore(tmp_path).load("ghost")
        assert load.rows == {} and load.total_rows == 0

    def test_torn_final_line_is_skipped(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append("c", self.row("k1"))
        with store.ledger_path("c").open("a") as handle:
            handle.write('{"key": "k2", "result": {"va')
        load = store.load("c")
        assert set(load.rows) == {"k1"}
        assert load.corrupt_lines == 1

    def test_rows_without_provenance_fields_load(self, tmp_path):
        store = CampaignStore(tmp_path)
        old = {"key": "k0", "label": "l", "kind": "probe", "seed": 1,
               "params": {}, "result": {"value": 9}}
        store.ledger_path("c").parent.mkdir(exist_ok=True, parents=True)
        store.ledger_path("c").write_text(json.dumps(old) + "\n")
        load = store.load("c")
        assert load.rows["k0"]["result"] == {"value": 9}
        assert load.rows["k0"].get("git_sha") is None

    def test_gc_compacts_to_live_keys(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append("c", self.row("k1", 1))
        store.append("c", self.row("k1", 2))
        store.append("c", self.row("stale", 3))
        kept, dropped = store.gc("c", ["k1", "k-future"])
        assert (kept, dropped) == (1, 2)
        load = store.load("c")
        assert set(load.rows) == {"k1"}
        assert load.rows["k1"]["result"] == {"value": 2}

    def test_gc_without_ledger_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no ledger"):
            CampaignStore(tmp_path).gc("ghost", [])

    def test_campaign_listing(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append("beta", self.row("k"))
        store.append("alpha", self.row("k"))
        assert store.campaigns() == ["alpha", "beta"]


# ---------------------------------------------------------------------------
# the engine: resume semantics (the tentpole's acceptance criterion)


class TestResume:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_killed_mid_run_then_resumed_is_byte_identical(
            self, tmp_path, monkeypatch, jobs):
        """Fault-inject trial s3, watch the campaign die, resume, and
        compare the merged report byte-for-byte with an uninterrupted
        run — at jobs=1 and jobs=4."""
        spec = probe_spec()

        broken = CampaignStore(tmp_path / "broken")
        monkeypatch.setenv(FAIL_ENV, "3")
        with pytest.raises(TrialFailure) as exc:
            run_campaign_spec(spec, broken, jobs=jobs)
        assert "probe/t/s3" in str(exc.value)
        survivors = broken.load(spec.name)
        assert set(r["label"] for r in survivors.rows.values()) \
            == {"probe/t/s1", "probe/t/s2"}

        monkeypatch.delenv(FAIL_ENV)
        resumed = run_campaign_spec(spec, broken, jobs=jobs)
        assert resumed.skipped == 2
        assert resumed.ran == 4

        clean = run_campaign_spec(
            spec, CampaignStore(tmp_path / "clean"), jobs=jobs)
        assert json.dumps(resumed.report, indent=2, sort_keys=True) \
            == json.dumps(clean.report, indent=2, sort_keys=True)

    def test_rerun_skips_everything(self, tmp_path):
        spec = probe_spec()
        store = CampaignStore(tmp_path)
        first = run_campaign_spec(spec, store)
        again = run_campaign_spec(spec, store)
        assert (first.ran, first.skipped) == (6, 0)
        assert (again.ran, again.skipped) == (0, 6)
        assert json.dumps(first.report, sort_keys=True) \
            == json.dumps(again.report, sort_keys=True)

    def test_jobs_do_not_change_the_report(self, tmp_path):
        spec = probe_spec()
        serial = run_campaign_spec(spec,
                                   CampaignStore(tmp_path / "s"), jobs=1)
        parallel = run_campaign_spec(spec,
                                     CampaignStore(tmp_path / "p"),
                                     jobs=4)
        assert json.dumps(serial.report, sort_keys=True) \
            == json.dumps(parallel.report, sort_keys=True)

    def test_torn_ledger_line_just_reruns_that_trial(self, tmp_path):
        spec = probe_spec(seeds=(1, 2))
        store = CampaignStore(tmp_path)
        run_campaign_spec(spec, store)
        path = store.ledger_path(spec.name)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n"
                        + lines[-1][: len(lines[-1]) // 2])
        resumed = run_campaign_spec(spec, store)
        assert (resumed.ran, resumed.skipped) == (1, 1)

    def test_resume_only_requires_a_ledger(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no ledger"):
            run_campaign_spec(probe_spec(), CampaignStore(tmp_path),
                              resume_only=True)

    def test_stale_sha_rows_do_not_count(self, tmp_path):
        spec = probe_spec(seeds=(1, 2))
        store = CampaignStore(tmp_path)
        run_campaign_spec(spec, store, sha="rev-a")
        rerun = run_campaign_spec(spec, store, sha="rev-b")
        assert (rerun.ran, rerun.skipped) == (2, 0)
        kept, dropped = gc_campaign(spec, store, sha="rev-b")
        assert (kept, dropped) == (2, 2)


class TestGolden:
    def test_matching_digests_pass(self, tmp_path):
        base = run_campaign_spec(probe_spec(seeds=(1, 2)),
                                 CampaignStore(tmp_path / "a"))
        digests = {entry["label"]: content_hash(entry["result"])
                   for entry in base.report["trials"]}
        pinned = probe_spec(seeds=(1, 2), golden=digests)
        run = run_campaign_spec(pinned, CampaignStore(tmp_path / "b"))
        assert run.ok
        assert all(v["verdict"] == "ok" for v in run.golden.values())

    def test_drift_names_the_trial(self, tmp_path):
        pinned = probe_spec(seeds=(1, 2), golden={
            "probe/t/s2": "sha256:feedfacefeedface"})
        run = run_campaign_spec(pinned, CampaignStore(tmp_path))
        assert not run.ok
        assert run.golden_failures == ["probe/t/s2"]
        assert run.golden["probe/t/s2"]["verdict"] == "drift"
        assert run.report["golden"]["probe/t/s2"]["actual"] \
            .startswith("sha256:")

    def test_golden_block_is_pasteable(self, tmp_path):
        run = run_campaign_spec(probe_spec(seeds=(1,)),
                                CampaignStore(tmp_path))
        block = golden_block(run)
        assert block.startswith("golden:")
        assert "  probe/t/s1: sha256:" in block


class TestWorker:
    def test_probe_is_pure(self):
        result = run_trial(TrialSpec("probe", "probe/t/s5", 5,
                                     {"name": "t", "offset": 2}))
        assert result == {"seed": 5, "value": 27}

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError, match="kind"):
            run_trial(TrialSpec("mystery", "x", 1, {}))

    @pytest.mark.slow
    def test_sweep_trial_matches_sweep_point(self, tmp_path):
        """A campaign sweep trial stores exactly the point
        ``firefly-sim sweep`` reports for the same grid cell."""
        from repro.observatory.runner import run_sweep

        data = spec_dict(seeds=[1987], matrix=[{
            "kind": "sweep", "processors": 1, "warmup": 500,
            "measure": 2000}])
        run = run_campaign_spec(parse_spec(data), CampaignStore(tmp_path))
        via_campaign = run.report["trials"][0]["result"]
        direct = run_sweep([1], [1987], warmup=500, measure=2000)
        assert via_campaign == direct["points"][0]


# ---------------------------------------------------------------------------
# the dashboard


def bench_row(label, residuals):
    """A bench ledger row; ``residuals`` maps processor counts to the
    ``np<N>.load_residual`` metrics the table1-sweep canary records."""
    metrics = {f"np{processors}.load_residual": value
               for processors, value in residuals.items()}
    return {"kind": "bench", "label": label, "git_sha": "abc",
            "result": {"seed": 1987, "cycles": 1000, "metrics": metrics}}


class TestDashboard:
    def test_improvement_and_residuals(self):
        # The dashboard passes no verdict on host speed, only on the
        # simulated residuals.
        html = render_dashboard([("camp", [
            bench_row("bench/table1-sweep/quick/s1", {2: 0.02}),
            bench_row("bench/table1-sweep/quick/s2", {2: 0.04}),
        ])])
        assert "improvement" not in html and "regression" not in html
        assert "<svg" not in html
        assert ("<tr><th>trial</th><th>bench/table1-sweep/quick/s1</th>"
                "<th>bench/table1-sweep/quick/s2</th></tr>") in html
        assert "<tr><td>2 CPU(s)</td><td>+0.0200</td><td>+0.0400</td>" \
               "</tr>" in html

    def test_residual_cells_keyed_by_file(self):
        # Two campaigns' ledger files hold the same label; each keeps
        # its own column, and np6, which only the second carries, sits
        # under that column.
        label = "bench/table1-sweep/full/s1987"
        html = render_dashboard([
            ("camp-a", [bench_row(label, {2: 0.01, 4: 0.02})]),
            ("camp-b", [bench_row(label, {2: 0.03, 4: 0.04, 6: 0.206})]),
        ])
        assert ("<tr><th>campaign</th><th>camp-a</th><th>camp-b</th>"
                f"</tr><tr><th>trial</th><th>{label}</th><th>{label}</th>"
                "</tr>") in html
        assert "<tr><td>2 CPU(s)</td><td>+0.0100</td><td>+0.0300</td>" \
               "</tr>" in html
        assert "<tr><td>6 CPU(s)</td><td>—</td><td>+0.2060</td></tr>" \
            in html

    def test_quick_and_full_table1_sweep_get_their_own_columns(
            self, tmp_path):
        # Real canary runs through the ledger: the quick horizon's
        # residuals must not read as the next point after the full one.
        spec = parse_spec({
            "schema": CAMPAIGN_SCHEMA, "name": "residuals",
            "seeds": [1987],
            "matrix": [{"kind": "bench", "scenarios": ["table1-sweep"],
                        "quick": quick} for quick in (True, False)]})
        store = CampaignStore(tmp_path)
        run_campaign_spec(spec, store)
        html = render_dashboard(
            [("residuals", list(store.load("residuals").rows.values()))])
        assert ("<tr><th>trial</th><th>bench/table1-sweep/quick/s1987</th>"
                "<th>bench/table1-sweep/full/s1987</th></tr>") in html
        assert "<tr><td>2 CPU(s)</td><td>+0.0732</td><td>-0.0014</td>" \
               "</tr>" in html
        assert "<tr><td>4 CPU(s)</td><td>+0.0672</td><td>-0.0206</td>" \
               "</tr>" in html
        assert "<tr><td>6 CPU(s)</td><td>—</td><td>-0.0080</td></tr>" \
            in html

    def test_superseded_revisions_are_not_current(self, tmp_path, capsys):
        # A ledger keeps rev-a's rows beside rev-b's until gc; the
        # dashboard and the report command's count show rev-b only.
        from repro.cli import main

        spec = parse_spec({
            "schema": CAMPAIGN_SCHEMA, "name": "revs", "seeds": [1987],
            "matrix": [
                {"kind": "sweep", "processors": 1, "protocol": "firefly",
                 "warmup": 500, "measure": 1000},
                {"kind": "bench", "scenarios": ["table1-sweep"],
                 "quick": True}]})
        store = CampaignStore(tmp_path / "store")
        for sha in ("rev-a", "rev-b"):
            run_campaign_spec(spec, store, sha=sha)
        out = tmp_path / "dash.html"
        assert main(["campaign", "report", "--store-dir",
                     str(store.directory), "--out", str(out)]) == 0
        assert "1 ledger(s) (2 trial(s))" in capsys.readouterr().out
        html = out.read_text()
        assert "2 completed trial(s)" in html
        assert html.count("sweep/np1/firefly/microvax/s1987") == 1
        assert "git rev-b</p>" in html

    def test_chaos_ledger_rows(self):
        rows = [{"kind": "chaos", "label": "chaos/bus-parity/quick/s1",
                 "git_sha": "abc", "result": {
                     "verdict": "OK",
                     "faults": [{"kind": "bus-corrupt",
                                 "injected_at": 100,
                                 "detected_at": 130,
                                 "recovered_at": 190,
                                 "outcome": "retried"}]}}]
        html = render_dashboard([("camp", rows)])
        assert "bus-corrupt" in html
        assert "<td>30</td>" in html       # detect latency
        assert "<td>60</td>" in html       # recovery time

    def test_escapes_untrusted_names(self):
        html = render_dashboard([("<script>alert(1)</script>", [])])
        assert "<script>alert(1)" not in html

    def test_deterministic_output(self):
        campaigns = [("camp", [bench_row("bench/t/quick/s1", {2: 0.01})])]
        assert render_dashboard(campaigns) == render_dashboard(campaigns)


# ---------------------------------------------------------------------------
# the CLI


class TestCli:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def write_spec(self, tmp_path, golden=None, name="cli-camp"):
        data = {"schema": CAMPAIGN_SCHEMA, "name": name,
                "description": "cli test campaign",
                "seeds": [1, 2],
                "matrix": [{"kind": "probe", "name": "t"}]}
        if golden:
            data["golden"] = golden
        path = tmp_path / "camp.json"
        path.write_text(json.dumps(data))
        return path

    def test_run_report_resume_gc(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        store = tmp_path / "store"
        report = tmp_path / "report.json"
        assert self.run_cli("campaign", "run", str(spec),
                            "--store-dir", str(store),
                            "--report", str(report),
                            "--print-golden") == 0
        out = capsys.readouterr().out
        assert "2 trial(s) merged (2 ran, 0 skipped" in out
        assert "golden:" in out
        merged = json.loads(report.read_text())
        assert merged["schema"] == "firefly-campaign-report/1"
        assert len(merged["trials"]) == 2

        assert self.run_cli("campaign", "resume", str(spec),
                            "--store-dir", str(store)) == 0
        assert "(0 ran, 2 skipped" in capsys.readouterr().out

        assert self.run_cli("campaign", "gc", str(spec),
                            "--store-dir", str(store)) == 0
        assert "kept 2" in capsys.readouterr().out

        out_html = tmp_path / "dash.html"
        assert self.run_cli("campaign", "report",
                            "--store-dir", str(store),
                            "--out", str(out_html)) == 0
        assert "1 ledger(s) (2 trial(s))" in capsys.readouterr().out
        html = out_html.read_text()
        assert "cli-camp" in html and "BENCH" not in html

        # overwrite guard: refuse, then --force succeeds
        assert self.run_cli("campaign", "report",
                            "--store-dir", str(store),
                            "--out", str(out_html)) == 1
        assert self.run_cli("campaign", "report",
                            "--store-dir", str(store),
                            "--out", str(out_html), "--force") == 0

    def test_golden_drift_fails_naming_the_trial(self, tmp_path,
                                                 capsys):
        spec = self.write_spec(
            tmp_path, golden={"probe/t/s1": "sha256:feedfacefeedface"})
        assert self.run_cli("campaign", "run", str(spec),
                            "--store-dir", str(tmp_path / "s")) == 1
        err = capsys.readouterr().err
        assert "golden drift: probe/t/s1" in err

    def test_resume_without_ledger_fails(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        assert self.run_cli("campaign", "resume", str(spec),
                            "--store-dir", str(tmp_path / "empty")) == 1
        assert "no ledger" in capsys.readouterr().err

    def test_report_guard_refuses_overwrite(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        report = tmp_path / "r.json"
        report.write_text("precious")
        assert self.run_cli("campaign", "run", str(spec),
                            "--store-dir", str(tmp_path / "s"),
                            "--report", str(report)) == 1
        assert report.read_text() == "precious"
        assert "--force" in capsys.readouterr().err

    def test_sweep_json_guard(self, tmp_path, capsys):
        existing = tmp_path / "sweep.json"
        existing.write_text("precious")
        assert self.run_cli("sweep", "--processors", "1",
                            "--seeds", "1987",
                            "--warmup-cycles", "200",
                            "--measure-cycles", "500",
                            "--json", str(existing)) == 1
        assert existing.read_text() == "precious"
        assert "--force" in capsys.readouterr().err

    def test_chaos_json_guard(self, tmp_path, capsys):
        existing = tmp_path / "chaos.json"
        existing.write_text("precious")
        # The guard fires before any simulation starts, so this is
        # instant despite naming the full campaign.
        assert self.run_cli("chaos", "--quick",
                            "--json", str(existing)) == 1
        assert existing.read_text() == "precious"
        assert "--force" in capsys.readouterr().err

    def test_example_specs_parse(self):
        for name in ("quick.yaml", "full.yaml"):
            spec = load_spec(REPO_ROOT / "examples" / "campaigns"
                             / name)
            assert spec.expand("sha"), name
