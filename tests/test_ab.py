"""scripts/ab.py: the benchmark's parent/change A/B summary.

The script is loaded as a module and fed canned ``fireflybench``
outputs — the digest line plus the final JSON line — so these tests run
no benchmark: they pin the medians and quartiles, the win count (ties
count for neither side), the bound verdict in both directions, and exit
status 1 on a failed operation.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts"
                                                  / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(ticks=1e5, setup=0.4, rss=50.0, failed=0,
           digest="6977d9a2859bd6a8"):
    """The lines of a fireflybench --trace 0 run that ab.py reads."""
    metrics = {"sim_ticks_per_s": {"value": ticks, "unit": "1/s"},
               "setup_s": {"value": setup, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return ("fireflybench table2-exerciser seed=1987 trace=0\n"
            f"  12 trial(s); simulated statistics digest {digest}\n"
            "  sim_ticks_per_s        100000 1/s\n"
            + json.dumps({"correct": failed == 0, "attempted": 12,
                          "failed": failed, "metrics": metrics}) + "\n")


def summary(ab, parent, change):
    return ab.summarize("w", {"parent": parent, "change": change},
                        END_TO_END)


def metric_lines(lines, name):
    start = next(i for i, line in enumerate(lines)
                 if line.startswith(f"  {name} "))
    return lines[start:start + 4]


class TestSummary:
    def test_medians_and_quartiles(self, ab):
        parent = [canned(ticks=1000.0 * k) for k in range(1, 11)]
        change = [canned(ticks=1000.0 * k + 500) for k in range(1, 11)]
        lines, ok = summary(ab, parent, change)
        head, p_line, c_line, verdict = metric_lines(lines,
                                                     "sim_ticks_per_s")
        assert head == "  sim_ticks_per_s (higher is better, bound 22%)"
        assert p_line == "    parent 5500 [3250, 7750]"
        assert c_line == "    change 6000 [3750, 8250]"
        assert verdict.startswith("    change +9.1%; wins 10/10; "
                                  "gap beyond parent IQR: no;")
        assert ok

    def test_ties_count_for_neither_side(self, ab):
        parent = [canned(ticks=100.0)] * 10
        change = ([canned(ticks=100.0)] * 4 + [canned(ticks=101.0)] * 5
                  + [canned(ticks=99.0)])
        lines, _ = summary(ab, parent, change)
        assert "wins 5/10" in metric_lines(lines, "sim_ticks_per_s")[3]
        # Equal setup times in every pair: no wins at all.
        assert "wins 0/10" in metric_lines(lines, "setup_s")[3]

    def test_gap_beyond_parent_iqr(self, ab):
        parent = [canned(ticks=100.0 + k) for k in range(10)]
        change = [canned(ticks=110.0 + k) for k in range(10)]
        lines, ok = summary(ab, parent, change)
        assert "gap beyond parent IQR: yes" \
            in metric_lines(lines, "sim_ticks_per_s")[3]
        assert ok

    @pytest.mark.parametrize("ticks, within", [(80.0, True), (75.0, False)])
    def test_bound_verdict_higher_is_better(self, ab, ticks, within):
        lines, ok = summary(ab, [canned(ticks=100.0)] * 10,
                            [canned(ticks=ticks)] * 10)
        verdict = metric_lines(lines, "sim_ticks_per_s")[3]
        assert verdict.endswith("within bound" if within
                                else "WORSE THAN BOUND")
        assert ok is within

    @pytest.mark.parametrize("setup, within", [(0.48, True), (0.52, False),
                                               (0.2, True)])
    def test_bound_verdict_lower_is_better(self, ab, setup, within):
        lines, ok = summary(ab, [canned(setup=0.4)] * 10,
                            [canned(setup=setup)] * 10)
        verdict = metric_lines(lines, "setup_s")[3]
        assert verdict.endswith("within bound" if within
                                else "WORSE THAN BOUND")
        assert ("wins 10/10" in verdict) is (setup < 0.4)
        assert ok is within

    def test_failed_operations_fail_the_summary(self, ab):
        change = [canned()] * 9 + [canned(failed=2, digest="deadbeef")]
        lines, ok = summary(ab, [canned()] * 10, change)
        assert not ok
        assert "  parent: 0/120 operations failed; digest " \
               "6977d9a2859bd6a8" in lines
        assert "  change: 2/120 operations failed; digest " \
               "6977d9a2859bd6a8, deadbeef" in lines

    def test_run_without_json_line_is_a_failed_operation(self, ab):
        run = ab.parse_run("Traceback (most recent call last):\n  ...\n")
        assert (run["attempted"], run["failed"], run["metrics"]) \
            == (1, 1, {})


def test_main_exits_one_on_a_failed_operation(ab, monkeypatch, capsys):
    outputs = iter([canned(), canned(failed=1)] * ab.PAIRS)
    monkeypatch.setattr(ab, "build_trees",
                        lambda ref, tmp: {side: tmp for side in ab.SIDES})
    monkeypatch.setattr(ab, "run_once",
                        lambda tree, command, args: next(outputs))
    assert ab.main(["HEAD", "--workload", "table1-vector"]) == 1
    assert "ab: FAILED against HEAD" in capsys.readouterr().out
