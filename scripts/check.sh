#!/bin/sh
# Tier-1 check: compile sweep, tracked-bytecode guard, full test suite,
# the paper's four figures regenerated unchanged, the benchmark's own
# tests, then the static verification gate (protocol model checker +
# structural checks + simulation-safety linter; see docs/VERIFY.md).
#
# Usage: scripts/check.sh [extra pytest args]
# e.g.:  scripts/check.sh -m telemetry
#
# The reports worth keeping (verify findings, BENCH file, serve
# report, campaign report, dashboard, crash report) go to
# $ARTIFACTS_DIR when it is set (CI sets it and uploads the
# directory), else to a scratch directory removed on exit.
set -eu
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
OUT="${ARTIFACTS_DIR:-$TMP}"
mkdir -p "$OUT"

echo "== compileall =="
python -m compileall -q src examples benchmarks scripts

echo "== no tracked bytecode =="
if git ls-files | grep -E '(__pycache__|\.py[co]$)' >/dev/null 2>&1; then
    echo "error: compiled bytecode is tracked by git:" >&2
    git ls-files | grep -E '(__pycache__|\.py[co]$)' >&2
    echo "run: git rm -r --cached <paths> (see .gitignore)" >&2
    exit 1
fi

echo "== pytest =="
python -m pytest -x -q "$@"

echo "== paper figures regenerate unchanged (benchmarks/test_figure*) =="
# Nothing else runs benchmarks/ (the suite above collects tests/ only).
# The four figure benches rewrite their artifacts under
# benchmarks/results/ from the live model, about 2 s in all; each must
# come out byte-identical to the committed file.
python -m pytest -q benchmarks/test_figure*_*.py
git diff --exit-code -- 'benchmarks/results/figure_*'

echo "== benchmark self-tests (fireflybench) =="
# The benchmark's own suite (testpaths leaves it out of the run above):
# its layer map must claim every src/repro module exactly once, its
# workloads must reproduce their pinned figures, and each accounting
# identity check must name a broken identity (fireflybench/README.md).
python -m pytest -q fireflybench

echo "== static verification (firefly-sim verify) =="
# With DMA stimuli: a protocol that leaks a state through the I/O
# cache's DMA path is only caught with them (docs/VERIFY.md).
python -m repro.cli verify --all-protocols --dma \
    --json "$OUT/findings.json" --force

echo "== bench canaries + overhead gates (firefly-sim bench --jobs 2) =="
# The whole quick suite (four canary scenarios, one run each) with two
# parallel workers: proves the deterministic trial executor end to end
# and runs both paired overhead gates, disabled telemetry and the
# flight recorder (16 pairs each, about 20 s; no --skip-overhead: a
# gate whose lower bound exceeds its 2% budget fails this script).
# Speed comparisons between revisions are scripts/ab.py's job.  The
# BENCH file goes to $OUT, never to the repo root.
python -m repro.cli bench --quick --jobs 2 --out-dir "$OUT"

echo "== chaos smoke + jobs parity (firefly-sim chaos --jobs 2) =="
# One quick seeded fault campaign: proves every recovery path end to
# end (see docs/FAULTS.md); exits nonzero if any scenario fails.  Run
# twice at different job counts and require byte-identical reports —
# both go through the one trial pipeline.
python -m repro.cli chaos --quick --scenario bus-parity \
    --scenario cpu-offline --jobs 2 --json "$TMP/chaos-j2.json"
python -m repro.cli chaos --quick --scenario bus-parity \
    --scenario cpu-offline --jobs 1 --json "$TMP/chaos-j1.json" \
    >/dev/null
cmp "$TMP/chaos-j2.json" "$TMP/chaos-j1.json"

echo "== serve smoke + SLO gate (firefly-sim serve --jobs 2) =="
# One quick open-loop serving scenario under the resilience layer: the
# SLO gate exits nonzero on a p99 or success-rate breach (see
# docs/SERVING.md).  Run twice at different job counts and require
# byte-identical reports — the serving layer's determinism contract.
python -m repro.cli serve --quick --scenario steady-poisson \
    --jobs 2 --json "$OUT/serve.json" --force
python -m repro.cli serve --quick --scenario steady-poisson \
    --jobs 1 --json "$TMP/serve-j1.json" --force >/dev/null
cmp "$OUT/serve.json" "$TMP/serve-j1.json"

echo "== campaign smoke (firefly-sim campaign run + report) =="
# The quick example campaign through the resumable ledger into a
# scratch store (golden digests included — drift exits nonzero), then
# the HTML dashboard over the committed BENCH files plus that ledger
# (see docs/CAMPAIGNS.md).
python -m repro.cli campaign run examples/campaigns/quick.yaml \
    --jobs 2 --store-dir "$TMP/store" \
    --report "$OUT/campaign-report.json" --force
python -m repro.cli campaign report --bench-dir . \
    --store-dir "$TMP/store" --out "$OUT/dashboard.html" --force

echo "== postmortem smoke (firefly-sim postmortem) =="
# Induce the pinned AB/BA deadlock, capture the firefly-crash/1 report
# and render it (see docs/CAUSAL.md).  The grep pins the acceptance
# criterion: the postmortem names the exact wait-for cycle.
python -m repro.cli postmortem --scenario deadlock \
    --json "$OUT/crash.json" --force | tee "$TMP/postmortem.txt"
grep -q "wait-for cycle" "$TMP/postmortem.txt"
grep -q "left-fork waits on lock:fork-b held by right-fork" \
    "$TMP/postmortem.txt"
python -m repro.cli postmortem "$OUT/crash.json" >/dev/null
