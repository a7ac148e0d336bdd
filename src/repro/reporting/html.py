"""The static observatory dashboard (stdlib-only HTML).

``firefly-sim campaign report`` renders one self-contained HTML file —
no server, no JavaScript, no external assets — from two inputs:

- the committed ``BENCH_<n>.json`` files: the Table 1 sweep's §5.2
  model residuals and the observability overhead gates of each file;
- campaign ledgers from the :mod:`repro.campaign` store: trial
  rollups, §5.2 divergence residuals from sweep/table1 results, and
  the chaos recovery-time ledger (detect latency and recovery time per
  injected fault).

Colors are declared once as CSS custom properties with selected light
and dark steps (``prefers-color-scheme`` plus a ``data-theme``
override).  The output contains no timestamps or host fields, so
regenerating the dashboard from the same inputs is byte-identical.
Host speed is not plotted here: the repository's speed instrument is
``fireflybench/``.
"""

from __future__ import annotations

import html as _html
from typing import Dict, List, Sequence, Tuple

_CSS = """
.ffly {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --surface-2: #f0efec;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --grid: #d8d7d2;
  --good: #008300;
  --bad: #c73635;
  font: 14px/1.45 system-ui, sans-serif;
  color: var(--text-primary);
  background: var(--surface-1);
  margin: 0 auto;
  max-width: 1080px;
  padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .ffly {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --surface-2: #383835;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --grid: #44443f;
    --bad: #e66767;
  }
}
:root[data-theme="dark"] .ffly {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --surface-2: #383835;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --grid: #44443f;
  --bad: #e66767;
}
.ffly h1 { font-size: 22px; margin: 0 0 4px; }
.ffly h2 { font-size: 17px; margin: 28px 0 8px; }
.ffly .sub { color: var(--text-secondary); margin: 0 0 12px; }
.ffly .grid { display: flex; flex-wrap: wrap; gap: 16px; }
.ffly .card {
  background: var(--surface-1);
  border: 1px solid var(--grid);
  border-radius: 8px;
  padding: 12px 14px;
}
.ffly .card h3 { font-size: 14px; margin: 0 0 6px; }
.ffly table { border-collapse: collapse; margin: 8px 0; }
.ffly th, .ffly td {
  text-align: right;
  padding: 3px 10px;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
.ffly th { color: var(--text-secondary); font-weight: 600; }
.ffly th:first-child, .ffly td:first-child { text-align: left; }
.ffly .chip {
  display: inline-block;
  padding: 0 8px;
  border-radius: 9px;
  font-size: 12px;
  border: 1px solid var(--grid);
}
.ffly .chip.good { color: var(--good); border-color: var(--good); }
.ffly .chip.bad { color: var(--bad); border-color: var(--bad); }
.ffly .mono { font-family: ui-monospace, monospace; font-size: 12px; }
.ffly .note { color: var(--text-secondary); font-size: 12px; }
"""


def _esc(value) -> str:
    return _html.escape(str(value), quote=True)


def _section_residuals(bench_docs: Sequence[Tuple[str, Dict]],
                       campaigns: Sequence[Tuple[str, List[Dict]]]) -> str:
    """§5.2 model residuals: measured bus load minus the prediction."""
    residuals: Dict[str, Dict[int, float]] = {}
    for file_name, doc in bench_docs:
        metrics = doc.get("scenarios", {}) \
            .get("table1-sweep", {}).get("metrics", {})
        found = {int(key[2:key.index(".")]): value
                 for key, value in metrics.items()
                 if key.startswith("np") and key.endswith(".load_residual")}
        if found:
            label = file_name.replace("BENCH_", "").replace(".json", "")
            residuals[label] = found
    counts = sorted({processors for found in residuals.values()
                     for processors in found})
    rows = []
    for processors in counts:
        cells = "".join(f"<td>{found[processors]:+.4f}</td>"
                        if processors in found else "<td>—</td>"
                        for found in residuals.values())
        rows.append(f"<tr><td>{processors} CPU(s)</td>{cells}</tr>")
    parts = []
    if rows:
        heads = "".join(f"<th>{_esc(label)}</th>" for label in residuals)
        parts.append(
            "<p class='sub'>measured bus load − analytic prediction at "
            "the Table 1 operating points; positive means the model "
            "underpredicts (the paper's §5.2 story)</p>"
            f"<table><tr><th></th>{heads}</tr>{''.join(rows)}</table>")
    sweep_rows = [
        f"<tr><td>{_esc(name)}</td><td>{_esc(row['label'])}</td>"
        f"<td>{row['result'].get('bus_load', 0.0):.4f}</td>"
        f"<td>{row['result'].get('mean_tpi', 0.0):.3f}</td>"
        f"<td>{row['result'].get('mean_miss_rate', 0.0):.4f}</td></tr>"
        for name, ledger_rows in campaigns
        for row in ledger_rows if row.get("kind") == "sweep"]
    if sweep_rows:
        parts.append(
            "<h3>campaign sweep points</h3><table><tr><th>campaign</th>"
            "<th>trial</th><th>bus load</th><th>TPI</th>"
            "<th>miss rate</th></tr>" + "".join(sweep_rows) + "</table>")
    return "".join(parts) or "<p class='note'>no residual data</p>"


def _section_chaos(campaigns: Sequence[Tuple[str, List[Dict]]]) -> str:
    rows = []
    for name, ledger_rows in campaigns:
        for row in ledger_rows:
            if row.get("kind") != "chaos":
                continue
            result = row.get("result", {})
            verdict = result.get("verdict", "?")
            chip = ("<span class='chip good'>OK</span>"
                    if verdict == "OK"
                    else f"<span class='chip bad'>{_esc(verdict)}</span>")
            for fault in result.get("faults", []):
                injected = fault.get("injected_at")
                detected = fault.get("detected_at")
                recovered = fault.get("recovered_at")
                detect = (detected - injected
                          if None not in (injected, detected) else None)
                recover = (recovered - detected
                           if None not in (detected, recovered) else None)
                rows.append(
                    f"<tr><td>{_esc(name)}</td>"
                    f"<td>{_esc(row.get('label', '?'))}</td>"
                    f"<td>{_esc(fault.get('kind', '?'))}</td>"
                    f"<td>{injected if injected is not None else '—'}</td>"
                    f"<td>{detect if detect is not None else '—'}</td>"
                    f"<td>{recover if recover is not None else '—'}</td>"
                    f"<td>{_esc(fault.get('outcome', '?'))}</td>"
                    f"<td>{chip}</td></tr>")
    if not rows:
        return ("<p class='note'>no chaos trials in the campaign "
                "ledgers</p>")
    return ("<p class='sub'>per injected fault: cycles to detect and "
            "to recover (simulated time)</p>"
            "<table><tr><th>campaign</th><th>scenario</th>"
            "<th>fault</th><th>injected@</th><th>detect</th>"
            "<th>recover</th><th>outcome</th><th>verdict</th></tr>"
            + "".join(rows) + "</table>")


def _gate_cells(overhead: Dict, gate: str) -> str:
    """Median, bound and verdict cells of one overhead gate."""
    ratio = overhead.get(f"{gate}_ratio")
    if ratio is None:
        return "<td>—</td><td>—</td><td></td>"
    bound = overhead.get(f"{gate}_bound")
    gated = ratio if bound is None else bound
    chip = ("<span class='chip good'>OK</span>"
            if gated <= 1.0 + overhead.get("budget", 0.0)
            else "<span class='chip bad'>over</span>")
    shown = "—" if bound is None else f"{(bound - 1.0) * 100:+.1f}%"
    return (f"<td>{(ratio - 1.0) * 100:+.1f}%</td><td>{shown}</td>"
            f"<td>{chip}</td>")


def _section_observability(bench_docs: Sequence[Tuple[str, Dict]],
                           campaigns: Sequence[Tuple[str, List[Dict]]]
                           ) -> str:
    """Observability health: overhead gates and ring-drop counters.

    Per BENCH file, the disabled-telemetry and flight-recorder gates:
    the median paired CPU-time ratio, its lower bound where the file
    has one, and the verdict against the budget; per chaos trial that
    captured a crash report, the recorder's ring counters (recorded /
    kept / aged out) — the bounded buffers' ``dropped`` counters made
    visible instead of silently overwriting.
    """
    parts = []
    rows = []
    for file_name, doc in bench_docs:
        overhead = doc.get("overhead")
        if isinstance(overhead, dict):
            rows.append(f"<tr><td class='mono'>{_esc(file_name)}</td>"
                        + _gate_cells(overhead, "disabled")
                        + _gate_cells(overhead, "recorder") + "</tr>")
    if rows:
        parts.append(
            "<p class='sub'>host cost of the probe layer over a bare "
            "run: disabled telemetry and the always-on flight recorder. "
            "A gate fails when the lower bound on its median paired "
            "ratio exceeds the budget (files without a bound were gated "
            "on the ratio)</p>"
            "<table><tr><th>BENCH file</th><th>disabled</th><th>bound</th>"
            "<th></th><th>recorder</th><th>bound</th><th></th></tr>"
            + "".join(rows) + "</table>")

    drop_rows = []
    for name, ledger_rows in campaigns:
        for row in ledger_rows:
            crash = (row.get("result") or {}).get("crash") \
                if isinstance(row.get("result"), dict) else None
            if not crash:
                continue
            counters = crash.get("recorder") or {}
            drop_rows.append(
                f"<tr><td>{_esc(name)}</td>"
                f"<td>{_esc(row.get('label', '?'))}</td>"
                f"<td>{counters.get('recorded', '—')}</td>"
                f"<td>{counters.get('kept', '—')}</td>"
                f"<td>{counters.get('dropped', '—')}</td></tr>")
    if drop_rows:
        parts.append(
            "<h3>captured crash reports</h3>"
            "<p class='sub'>flight-recorder ring counters at capture "
            "time (render with <span class='mono'>firefly-sim "
            "postmortem</span>)</p>"
            "<table><tr><th>campaign</th><th>trial</th>"
            "<th>recorded</th><th>kept</th><th>aged out</th></tr>"
            + "".join(drop_rows) + "</table>")
    return "".join(parts) or ("<p class='note'>no overhead blocks or "
                              "crash reports yet</p>")


def _section_campaigns(campaigns: Sequence[Tuple[str, List[Dict]]]) -> str:
    if not campaigns:
        return "<p class='note'>no campaign ledgers in the store</p>"
    blocks = []
    for name, ledger_rows in campaigns:
        counts: Dict[str, int] = {}
        shas = sorted({str(row.get("git_sha"))[:12]
                       for row in ledger_rows if row.get("git_sha")})
        for row in ledger_rows:
            counts[row.get("kind", "?")] = \
                counts.get(row.get("kind", "?"), 0) + 1
        summary = ", ".join(f"{counts[kind]} {kind}"
                            for kind in sorted(counts)) or "empty"
        blocks.append(
            f"<div class='card'><h3>{_esc(name)}</h3>"
            f"<p class='sub'>{len(ledger_rows)} completed trial(s): "
            f"{_esc(summary)}</p>"
            f"<p class='note mono'>git {_esc(', '.join(shas) or '?')}"
            f"</p></div>")
    return "<div class='grid'>" + "".join(blocks) + "</div>"


# ---------------------------------------------------------------------------
# the document


def render_dashboard(bench_docs: Sequence[Tuple[str, Dict]],
                     campaigns: Sequence[Tuple[str, List[Dict]]] = (),
                     title: str = "Firefly observatory"
                     ) -> str:
    """The full dashboard HTML.

    ``bench_docs`` are ``(file name, loaded BENCH document)`` in file
    order; ``campaigns`` are ``(campaign name, ledger rows)``.  Output
    is deterministic for identical inputs.
    """
    bench_docs = list(bench_docs)
    campaigns = list(campaigns)
    shas = sorted({str(doc.get("provenance", {}).get("git_sha"))[:12]
                   for _, doc in bench_docs
                   if isinstance(doc.get("provenance"), dict)
                   and doc["provenance"].get("git_sha")})
    provenance = (f"revisions {', '.join(shas)}" if shas
                  else "no provenance stamps (pre-PR-6 BENCH files)")
    sections = [
        f"<h1>{_esc(title)}</h1>",
        f"<p class='sub'>{len(bench_docs)} BENCH file(s), "
        f"{len(campaigns)} campaign ledger(s) · {_esc(provenance)}</p>",
        "<h2>Analytic-model divergence</h2>",
        _section_residuals(bench_docs, campaigns),
        "<h2>Chaos recovery ledger</h2>",
        _section_chaos(campaigns),
        "<h2>Observability health</h2>",
        _section_observability(bench_docs, campaigns),
        "<h2>Campaigns</h2>",
        _section_campaigns(campaigns),
    ]
    return ("<!DOCTYPE html>\n<html lang='en'>\n<head>\n"
            "<meta charset='utf-8'>\n"
            "<meta name='viewport' "
            "content='width=device-width, initial-scale=1'>\n"
            f"<title>{_esc(title)}</title>\n"
            f"<style>{_CSS}</style>\n"
            "</head>\n<body class='ffly'>\n"
            + "\n".join(sections)
            + "\n</body>\n</html>\n")
