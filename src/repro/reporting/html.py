"""The static observatory dashboard (stdlib-only HTML).

``firefly-sim campaign report`` renders one self-contained HTML file —
no server, no JavaScript, no external assets — from the campaign
ledgers of the :mod:`repro.campaign` store: the §5.2 model residuals
of each ``bench`` trial that carries them (the ``table1-sweep``
canary), the sweep points, the chaos recovery-time ledger (detect
latency and recovery time per injected fault), the flight-recorder
counters of captured crash reports, and per-campaign trial rollups.

Colors are declared once as CSS custom properties with selected light
and dark steps (``prefers-color-scheme`` plus a ``data-theme``
override).  The output contains no timestamps or host fields, so
regenerating the dashboard from the same inputs is byte-identical.
Host speed is not plotted here: the repository's speed instrument is
``fireflybench/``.
"""

from __future__ import annotations

import html as _html
from typing import Dict, Iterable, List, Sequence, Tuple

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


def latest_rows(ledger_rows: Iterable[Dict]) -> List[Dict]:
    """The last row of each trial label, in first-seen label order.

    A ledger keeps the rows of superseded git revisions and parameters
    until ``campaign gc``; only each label's last row is current.
    """
    return list({row["label"]: row for row in ledger_rows}.values())


def _section_residuals(campaigns: Sequence[Tuple[str, List[Dict]]]) -> str:
    """§5.2 model residuals: measured bus load minus the prediction.

    One column per bench trial whose metrics carry
    ``np<N>.load_residual``, keyed by (campaign, trial label) and headed
    by both, so a quick and a full run, or two campaigns' runs of one
    label, each keep their own column.
    """
    residuals: Dict[Tuple[str, str], Dict[int, float]] = {}
    for name, ledger_rows in campaigns:
        for row in ledger_rows:
            if row.get("kind") != "bench":
                continue
            metrics = row["result"].get("metrics", {})
            found = {int(key[2:key.index(".")]): value
                     for key, value in metrics.items()
                     if key.startswith("np")
                     and key.endswith(".load_residual")}
            if found:
                residuals[(name, row["label"])] = found
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
        names = "".join(f"<th>{_esc(name)}</th>" for name, _ in residuals)
        labels = "".join(f"<th>{_esc(label)}</th>" for _, label in residuals)
        parts.append(
            "<p class='sub'>measured bus load − analytic prediction at "
            "the Table 1 operating points; positive means the model "
            "underpredicts (the paper's §5.2 story)</p>"
            f"<table><tr><th>campaign</th>{names}</tr>"
            f"<tr><th>trial</th>{labels}</tr>{''.join(rows)}</table>")
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


def _section_crash_reports(campaigns: Sequence[Tuple[str, List[Dict]]]
                           ) -> str:
    """Per trial that captured a crash report, the flight recorder's
    ring counters (recorded / kept / aged out) — the bounded buffer's
    ``dropped`` counter made visible instead of silently overwriting.
    """
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
    if not drop_rows:
        return "<p class='note'>no crash reports in the campaign ledgers</p>"
    return ("<p class='sub'>flight-recorder ring counters at capture "
            "time (render with <span class='mono'>firefly-sim "
            "postmortem</span>)</p>"
            "<table><tr><th>campaign</th><th>trial</th>"
            "<th>recorded</th><th>kept</th><th>aged out</th></tr>"
            + "".join(drop_rows) + "</table>")


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


def render_dashboard(campaigns: Sequence[Tuple[str, List[Dict]]],
                     title: str = "Firefly observatory") -> str:
    """The full dashboard HTML.

    ``campaigns`` are ``(campaign name, ledger rows)``; every section
    shows each ledger's :func:`latest_rows`.  Output is deterministic
    for identical inputs.
    """
    campaigns = [(name, latest_rows(ledger_rows))
                 for name, ledger_rows in campaigns]
    trials = sum(len(ledger_rows) for _, ledger_rows in campaigns)
    sections = [
        f"<h1>{_esc(title)}</h1>",
        f"<p class='sub'>{len(campaigns)} campaign ledger(s), "
        f"{trials} trial(s)</p>",
        "<h2>Analytic-model divergence</h2>",
        _section_residuals(campaigns),
        "<h2>Chaos recovery ledger</h2>",
        _section_chaos(campaigns),
        "<h2>Captured crash reports</h2>",
        _section_crash_reports(campaigns),
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
