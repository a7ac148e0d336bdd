"""Campaign manager: declarative sweeps with a persistent result store.

The §5.2 analysis of the Firefly paper is a *campaign* — a matrix of
runs over CPU count, protocol and workload — and this package makes
that a first-class, resumable artifact instead of a shell loop:

- :mod:`repro.campaign.spec` — the ``firefly-campaign/1`` YAML/JSON
  document: matrix groups of the six trial kinds (sweep / bench /
  chaos / serve / vector / probe, declared in
  :mod:`repro.observatory.trials`), per-axis expansion, exclusion
  rules, and pinned ``golden`` digests;
- :mod:`repro.campaign.store` — the append-only JSONL ledger keyed by
  content hashes of (kind, params, seed, git_sha), which is what makes
  ``firefly-sim campaign run`` resumable and its merged report
  byte-identical to an uninterrupted run;
- :mod:`repro.campaign.engine` — expansion → skip-completed → ordered
  fan-out → durable append → merged report → golden verdicts.

The observatory dashboard over the committed BENCH_* files and
campaign ledgers lives in :mod:`repro.reporting.html`.  See
docs/CAMPAIGNS.md.
"""

from repro.campaign.engine import (
    REPORT_SCHEMA,
    CampaignRun,
    build_report,
    check_golden,
    gc_campaign,
    golden_block,
    run_campaign_spec,
)
from repro.campaign.spec import (
    CAMPAIGN_SCHEMA,
    CampaignSpec,
    CampaignTrial,
    load_spec,
    parse_spec,
)
from repro.campaign.store import (
    LEDGER_SCHEMA,
    CampaignStore,
    LedgerLoad,
)

__all__ = [
    "CAMPAIGN_SCHEMA",
    "LEDGER_SCHEMA",
    "REPORT_SCHEMA",
    "CampaignRun",
    "CampaignSpec",
    "CampaignStore",
    "CampaignTrial",
    "LedgerLoad",
    "build_report",
    "check_golden",
    "gc_campaign",
    "golden_block",
    "load_spec",
    "parse_spec",
    "run_campaign_spec",
]
