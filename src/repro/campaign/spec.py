"""Declarative campaign specifications (``firefly-campaign/1``).

A campaign spec is a YAML or JSON document describing a *matrix* of
trials — the §5.2 style sweep campaign written down instead of typed
into ad-hoc CLI loops.  Top level::

    schema: firefly-campaign/1
    name: quick-example
    description: one line about why this campaign exists
    seeds: [1987, 1988]          # default seed axis for every group
    matrix:
      - kind: sweep              # (processors x protocol x seed) grid
        processors: [1, 2, 4]
        protocol: [firefly, write-through]
        generation: microvax
        warmup: 2000
        measure: 8000
        exclude:
          - {protocol: write-through, processors: 1}
      - kind: bench              # pinned observatory scenarios
        scenarios: [exerciser-1cpu]
        quick: true
      - kind: vector             # vectorized §5.2 statistical runs
        processors: [2, 4, 6]
        instructions: 100000
      - kind: chaos              # seeded fault-injection scenarios
        scenarios: [bus-parity]
        quick: true
      - kind: serve              # resilient-serving SLO scenarios
        scenarios: [steady-poisson]
        quick: true
    golden:                      # optional pinned metric digests
      sweep/np1/firefly/microvax/s1987: sha256:0123456789abcdef

Every list-valued parameter is an *axis* and expands by cross product
(in document order, seeds last), ``exclude`` entries remove any trial
whose parameters match every key of the entry, and each surviving trial
gets a deterministic human label plus a content-hashed key of
``(kind, params, seed, git_sha)`` — the resume identity used by the
persistent ledger (:mod:`repro.campaign.store`).

Each kind's keys, defaults, checks, axes and label are declared once,
in :data:`repro.observatory.trials.TRIAL_KINDS`, the registry the
``bench``, ``chaos``, ``serve`` and ``sweep`` subcommands read too.
The ``probe`` kind is a deliberately trivial trial (a pure function of
its seed) used by the resume/interrupt test-suite and by smoke
campaigns; it can be told to fail for chosen seeds through an
environment variable, which is how the tests kill a campaign mid-run
without making two specs that would no longer share trial keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.common.errors import ConfigurationError
from repro.common.provenance import content_hash
from repro.observatory.trials import (TrialSpec, check_seeds, expand_group,
                                      validate_group)

CAMPAIGN_SCHEMA = "firefly-campaign/1"


@dataclass(frozen=True)
class CampaignTrial:
    """One fully-resolved cell of the campaign matrix."""

    label: str
    kind: str
    seed: int
    params: Dict
    key: str

    def worker_spec(self) -> TrialSpec:
        """The picklable spec handed to the pool worker."""
        return TrialSpec(self.kind, self.label, self.seed,
                         dict(self.params))


@dataclass
class CampaignSpec:
    """A validated campaign document."""

    name: str
    description: str
    seeds: List[int]
    groups: List[Dict]
    golden: Dict[str, str] = field(default_factory=dict)

    @property
    def spec_hash(self) -> str:
        """Content hash of the whole normalised spec."""
        return content_hash({
            "schema": CAMPAIGN_SCHEMA,
            "name": self.name,
            "description": self.description,
            "seeds": self.seeds,
            "matrix": self.groups,
            "golden": self.golden,
        })

    def expand(self, git_sha: Optional[str]) -> List[CampaignTrial]:
        """All trials in deterministic matrix order.

        ``git_sha`` participates in every trial key: a result is only
        reusable by the resumable runner while the code that produced
        it is unchanged.  ``None`` (not a checkout) hashes as the
        literal string ``"unknown"`` so artifacts stay producible.
        """
        sha = git_sha or "unknown"
        trials: List[CampaignTrial] = []
        seen: Set[str] = set()
        for index, group in enumerate(self.groups):
            for trial in expand_group(group, self.seeds):
                if trial.label in seen:
                    raise ConfigurationError(
                        f"matrix[{index}] produces duplicate trial "
                        f"{trial.label!r}; merge the overlapping groups")
                seen.add(trial.label)
                key = content_hash({"kind": trial.kind,
                                    "params": trial.params,
                                    "seed": trial.seed, "git_sha": sha})
                trials.append(CampaignTrial(label=trial.label,
                                            kind=trial.kind,
                                            seed=trial.seed,
                                            params=trial.params, key=key))
        return trials


# ---------------------------------------------------------------------------
# loading and validation


def load_spec(path) -> CampaignSpec:
    """Load and validate a campaign spec file (YAML or JSON by suffix)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"campaign spec {path} does not exist")
    text = path.read_text()
    if path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:  # pragma: no cover - PyYAML is usually present
            raise ConfigurationError(
                f"{path}: PyYAML is not installed; write the campaign "
                f"spec as JSON instead") from None
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"{path}: invalid YAML: {exc}") \
                from None
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") \
                from None
    return parse_spec(data, source=str(path))


def parse_spec(data, source: str = "<spec>") -> CampaignSpec:
    """Validate a raw spec mapping into a :class:`CampaignSpec`."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{source}: campaign spec must be a "
                                 f"mapping, got {type(data).__name__}")
    schema = data.get("schema")
    if schema != CAMPAIGN_SCHEMA:
        raise ConfigurationError(
            f"{source}: schema is {schema!r}, expected "
            f"{CAMPAIGN_SCHEMA!r}")
    unknown = sorted(set(data) - {"schema", "name", "description",
                                  "seeds", "matrix", "golden"})
    if unknown:
        raise ConfigurationError(
            f"{source}: unknown top-level key(s): {', '.join(unknown)}")
    name = data.get("name")
    if not isinstance(name, str) or not name \
            or any(c in name for c in "/\\ \t\n"):
        raise ConfigurationError(
            f"{source}: name must be a non-empty string without "
            f"whitespace or path separators (it names the ledger file)")
    description = data.get("description", "")
    if not isinstance(description, str):
        raise ConfigurationError(f"{source}: description must be a string")
    seeds = check_seeds(data.get("seeds", [1987]), f"{source}: seeds")
    matrix = data.get("matrix")
    if not isinstance(matrix, list) or not matrix:
        raise ConfigurationError(
            f"{source}: matrix must be a non-empty list of trial groups")
    groups = [validate_group(group, f"{source}: matrix[{i}]")
              for i, group in enumerate(matrix)]
    golden = _validate_golden(data.get("golden", {}), f"{source}: golden")
    spec = CampaignSpec(name=name, description=description, seeds=seeds,
                        groups=groups, golden=golden)
    labels = {trial.label for trial in spec.expand("unknown")}
    missing = sorted(set(golden) - labels)
    if missing:
        raise ConfigurationError(
            f"{source}: golden pins trial(s) the matrix never produces: "
            f"{', '.join(missing)}")
    return spec


def _validate_golden(value, where: str) -> Dict[str, str]:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be a mapping of trial "
                                 f"label -> digest")
    for label, digest in value.items():
        if not isinstance(label, str) or not isinstance(digest, str) \
                or not digest.startswith("sha256:"):
            raise ConfigurationError(
                f"{where}: entry {label!r} must map a trial label to a "
                f"'sha256:...' digest")
    return dict(value)
