"""Artifact provenance: git revision and content-hash stamps.

The persistent artifacts this repo writes — campaign ledger rows and
merged campaign reports — carry provenance so that a result can always
be traced back to the code and configuration that produced it:

``git_sha``
    The repository revision the artifact was produced at (``None`` when
    the tree is not a git checkout or git is unavailable — artifacts
    must stay writable from an sdist).
``schema``
    The artifact's own format version (stamped by the artifact writer,
    not by this module).
content hashes
    :func:`content_hash` over canonical JSON: a spec's hash, a trial's
    ledger key and a result's golden digest, so two runs with the same
    parameters hash identically regardless of dict insertion order.

Readers must tolerate the absence of every provenance field: ledger
rows written before the stamp existed carry none of them.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from pathlib import Path
from typing import Optional

#: Hash prefix used by :func:`content_hash`; keys and golden digests
#: carry it so a future algorithm change cannot silently collide.
HASH_PREFIX = "sha256"

#: Hex digits kept from the digest — plenty for collision resistance
#: over a repo's worth of trials, short enough to read in a ledger.
HASH_DIGITS = 16


def canonical_json(value) -> str:
    """The canonical serialisation hashing and byte-identity rely on.

    Sorted keys, no insignificant whitespace variation, and no NaN
    (``allow_nan=False`` turns a stray NaN into a loud error instead of
    a non-standard token that other parsers reject).
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def content_hash(value) -> str:
    """``"sha256:<hex>"`` over the canonical JSON form of ``value``."""
    digest = hashlib.sha256(canonical_json(value).encode("utf-8"))
    return f"{HASH_PREFIX}:{digest.hexdigest()[:HASH_DIGITS]}"


def git_sha(root: Optional[Path] = None) -> Optional[str]:
    """The current git revision, or ``None`` when unknowable.

    Tolerates every failure mode silently — no git binary, not a
    checkout, a corrupt .git directory — because provenance is a stamp
    on an artifact, never a precondition for producing one.
    """
    if root is None:
        root = Path(__file__).resolve().parent
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(root),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    sha = completed.stdout.strip()
    return sha if sha else None

