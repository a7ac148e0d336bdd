#!/usr/bin/env python3
"""A/B the benchmark of record: a git ref against the working tree.

Run from anywhere inside the repository::

    python3 scripts/ab.py <ref> [--workload NAME]... [--seed N]

The ref's ``src/`` is extracted with ``git archive`` into a temporary
directory and the working tree's ``src/`` is copied beside it, both
without bytecode; each side gets a copy of the working tree's
``fireflybench/``, so both run identical benchmark code.  For each
workload (default: every workload ``BENCHMARK.json`` declares) the
script runs ``BENCHMARK.json``'s ``command`` with its ``run_seconds``
at ``--trace 0`` for 10 pairs, alternating which side goes first.

For each end-to-end metric it prints each side's median [Q1, Q3], the
change's win count over the pairs (ties count for neither side),
whether the gap between the medians exceeds the parent's interquartile
range, and the verdict against the metric's bound.  Each side's
failed/attempted operation counts and statistics digests follow.

Exit status 1 when any run reports a failed operation, or when a
metric's change median is worse than the parent's by more than its
bound.  The temporary directory is removed on exit, Ctrl-C included.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SIDES = ("parent", "change")
DIGEST = re.compile(r"simulated statistics digest (.+)$", re.MULTILINE)
NO_BYTECODE = shutil.ignore_patterns("__pycache__", "*.pyc")


def parse_run(stdout: str) -> Dict:
    """Operation counts, metric values and digests of one run's output.

    A run that printed no final JSON line (it crashed) counts as one
    failed operation.
    """
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"attempted": 1, "failed": 1, "metrics": {}}
    match = DIGEST.search(stdout)
    digests = match.group(1).split(", ") if match else []
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: entry["value"]
                        for name, entry in result["metrics"].items()},
            "digests": [d for d in digests if d != "none"]}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """Q1, median and Q3, by linear interpolation between order
    statistics (numpy's default)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, median(values), q3


def summarize(workload: str, outputs: Dict[str, List[str]],
              metrics: List[Dict]) -> Tuple[List[str], bool]:
    """Report lines for one workload, and whether it passes.

    ``outputs`` maps each side to its runs' standard output, in pair
    order; ``metrics`` are ``BENCHMARK.json``'s ``end_to_end`` entries.
    """
    runs = {side: [parse_run(text) for text in outputs[side]]
            for side in SIDES}
    lines = [f"{workload}: {len(runs['parent'])} pairs"]
    ok = True
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        pairs = [(a["metrics"][name], b["metrics"][name])
                 for a, b in zip(runs["parent"], runs["change"])
                 if name in a["metrics"] and name in b["metrics"]]
        if not pairs:
            lines.append(f"  {name}: no paired measurements")
            ok = False
            continue
        parent = quartiles([a for a, _ in pairs])
        change = quartiles([b for _, b in pairs])
        wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
        moved = (change[1] - parent[1]) / parent[1]
        beyond = abs(change[1] - parent[1]) > parent[2] - parent[0]
        within = -sign * moved <= bound
        ok = ok and within
        lines.append(f"  {name} ({metric['better']} is better, "
                     f"bound {bound:.0%})")
        for side, (q1, mid, q3) in zip(SIDES, (parent, change)):
            lines.append(f"    {side:6s} {mid:.6g} [{q1:.6g}, {q3:.6g}]")
        lines.append(f"    change {moved:+.1%}; wins {wins}/{len(pairs)}; "
                     f"gap beyond parent IQR: {'yes' if beyond else 'no'};"
                     f" {'within bound' if within else 'WORSE THAN BOUND'}")
    for side in SIDES:
        attempted = sum(run["attempted"] for run in runs[side])
        failed = sum(run["failed"] for run in runs[side])
        digests = sorted({d for run in runs[side] for d in run["digests"]})
        ok = ok and failed == 0
        lines.append(f"  {side}: {failed}/{attempted} operations failed; "
                     f"digest {', '.join(digests) or 'none'}")
    return lines, ok


def build_trees(ref: str, tmp: Path) -> Dict[str, Path]:
    """The parent tree (``ref``'s src) and the change tree (the working
    tree's src), each beside a copy of the working tree's benchmark."""
    trees = {side: tmp / side for side in SIDES}
    for tree in trees.values():
        shutil.copytree(ROOT / "fireflybench", tree / "fireflybench",
                        ignore=NO_BYTECODE)
    archive = subprocess.run(["git", "archive", ref, "src"], cwd=ROOT,
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])],
                   input=archive, check=True)
    shutil.copytree(ROOT / "src", trees["change"] / "src",
                    ignore=NO_BYTECODE)
    return trees


def run_once(tree: Path, command: List[str], args: List[str]) -> str:
    """One benchmark run in ``tree``; its standard output."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command + args, cwd=tree, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return done.stdout


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git ref of the parent side")
    parser.add_argument("--workload", action="append", choices=known,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1987)
    args = parser.parse_args(argv)

    report: List[str] = []
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = build_trees(args.ref, Path(tmp))
        for workload in args.workload or known:
            run_args = ["--workload", workload, "--seed", str(args.seed),
                        "--seconds", str(spec["run_seconds"]),
                        "--trace", "0"]
            outputs: Dict[str, List[str]] = {side: [] for side in SIDES}
            for pair in range(PAIRS):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    outputs[side].append(
                        run_once(trees[side], spec["command"], run_args))
                print(f"{workload}: pair {pair + 1}/{PAIRS} done "
                      f"({order[0]} first)", flush=True)
            lines, passed = summarize(workload, outputs,
                                      spec["end_to_end"])
            report.extend(lines)
            ok = ok and passed
    print("\n".join(report))
    print(f"ab: {'OK' if ok else 'FAILED'} against {args.ref}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
