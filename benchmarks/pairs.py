#!/usr/bin/env python3
"""Alternating parent/change pairs of the repo benchmark, as one table.

    python3 benchmarks/pairs.py PARENT_SHA [--workload W ...] [--pairs 10]
                                [--seed 3] [--aa]

Clones this repository at PARENT_SHA into a temporary directory, deletes
every ``__pycache__`` in both checkouts (bytecode a test run left in one
of them imports faster and reads 20-35 % better on ``setup_s`` alone),
then runs ``bench/run.py --trace 0`` once per side per pair, alternating
which side goes first.  The change is this working tree; ``--aa`` puts a
second clone of the parent there instead (the A/A control for a row that
leans).

Prints, per workload and end-to-end metric of BENCHMARK.json, the parent's
median [q1, q3] -> the change's median, change over parent, and the pairs
the change won (a metric's ``better`` says which way wins).  Exit 1 when
one workload's runs do not all share one ``sim_digest``: a speed-up must
move no simulated statistic.  Standard library only (and ``repro``'s
report blocks); one pair takes about 35 s for one workload and 80 s for
all five on a 2-core x86 VM.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.obs.report import Column, Heading, Note, emit_markdown, table  # noqa: E402

#: One pair: the parent's runs and the change's, as ``bench/run.py``
#: writes them (``result.json``'s ``runs``).
Pair = Tuple[List[Dict], List[Dict]]

COLUMNS = [Column("workload"), Column("metric"),
           Column("parent median [q1, q3]"), Column("change median"),
           Column("change / parent", fmt="{:.3f}"), Column("pairs won")]


def load_spec(root: str = ROOT) -> Dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def scrub(checkout: str) -> None:
    """Delete every ``__pycache__`` under ``checkout`` (``.git`` aside)."""
    for top, dirs, _ in os.walk(checkout):
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(top, "__pycache__"))
        dirs[:] = [d for d in dirs if d not in ("__pycache__", ".git")]


def clone(sha: str, into: str) -> str:
    subprocess.run(["git", "clone", "-q", ROOT, into], check=True)
    subprocess.run(["git", "-C", into, "checkout", "-q", sha], check=True)
    return into


def run_bench(checkout: str, out: str, workloads: Sequence[str],
              seed: int) -> List[Dict]:
    """One ``bench/run.py`` invocation in ``checkout``; its runs."""
    command = [sys.executable, "bench/run.py", "--trace", "0",
               "--seed", str(seed), "--out", out]
    for workload in workloads:
        command += ["--workload", workload]
    # A run whose output checks fail exits 1 but still writes its record,
    # which the table's notes report.
    subprocess.run(command, cwd=checkout, stdout=subprocess.DEVNULL)
    with open(out) as fh:
        return json.load(fh)["runs"]


def _num(value: float) -> str:
    return "{:.0f}".format(value) if abs(value) >= 1000 else \
        "{:.4g}".format(value)


def _values(runs: List[Dict], workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs
            if run["workload"] == workload and metric in run["metrics"]]


def rows(spec: Dict, pairs: Sequence[Pair]) -> List[list]:
    """One row per (workload, end-to-end metric) both sides measured in
    every pair."""
    out = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [v for p, _ in pairs for v in _values(p, workload, name)]
            change = [v for _, c in pairs for v in _values(c, workload, name)]
            if not parent or len(parent) != len(change):
                continue
            q1, _, q3 = (statistics.quantiles(parent, n=4)
                         if len(parent) > 1 else parent * 3)
            mid, new = statistics.median(parent), statistics.median(change)
            higher = metric["better"] == "higher"
            won = sum((c > p) if higher else (c < p)
                      for p, c in zip(parent, change))
            out.append([workload, name,
                        "{} [{}, {}]".format(_num(mid), _num(q1), _num(q3)),
                        _num(new), new / mid if mid else None,
                        "{}/{}".format(won, len(parent))])
    return out


def digest_mismatches(pairs: Sequence[Pair]) -> List[str]:
    """Every (workload, seed) whose runs, on either side, do not all share
    one ``sim_digest``."""
    seen: Dict[Tuple[str, int], set] = {}
    for pair in pairs:
        for runs in pair:
            for run in runs:
                seen.setdefault((run["workload"], run["seed"]),
                                set()).add(run["sim_digest"])
    return ["sim_digest MISMATCH {} seed {}: {}".format(
        workload, seed, " != ".join(sorted(d[:16] for d in digests)))
        for (workload, seed), digests in sorted(seen.items())
        if len(digests) > 1]


def report(spec: Dict, pairs: Sequence[Pair], title: str) -> List:
    """The table and its notes as report blocks."""
    blocks = [Heading(title), table(COLUMNS, rows(spec, pairs))]
    notes = ["{} run {}: {} of {} ops failed, output checks {}".format(
        side, i + 1, run["failed"], run["attempted"],
        "ok" if run["correct"] else "FAILED")
        for i, pair in enumerate(pairs)
        for side, runs in zip(("parent", "change"), pair) for run in runs
        if run["failed"] or not run["correct"]]
    notes += digest_mismatches(pairs)
    if notes:
        blocks.append(Note(notes, bullets=True))
    return blocks


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent", help="the commit to measure against")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--aa", action="store_true",
                        help="the parent against a second clone of itself")
    args = parser.parse_args(argv)
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    pairs: List[Pair] = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        sides = {"parent": clone(args.parent, os.path.join(tmp, "parent")),
                 "change": (clone(args.parent, os.path.join(tmp, "twin"))
                            if args.aa else ROOT)}
        for checkout in sides.values():
            scrub(checkout)
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {side: run_bench(sides[side], os.path.join(
                tmp, "{}.{}.json".format(side, i)), workloads, args.seed)
                for side in order}
            pairs.append((runs["parent"], runs["change"]))
            print("pair {}/{} done".format(i + 1, args.pairs), file=sys.stderr)
    title = "{} pairs, seed {}: {} -> {}".format(
        args.pairs, args.seed, args.parent[:7], "itself (A/A)" if args.aa
        else "working tree")
    print(emit_markdown(report(spec, pairs, title)), end="")
    return 1 if digest_mismatches(pairs) else 0


if __name__ == "__main__":
    sys.exit(main())
