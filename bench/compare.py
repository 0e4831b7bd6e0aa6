#!/usr/bin/env python3
"""Compare two result files of bench/run.py.

    python3 bench/compare.py A.json B.json

For every (metric, workload) both files measured: A's median (the base),
B's median, B over A, how much worse B is as a share of A, and the
metric's bound from BENCHMARK.json.  A pair is ``OUT`` when B is worse
than A by more than the bound; when the wider of the two files' own
spreads (interquartile distance over median) exceeds the bound the pair
is marked ``noisy`` — not resolved either way by these runs.  Simulated
statistics must not move at all: a (workload, seed) whose ``sim_digest``
differs between the files is listed as a mismatch.

Exit code 1 when any pair is out of bound or any digest differs.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Tuple

if not __package__:
    # Run as a script: see bench/run.py.
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from bench.spec import load_spec, median, spread, worse_by  # noqa: E402


def load_runs(path: str) -> Tuple[float, List[Dict]]:
    with open(path) as fh:
        data = json.load(fh)
    return data["scale"], data["runs"]


def values(runs: List[Dict], workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs
            if run["workload"] == workload and metric in run["metrics"]]


def compare(spec: Dict, base_runs: List[Dict], new_runs: List[Dict]) -> int:
    """Print the table; returns how many pairs and digests are off."""
    off = 0
    print("{:<14} {:<16} {:>12} {:>12} {:>7} {:>8} {:>6}  {}".format(
        "workload", "metric", "A median", "B median", "B/A", "worse by",
        "bound", ""))
    for workload in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            base = values(base_runs, workload, m["name"])
            new = values(new_runs, workload, m["name"])
            if not base or not new:
                continue
            a, b = median(base), median(new)
            worse = worse_by(a, b, m["better"])
            mark = ""
            if worse > m["bound"]:
                mark = "OUT"
                off += 1
            elif max(spread(base), spread(new)) > m["bound"]:
                mark = "noisy"
            print("{:<14} {:<16} {:>12.6g} {:>12.6g} {:>7.3f} {:>+8.3f} "
                  "{:>6}  {}".format(workload, m["name"], a, b,
                                     b / a if a else float("nan"), worse,
                                     m["bound"], mark))
    digests = {(r["workload"], r["seed"]): r["sim_digest"]
               for r in base_runs}
    for run in new_runs:
        key = (run["workload"], run["seed"])
        if key in digests and digests[key] != run["sim_digest"]:
            off += 1
            print("sim_digest MISMATCH {} seed {}: {} != {}".format(
                key[0], key[1], digests[key][:16], run["sim_digest"][:16]))
    return off


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base_scale, base_runs), (new_scale, new_runs) = map(load_runs, argv)
    if base_scale != new_scale:
        print("the files were measured at different sizes (scale {} and {})"
              " and cannot be compared".format(base_scale, new_scale),
              file=sys.stderr)
        return 2
    off = compare(load_spec(), base_runs, new_runs)
    print("{} pair(s) out of bound or digest(s) changed".format(off))
    return 1 if off else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
