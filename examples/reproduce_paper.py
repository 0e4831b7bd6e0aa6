#!/usr/bin/env python
"""Regenerate every figure of the paper's evaluation section in one run.

Prints the same rows/series the paper plots (with the paper's reported
trend quoted under each block): every ``fig*`` entry of the figure
registry, ``repro.harness.report.FIGURES``, at its registered sizes.
Use ``--full`` for larger workloads (several minutes); the default
finishes in well under a minute.  ``python -m repro figures`` runs the
same blocks and then the ROFL-vs-Disco head-to-head.

Run:  python examples/reproduce_paper.py [--full]
"""

import argparse
import time

from repro.harness.report import run_figures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run at larger (slower) workload sizes")
    args = parser.parse_args()

    start = time.time()
    for _name, text, took in run_figures(args.full, only="fig"):
        print(text)
        print("[{:.1f}s]".format(took))
    print("\nAll figures regenerated in {:.1f}s.".format(time.time() - start))


if __name__ == "__main__":
    main()
