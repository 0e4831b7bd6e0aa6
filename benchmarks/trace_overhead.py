#!/usr/bin/env python
"""Tracing-overhead smoke: disabled tracing must stay within 10%.

The ``repro.obs`` emit sites live on the forwarding hot paths, guarded
by the module-level ``trace.ENABLED`` flag.  This script re-runs the
quick join/send sweep from :mod:`perf_trajectory` with tracing disabled
and compares throughput against a ``BENCH_scaling.json`` generated on
the *same machine* (it is git-ignored: CI writes the quick baseline in
the same job, immediately before this step).  If either joins/sec or sends/sec drops
more than ``--budget`` (default 10%) below the baseline at a matching
host count, the guard has stopped being free and the script exits 1.

It also measures the enabled-with-NullSink cost and prints it — that
number is informational (tracing ON is allowed to cost something), the
gate is only on the disabled path.

Usage::

    PYTHONPATH=src python benchmarks/perf_trajectory.py --quick
    PYTHONPATH=src python benchmarks/trace_overhead.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from perf_trajectory import sweep                     # noqa: E402

from repro.obs import trace                           # noqa: E402
from repro.obs.trace import NullSink, Tracer          # noqa: E402

#: Repeats per sweep; per-metric maxima are compared (absorbs jitter —
#: throughput noise is one-sided, so best-of-N estimates the true rate).
REPEATS = 3

METRICS = ("joins_per_sec", "sends_per_sec")


def _best_rows(kind: str, populations, repeats: int = REPEATS) -> dict:
    """Per-population best-of-N throughput per metric, keyed by hosts."""
    best = {}
    for _ in range(repeats):
        for row in sweep(kind, populations):
            slot = best.setdefault(row["hosts"],
                                   {metric: 0.0 for metric in METRICS})
            for metric in METRICS:
                slot[metric] = max(slot[metric], row[metric])
    return best


def _geomean(values) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def _compare(section: str, baseline_rows, measured: dict,
             budget: float) -> list:
    """Failure strings when a metric's geomean ratio over the matched
    host counts falls more than ``budget`` below baseline.  Gating on
    the geomean (not single rows) keeps one noisy tiny-population
    sample from failing CI while still catching a real slowdown of the
    disabled emit-site guards, which shows up at every scale."""
    failures = []
    for metric in METRICS:
        ratios = []
        for base in baseline_rows:
            row = measured.get(base["hosts"])
            if row is None or base[metric] <= 0:
                continue
            ratio = row[metric] / base[metric]
            ratios.append(ratio)
            print("  {} {:>6} hosts {:<14} base {:>9.1f}  now {:>9.1f}  "
                  "({:+.1f}%)".format(section, base["hosts"], metric,
                                      base[metric], row[metric],
                                      100.0 * (ratio - 1.0)))
        if not ratios:
            continue
        mean_ratio = _geomean(ratios)
        status = "ok" if mean_ratio >= 1.0 - budget else "REGRESSED"
        print("  {} {:<14} geomean {:+.1f}% {}".format(
            section, metric, 100.0 * (mean_ratio - 1.0), status))
        if mean_ratio < 1.0 - budget:
            failures.append("{} {}: geomean {:.3f} below {:.3f} "
                            "(-{:.0f}% budget)".format(
                                section, metric, mean_ratio, 1.0 - budget,
                                budget * 100))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON (default: repo-root "
                             "BENCH_scaling.json)")
    parser.add_argument("--budget", type=float, default=0.10,
                        help="allowed fractional regression (default 0.10)")
    args = parser.parse_args(argv)

    path = args.baseline or os.path.join(os.path.dirname(__file__), "..",
                                         "BENCH_scaling.json")
    with open(path) as fh:
        baseline = json.load(fh)
    inter_pops = tuple(row["hosts"] for row in baseline["interdomain"])
    intra_pops = tuple(row["hosts"] for row in baseline["intradomain"])

    assert not trace.ENABLED, "tracing must start disabled"
    print("disabled-tracing sweep (baseline: {}, budget {:.0f}%)".format(
        os.path.normpath(path), args.budget * 100))
    inter_off = _best_rows("inter", inter_pops)
    intra_off = _best_rows("intra", intra_pops)

    failures = _compare("inter", baseline["interdomain"], inter_off,
                        args.budget)
    failures += _compare("intra", baseline["intradomain"], intra_off,
                         args.budget)

    # Informational: what does tracing cost when ON (NullSink, full sample)?
    with trace.tracing(Tracer(sink=NullSink())) as tracer:
        inter_on = _best_rows("inter", inter_pops[-1:], repeats=1)
        intra_on = _best_rows("intra", intra_pops[-1:], repeats=1)
    for label, off, on in (("inter", inter_off, inter_on),
                           ("intra", intra_off, intra_on)):
        hosts, row = max(on.items())
        base = off[hosts]
        print("  {} tracing ON (NullSink, {} records): sends {:.1f}/s vs "
              "{:.1f}/s disabled ({:+.1f}%)".format(
                  label, tracer.records_emitted, row["sends_per_sec"],
                  base["sends_per_sec"],
                  100.0 * (row["sends_per_sec"] / base["sends_per_sec"]
                           - 1.0)))

    if failures:
        print("FAIL: disabled-tracing throughput regressed:")
        for failure in failures:
            print("  " + failure)
        return 1
    print("OK: disabled-tracing throughput within {:.0f}% of baseline".format(
        args.budget * 100))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
