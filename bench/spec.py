"""Paths, the BENCHMARK.json reader and the statistics every bench file shares."""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec() -> Dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts: fixed string
    hashing (set iteration order is then the same on every run) and the
    program importable."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cores() -> List[int]:
    """The cores this process may use, lowest first."""
    return sorted(os.sched_getaffinity(0))


def quantile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank quantile of an unsorted sample; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[index]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the statistic the
    acceptance procedure holds under each metric's bound."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    if not base:
        return 0.0
    return (new - base) / base if better == "lower" else (base - new) / base
