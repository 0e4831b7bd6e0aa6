"""Lightweight performance counters and wall-clock timers.

Every hot subsystem increments named counters (``perf.counter("fwd.hops",
n)``) and brackets rebuild-style work in timers (``with
perf.timed("spf.hop_tree"): ...``).  The global registry is deliberately
dumb — a dict update per event, no locks, no sampling — so leaving the
instrumentation on costs well under a microsecond per call and the
benchmarks can report counter dumps alongside wall-clock numbers.

The harness attaches ``PERF.snapshot()`` to every experiment result (see
:mod:`repro.harness.experiments`), ``benchmarks/perf_trajectory.py``
writes the dump into each row of its population sweep, and ``repro
serve``'s ``metrics`` op returns it live; ``repro report`` folds the
timers of any of them into one tree.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence


def nearest_rank(ordered: Sequence[float], fraction: float) -> float:
    """The ``fraction``-quantile of an already sorted sequence, by the
    repo's one nearest-rank rule; ``ValueError`` when it is empty."""
    if not ordered:
        raise ValueError("no samples")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    last = len(ordered) - 1
    return ordered[min(last, max(0, int(round(fraction * last))))]


class _Timer:
    """Context manager recording one wall-clock interval into a registry."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "PerfRegistry", name: str):
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        timers = self._registry.timers
        cell = timers.get(self._name)
        if cell is None:
            timers[self._name] = [1, elapsed, elapsed]
        else:
            cell[0] += 1
            cell[1] += elapsed
            if elapsed > cell[2]:
                cell[2] = elapsed


class Histogram:
    """A value-distribution recorder (latencies, queue depths, stretch).

    Values are kept verbatim — simulation-scale sample counts (thousands
    to low millions) fit comfortably, and exact percentiles beat bucketed
    approximations when the workload engine asserts determinism (two runs
    with one seed must snapshot identically).
    """

    __slots__ = ("_values", "_sorted")

    def __init__(self) -> None:
        self._values: List[float] = []
        self._sorted = True

    def record(self, value: float) -> None:
        values = self._values
        if self._sorted and values and value < values[-1]:
            self._sorted = False
        values.append(value)

    def _ordered(self) -> List[float]:
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        return self._values

    def percentile(self, fraction: float) -> float:
        """Nearest-rank quantile; raises ``ValueError`` when empty."""
        return nearest_rank(self._ordered(), fraction)

    def snapshot(self) -> Dict[str, float]:
        """JSON-ready summary: count/min/max/mean plus p50/p90/p95/p99."""
        ordered = self._ordered()
        if not ordered:
            return {"count": 0}
        return {
            "count": len(ordered),
            "min": ordered[0],
            "max": ordered[-1],
            "mean": sum(ordered) / len(ordered),
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def __len__(self) -> int:
        return len(self._values)


class PerfRegistry:
    """A named-counter / named-timer / histogram registry.

    ``counters`` maps name → running total; ``timers`` maps name →
    ``[calls, total_seconds, max_seconds]``;
    ``histograms`` maps name → :class:`Histogram`.  Registries are cheap
    enough to keep one global (:data:`PERF`) plus ad-hoc private ones in
    tests.
    """

    __slots__ = ("counters", "timers", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.timers: Dict[str, List[float]] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the named counter (creating it at zero)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def timed(self, name: str) -> _Timer:
        """``with perf.timed("spf.rebuild"): ...`` wall-clock bracket."""
        return _Timer(self, name)

    def histogram(self, name: str) -> Histogram:
        """The named :class:`Histogram`, created empty on first use."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        return hist

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the named histogram."""
        self.histogram(name).record(value)

    def value(self, name: str, default: float = 0) -> float:
        return self.counters.get(name, default)

    def snapshot(self) -> Dict[str, Dict]:
        """A JSON-ready dump: counters verbatim, timers as
        calls/seconds/mean/max, histograms as summary stats."""
        out = {
            "counters": dict(self.counters),
            "timers": {name: {"calls": cell[0],
                              "seconds": round(cell[1], 6),
                              "mean": round(cell[1] / cell[0], 9)
                              if cell[0] else 0.0,
                              "max": round(cell[2], 6)}
                       for name, cell in self.timers.items()},
        }
        if self.histograms:
            out["histograms"] = {name: hist.snapshot()
                                 for name, hist in self.histograms.items()}
        return out

    def reset(self) -> None:
        self.counters.clear()
        self.timers.clear()
        self.histograms.clear()

    def __repr__(self) -> str:
        return "PerfRegistry(counters={}, timers={}, histograms={})".format(
            len(self.counters), len(self.timers), len(self.histograms))


#: The process-global registry the runtime instrumentation reports into.
PERF = PerfRegistry()

#: Module-level conveniences bound to the global registry so hot paths can
#: do ``from repro.util import perf; perf.counter(...)``.
counter = PERF.counter
timed = PERF.timed
histogram = PERF.histogram
observe = PERF.observe
snapshot = PERF.snapshot
reset = PERF.reset
value = PERF.value
