"""Measurement plumbing: message counters and path results.

Every control or data message in the simulation is *charged*: its
router-level (or AS-level) path is handed to a :class:`StatsCollector`,
which accumulates

* total message counts per category (``join``, ``teardown``, ``data`` …) —
  the y-axes of Figures 5a, 7 and 8a;
* per-router traversal counts — the load-balance series of Figure 6b;
* per-operation message tallies via :meth:`operation` scopes — the CDFs of
  Figures 5b and 8a.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Sequence

from repro.util.perf import nearest_rank


@dataclass
class PathResult:
    """Outcome of routing one packet."""

    delivered: bool
    path: List[Hashable] = field(default_factory=list)
    #: Number of physical (router- or AS-level) hops actually traversed.
    hops: int = 0
    #: Hops of the shortest possible path (or the policy baseline path).
    optimal_hops: int = 0
    #: Identifier-space pointer hops taken (ring hops, not physical hops).
    pointer_hops: int = 0
    #: Whether any hop was served from a pointer cache.
    used_cache: bool = False

    @property
    def stretch(self) -> float:
        """Traversed length over the baseline length (paper Section 6.1).

        Same-router delivery has no baseline path (``optimal_hops == 0``);
        the defined value is 0.0 rather than a ZeroDivisionError (or a
        fictitious 1.0) — aggregators already exclude these packets from
        stretch averages by filtering on ``optimal_hops > 0``.
        """
        if not self.delivered:
            return float("inf")
        if self.optimal_hops <= 0:
            return 0.0
        return self.hops / self.optimal_hops


class StatsCollector:
    """Accumulates message and traversal counts for one experiment."""

    def __init__(self) -> None:
        self.messages: Counter = Counter()          # category -> message count
        self.router_traversals: Counter = Counter() # node -> messages through it
        self.operations: List[Dict] = []            # closed operation records
        self._open_ops: List[Dict] = []

    # -- charging ---------------------------------------------------------

    def charge_hops(self, n_hops: int, category: str = "control") -> None:
        """Charge ``n_hops`` network-level messages without node attribution."""
        if n_hops < 0:
            raise ValueError("negative hop count")
        self.messages[category] += n_hops
        for op in self._open_ops:
            op["messages"] += n_hops

    def charge_path(self, path: Sequence[Hashable], category: str = "control") -> int:
        """Charge one message traversing ``path`` (a node sequence).

        A path of ``k+1`` nodes costs ``k`` network-level messages, one per
        link, matching how the paper counts "network-level messages".
        Every node on the path (except the origin) is credited with a
        traversal for the load-balance series.
        """
        n_hops = max(0, len(path) - 1)
        self.charge_hops(n_hops, category)
        for node in path[1:]:
            self.router_traversals[node] += 1
        return n_hops

    # -- operation scoping --------------------------------------------------

    @contextmanager
    def operation(self, kind: str, **labels) -> Iterator[Dict]:
        """Scope a logical operation (one host join, one repair, …).

        All hops charged while the scope is open are attributed to it; the
        closed record lands in :attr:`operations` for CDF plotting.
        """
        record = {"kind": kind, "messages": 0, **labels}
        self._open_ops.append(record)
        try:
            yield record
        finally:
            self._open_ops.remove(record)
            self.operations.append(record)

    # -- reading ------------------------------------------------------------

    def total_messages(self, category: Optional[str] = None) -> int:
        if category is None:
            return sum(self.messages.values())
        return self.messages[category]

    def operation_costs(self, kind: str) -> List[int]:
        """Per-operation message counts for all closed operations of ``kind``."""
        return [op["messages"] for op in self.operations if op["kind"] == kind]

    def load_series(self) -> Dict[Hashable, int]:
        return dict(self.router_traversals)

    def reset_load(self) -> None:
        self.router_traversals.clear()

    def snapshot(self) -> Dict[str, int]:
        return dict(self.messages)


def cdf_points(samples: Sequence[float]) -> List[tuple]:
    """Sorted ``(value, cumulative_fraction)`` pairs for plotting a CDF."""
    if not samples:
        return []
    ordered = sorted(samples)
    n = len(ordered)
    return [(value, (index + 1) / n) for index, value in enumerate(ordered)]


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The ``fraction``-quantile (nearest-rank) of ``samples``."""
    return nearest_rank(sorted(samples), fraction)
