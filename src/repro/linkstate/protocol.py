"""Flooding cost/latency models and OSPF-style timers.

Two things the benchmarks need from the link-state protocol itself:

* the *message cost* of a flood (LSA distribution, and the flooding join
  of a router's default virtual node in Section 3.1, and the
  CMU-ETHERNET baseline whose host joins flood every link);
* the *time* for information to reach the whole network (failure
  detection + LSA propagation ≈ OSPF recovery time, the baseline the
  paper compares non-partition recovery against).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.linkstate.lsdb import LinkStateMap
from repro.linkstate.spf import PathCache


@dataclass(frozen=True)
class OspfTimers:
    """Classic OSPF-ish timer settings (milliseconds)."""

    hello_interval_ms: float = 10_000.0
    dead_interval_ms: float = 40_000.0
    #: Sub-second detection as deployed ISPs tune it; used by default so
    #: recovery-time benchmarks aren't dominated by 40 s dead timers.
    fast_detect_ms: float = 300.0
    spf_delay_ms: float = 50.0


def flood_message_cost(lsmap: LinkStateMap,
                       origin: Optional[str] = None) -> int:
    """Messages for one reliable flood over the live graph.

    Standard link-state flooding sends each LSA over every live link once
    in each direction except back toward the sender; in the aggregate this
    is one message per link per direction minus the in-edges of the
    origin's spanning tree — we use the conventional upper bound of
    ``2·|E|`` minus the origin's savings, and simply model ``2·|E|``
    when no origin is given.
    """
    both_ways = sum(map(len, lsmap.adjacency.values()))
    if origin is None:
        return both_ways
    return max(0, both_ways - len(lsmap.adjacency[origin]))


def flood_latency_ms(lsmap: LinkStateMap, origin: str,
                     paths: Optional[PathCache] = None) -> float:
    """Time for a flood from ``origin`` to reach every reachable router."""
    paths = paths or PathCache(lsmap)
    worst = 0.0
    for router in lsmap.live_routers():
        latency = paths.latency_ms(origin, router)
        if latency is not None:
            worst = max(worst, latency)
    return worst


class FloodModel:
    """The OSPF recovery clock over one link-state map."""

    def __init__(self, lsmap: LinkStateMap,
                 timers: OspfTimers = OspfTimers()):
        self.lsmap = lsmap
        self.timers = timers

    def recovery_time_ms(self, origin: str,
                         paths: Optional[PathCache] = None) -> float:
        """Failure detection + flood + SPF — the OSPF recovery baseline."""
        return (self.timers.fast_detect_ms
                + flood_latency_ms(self.lsmap, origin, paths)
                + self.timers.spf_delay_ms)
