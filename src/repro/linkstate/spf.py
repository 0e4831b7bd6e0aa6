"""Shortest-path computation over the live map, with caching.

The hot loops (every source-route setup, every data packet's stretch
denominator) need hop-count shortest paths; join latency needs
latency-weighted paths.  Both are cached per source.

Invalidation is *selective*: the cache subscribes to the link-state
map's :class:`TopologyEvent` stream and, on a failure event, evicts only
the sources whose cached SPF tree could actually have used the failed
element.  Removing a link or router can never shorten any other source's
paths, so a tree that does not touch the failed element stays exact.  A
restoration (``LINK_UP`` / ``ROUTER_UP``) can improve *any* path, so
those events clear everything.  Under the fig-7 churn workloads this
keeps the vast majority of trees warm across each failure burst; see the
``spf.evict.*`` perf counters.

The ``generation`` check remains as a belt-and-braces fallback for
caches that missed events (e.g. maps mutated before the cache attached).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.linkstate.lsdb import EventKind, LinkStateMap, TopologyEvent
from repro.topology.graph import bfs_paths, dijkstra_lengths
from repro.util import perf


class PathCache:
    """Event-invalidated shortest-path oracle over a :class:`LinkStateMap`."""

    def __init__(self, lsmap: LinkStateMap):
        self.lsmap = lsmap
        self._generation = lsmap.generation
        self._hop_paths: Dict[str, Dict[str, List[str]]] = {}
        self._latency_dist: Dict[str, Dict[str, float]] = {}
        lsmap.subscribe(self._on_event)

    # -- invalidation -------------------------------------------------------------

    def _on_event(self, event: TopologyEvent) -> None:
        """Evict exactly the cached trees the topology change can affect."""
        if event.kind in (EventKind.LINK_UP, EventKind.ROUTER_UP):
            # A restored element can improve paths from any source.
            perf.counter("spf.evict.full")
            self._hop_paths.clear()
            self._latency_dist.clear()
        elif event.kind is EventKind.LINK_DOWN:
            a, b = event.link
            # A source's paths can only change if its tree reached both
            # endpoints: if either was unreachable, the link was not on
            # (or near) any shortest path, and a removal never creates
            # reachability.
            self._evict(lambda reach: a in reach and b in reach)
        else:  # ROUTER_DOWN
            router = event.router
            self._evict(lambda reach: router in reach)
        self._generation = self.lsmap.generation

    def _evict(self, touches) -> None:
        evicted = 0
        for cache in (self._hop_paths, self._latency_dist):
            stale = [src for src, reach in cache.items() if touches(reach)]
            for src in stale:
                del cache[src]
            evicted += len(stale)
        perf.counter("spf.evict.selective")
        perf.counter("spf.evict.trees", evicted)

    def _fresh(self) -> None:
        if self._generation != self.lsmap.generation:
            self._hop_paths.clear()
            self._latency_dist.clear()
            self._generation = self.lsmap.generation

    # -- snapshot support ---------------------------------------------------------

    def __getstate__(self):
        """Serialize the subscription wiring but *not* the cached trees.

        SPF trees are pure derived state (deterministic recomputation
        from the live map), so :mod:`repro.snapshot` marks them
        rebuild-on-load instead of shipping megabytes of paths: the
        loaded cache starts cold and repopulates lazily.  Dropping them
        here also keeps the canonical state hash independent of how warm
        the oracle happened to be at save time.
        """
        state = self.__dict__.copy()
        state["_hop_paths"] = {}
        state["_latency_dist"] = {}
        return state

    # -- hop-count metric --------------------------------------------------------

    def _hop_tree(self, src: str) -> Dict[str, List[str]]:
        self._fresh()
        tree = self._hop_paths.get(src)
        if tree is None:
            with perf.timed("spf.hop_tree"):
                live = self.lsmap.adjacency
                tree = bfs_paths(live, src) if src in live else {}
            self._hop_paths[src] = tree
        return tree

    def hop_path(self, src: str, dst: str) -> Optional[List[str]]:
        """Fewest-hops router path, or ``None`` when unreachable."""
        return self._hop_tree(src).get(dst)

    def hop_dist(self, src: str, dst: str) -> Optional[int]:
        path = self.hop_path(src, dst)
        return None if path is None else len(path) - 1

    def nearest(self, src: str, candidates) -> Optional[str]:
        """The reachable candidate fewest hops from ``src``."""
        best, best_dist = None, None
        for cand in candidates:
            dist = self.hop_dist(src, cand)
            if dist is None:
                continue
            if best_dist is None or dist < best_dist:
                best, best_dist = cand, dist
        return best

    # -- latency metric ------------------------------------------------------------

    def latency_ms(self, src: str, dst: str) -> Optional[float]:
        """Latency of the minimum-latency path, or ``None`` if unreachable."""
        self._fresh()
        dists = self._latency_dist.get(src)
        if dists is None:
            with perf.timed("spf.latency_tree"):
                live = self.lsmap.adjacency
                dists = dijkstra_lengths(live, src) if src in live else {}
            self._latency_dist[src] = dists
        return dists.get(dst)

    def path_latency_ms(self, path: List[str]) -> float:
        """Latency along an explicit source route."""
        live = self.lsmap.adjacency
        return sum((live[a][b] for a, b in zip(path, path[1:])), 0.0)
