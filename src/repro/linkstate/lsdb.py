"""The live link-state database (network map).

Wraps a static :class:`RouterTopology` with mutable failure state.  The
routing layer subscribes for :class:`TopologyEvent` notifications — this
is the paper's "notifies the routing layer of such events" — and reads
paths through an attached :class:`repro.linkstate.spf.PathCache`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (Callable, Dict, Hashable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from repro.topology import graph
from repro.topology.graph import RouterTopology


class EventKind(enum.Enum):
    LINK_DOWN = "link_down"
    LINK_UP = "link_up"
    ROUTER_DOWN = "router_down"
    ROUTER_UP = "router_up"


@dataclass(frozen=True)
class TopologyEvent:
    kind: EventKind
    router: Optional[str] = None
    link: Optional[Tuple[str, str]] = None


class LinkStateMap:
    """Mutable live view over a static topology.

    The map itself is ``adjacency`` (read it freely, change it only through
    the methods here): the topology's ``router → {neighbour → latency_ms}``
    less every failed router and link.  What is restored re-enters at the
    *end* of each dict it rejoins, and shortest-path ties break by that order.

    ``generation`` increments on every change; path caches key their
    validity on it.  Failed routers take all their incident links down
    with them (and those links return when the router returns, unless the
    link itself was failed independently).
    """

    def __init__(self, topology: RouterTopology):
        topology.validate()
        self.topology = topology
        self.generation = 0
        self._failed_routers: Set[str] = set()
        self._failed_links: Set[frozenset] = set()
        self._subscribers: List[Callable[[TopologyEvent], None]] = []
        # Not a copy of each neighbour dict: laid router by router, both
        # ends at once, a dict lists the routers inserted before its owner first.
        self.adjacency: Dict[str, Dict[str, float]] = {
            router: {} for router in topology.adjacency}
        for router, nbrs in topology.adjacency.items():
            for nbr, latency in nbrs.items():
                self._link_up(router, nbr, latency)

    # -- subscriptions --------------------------------------------------------

    def subscribe(self, callback: Callable[[TopologyEvent], None]) -> None:
        self._subscribers.append(callback)

    def _notify(self, event: TopologyEvent) -> None:
        self.generation += 1
        for callback in list(self._subscribers):
            callback(event)

    # -- mutation ---------------------------------------------------------------

    def _link_up(self, a: str, b: str, latency_ms: float) -> None:
        self.adjacency[a][b] = self.adjacency[b][a] = latency_ms

    def _link_key(self, a: str, b: str) -> frozenset:
        if not self.topology.has_link(a, b):
            raise KeyError("unknown link {!r} - {!r}".format(a, b))
        return frozenset((a, b))

    def fail_link(self, a: str, b: str) -> None:
        key = self._link_key(a, b)
        if key in self._failed_links:
            return
        self._failed_links.add(key)
        if self.is_link_up(a, b):
            del self.adjacency[a][b], self.adjacency[b][a]
        self._notify(TopologyEvent(EventKind.LINK_DOWN, link=(a, b)))

    def restore_link(self, a: str, b: str) -> None:
        key = self._link_key(a, b)
        if key not in self._failed_links:
            return
        self._failed_links.discard(key)
        if a in self.adjacency and b in self.adjacency:
            self._link_up(a, b, self.topology.adjacency[a][b])
        self._notify(TopologyEvent(EventKind.LINK_UP, link=(a, b)))

    def fail_router(self, router: str) -> None:
        if router in self._failed_routers:
            return
        self._failed_routers.add(router)
        for nbr in self.adjacency.pop(router, ()):
            del self.adjacency[nbr][router]
        self._notify(TopologyEvent(EventKind.ROUTER_DOWN, router=router))

    def restore_router(self, router: str) -> None:
        if router not in self._failed_routers:
            return
        self._failed_routers.discard(router)
        self.adjacency[router] = {}
        for nbr, latency in self.topology.adjacency[router].items():
            if (nbr in self.adjacency
                    and frozenset((router, nbr)) not in self._failed_links):
                self._link_up(router, nbr, latency)
        self._notify(TopologyEvent(EventKind.ROUTER_UP, router=router))

    def fail_pop(self, pop: Hashable) -> List[str]:
        """Fail every router in a PoP (Fig 7's partition workload)."""
        routers = self.topology.routers_in_pop(pop)
        for router in routers:
            self.fail_router(router)
        return routers

    def restore_pop(self, pop: Hashable) -> List[str]:
        routers = self.topology.routers_in_pop(pop)
        for router in routers:
            self.restore_router(router)
        return routers

    # -- queries -----------------------------------------------------------------

    def is_router_up(self, router: str) -> bool:
        return router in self.adjacency

    def is_link_up(self, a: str, b: str) -> bool:
        return b in self.adjacency.get(a, ())

    def live_routers(self) -> List[str]:
        return list(self.adjacency)

    def links(self) -> Iterator[Tuple[str, str]]:
        """The live links, oriented and ordered as ``graph.links``."""
        return graph.links(self.adjacency)

    def reachable(self, a: str, b: str) -> bool:
        return a in self.adjacency and b in graph.bfs_paths(self.adjacency, a)

    def components(self) -> List[Set[str]]:
        return graph.components(self.adjacency)

    def path_is_live(self, path: Sequence[str]) -> bool:
        """Is a stored source route still usable on the live map?  One
        pass over the adjacency: its first router is up and every
        consecutive pair is a live edge (which implies the other routers
        are up)."""
        if not path:
            return False
        adjacency = self.adjacency
        nbrs = adjacency.get(path[0])
        if nbrs is None:
            return False
        for router in path[1:]:
            if router not in nbrs:
                return False
            nbrs = adjacency[router]
        return True

    def __repr__(self) -> str:
        return "LinkStateMap({!r}, live={}/{} routers, gen={})".format(
            self.topology.name, len(self.adjacency),
            self.topology.n_routers, self.generation)
