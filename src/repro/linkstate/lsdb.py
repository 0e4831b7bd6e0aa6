"""The live link-state database (network map).

Wraps a static :class:`RouterTopology` with mutable failure state.  The
routing layer subscribes for :class:`TopologyEvent` notifications — this
is the paper's "notifies the routing layer of such events" — and reads
paths through an attached :class:`repro.linkstate.spf.PathCache`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence, Set, Tuple

import networkx as nx

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
        self._live: nx.Graph = topology.graph.copy()

    # -- subscriptions --------------------------------------------------------

    def subscribe(self, callback: Callable[[TopologyEvent], None]) -> None:
        self._subscribers.append(callback)

    def _notify(self, event: TopologyEvent) -> None:
        self.generation += 1
        for callback in list(self._subscribers):
            callback(event)

    # -- mutation ---------------------------------------------------------------

    def fail_link(self, a: str, b: str) -> None:
        key = frozenset((a, b))
        if key in self._failed_links:
            return
        self._failed_links.add(key)
        if self._live.has_edge(a, b):
            self._live.remove_edge(a, b)
        self._notify(TopologyEvent(EventKind.LINK_DOWN, link=(a, b)))

    def restore_link(self, a: str, b: str) -> None:
        key = frozenset((a, b))
        if key not in self._failed_links:
            return
        self._failed_links.discard(key)
        if (a not in self._failed_routers and b not in self._failed_routers
                and self.topology.graph.has_edge(a, b)):
            self._live.add_edge(a, b, **self.topology.graph.edges[a, b])
        self._notify(TopologyEvent(EventKind.LINK_UP, link=(a, b)))

    def fail_router(self, router: str) -> None:
        if router in self._failed_routers:
            return
        self._failed_routers.add(router)
        if router in self._live:
            self._live.remove_node(router)
        self._notify(TopologyEvent(EventKind.ROUTER_DOWN, router=router))

    def restore_router(self, router: str) -> None:
        if router not in self._failed_routers:
            return
        self._failed_routers.discard(router)
        self._live.add_node(router, **self.topology.graph.nodes[router])
        for nbr in self.topology.graph.neighbors(router):
            if (nbr in self._live
                    and frozenset((router, nbr)) not in self._failed_links):
                self._live.add_edge(router, nbr,
                                    **self.topology.graph.edges[router, nbr])
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

    @property
    def live_graph(self) -> nx.Graph:
        return self._live

    def is_router_up(self, router: str) -> bool:
        return router in self._live

    def is_link_up(self, a: str, b: str) -> bool:
        return self._live.has_edge(a, b)

    def live_routers(self) -> List[str]:
        return list(self._live.nodes)

    def reachable(self, a: str, b: str) -> bool:
        if a not in self._live or b not in self._live:
            return False
        return nx.has_path(self._live, a, b)

    def components(self) -> List[Set[str]]:
        return [set(c) for c in nx.connected_components(self._live)]

    def path_is_live(self, path: Sequence[str]) -> bool:
        """Is a stored source route still usable on the live map?  One
        pass over the raw adjacency: its first router is up and every
        consecutive pair is a live edge (which implies the other routers
        are up)."""
        if not path:
            return False
        adj = self._live._adj
        nbrs = adj.get(path[0])
        if nbrs is None:
            return False
        for router in path[1:]:
            if router not in nbrs:
                return False
            nbrs = adj[router]
        return True

    def __repr__(self) -> str:
        return "LinkStateMap({!r}, live={}/{} routers, gen={})".format(
            self.topology.name, self._live.number_of_nodes(),
            self.topology.n_routers, self.generation)
