"""Router-level topology model.

A :class:`RouterTopology` is an undirected graph of routers with per-link
latencies and an optional PoP (Point of Presence) partition.  It is purely
static: the *live* view (failures, reachability) belongs to the link-state
substrate (:mod:`repro.linkstate`), which wraps one of these.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Tuple

import networkx as nx


class RouterTopology:
    """An ISP's physical router graph.

    Nodes are router names; edges carry a ``latency_ms`` attribute.  Each
    router may be tagged with a ``pop`` (used by the Fig 7 partition
    experiments, which disconnect whole PoPs) and a ``role`` of either
    ``"backbone"`` or ``"edge"`` (hosts attach at edge routers).
    """

    def __init__(self, name: str = "isp"):
        self.name = name
        self.graph = nx.Graph()
        self.pops: Dict[Hashable, List[str]] = {}

    # -- construction -------------------------------------------------------

    def add_router(self, router: str, pop: Hashable = None,
                   role: str = "edge") -> None:
        if router in self.graph:
            raise ValueError("duplicate router {!r}".format(router))
        self.graph.add_node(router, pop=pop, role=role)
        if pop is not None:
            self.pops.setdefault(pop, []).append(router)

    def add_link(self, a: str, b: str, latency_ms: float = 1.0) -> None:
        if a == b:
            raise ValueError("self-loop link")
        for router in (a, b):
            if router not in self.graph:
                raise KeyError("unknown router {!r}".format(router))
        self.graph.add_edge(a, b, latency_ms=latency_ms)

    # -- queries ------------------------------------------------------------

    @property
    def routers(self) -> List[str]:
        return list(self.graph.nodes)

    @property
    def n_routers(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def n_links(self) -> int:
        return self.graph.number_of_edges()

    def edge_routers(self) -> List[str]:
        return [r for r, data in self.graph.nodes(data=True)
                if data.get("role") == "edge"]

    def routers_in_pop(self, pop: Hashable) -> List[str]:
        return list(self.pops.get(pop, []))

    def is_connected(self) -> bool:
        return self.n_routers > 0 and nx.is_connected(self.graph)

    def diameter(self) -> int:
        """Hop-count diameter (the paper relates join cost to this)."""
        return nx.diameter(self.graph)

    def links(self) -> Iterable[Tuple[str, str]]:
        return self.graph.edges()

    def validate(self) -> None:
        """Raise if the topology violates basic invariants."""
        if self.n_routers == 0:
            raise ValueError("empty topology")
        if not self.is_connected():
            raise ValueError("topology is not connected")
        for _, _, data in self.graph.edges(data=True):
            if data["latency_ms"] <= 0:
                raise ValueError("non-positive link latency")

    def __repr__(self) -> str:
        return "RouterTopology({!r}, routers={}, links={}, pops={})".format(
            self.name, self.n_routers, self.n_links, len(self.pops))
