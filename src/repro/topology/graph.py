"""Router-level topology model, and the graph algorithms the package runs.

A :class:`RouterTopology` is an undirected graph of routers with per-link
latencies and an optional PoP (Point of Presence) partition.  It is purely
static: the *live* view (failures, reachability) belongs to the link-state
substrate (:mod:`repro.linkstate`), which wraps one of these.

Every graph in the package — this one, the live map and the AS graph — is
an insertion-ordered adjacency ``node → {neighbour → edge value}``, and the
functions below are all that is ever computed over one.  Their iteration
orders are part of the contract (same seed, same paths): nodes and
neighbours are visited in insertion order and the first discovery of a
node wins.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterator, List, Mapping, Set, Tuple

Adjacency = Mapping[Hashable, Mapping[Hashable, object]]


def bfs_paths(adj: Adjacency, source: Hashable) -> Dict[Hashable, list]:
    """A fewest-hops path from ``source`` to every node it reaches, keyed
    in discovery order: level by level, each node's neighbours in
    insertion order, the first path found kept."""
    paths = {source: [source]}
    level = [source]
    while level:
        reached = []
        for node in level:
            path = paths[node]
            for nbr in adj[node]:
                if nbr not in paths:
                    paths[nbr] = path + [nbr]
                    reached.append(nbr)
        level = reached
    return paths


def dijkstra_lengths(adj: Adjacency, source: Hashable) -> Dict[Hashable, float]:
    """Length of the lightest path from ``source`` to every node it
    reaches, in settling order; the edge values are the weights.  Equal
    tentative lengths settle in the order they were pushed."""
    lengths: Dict[Hashable, float] = {}
    fringe = [(0, 0, source)]
    pushed = 1
    while fringe:
        length, _, node = heapq.heappop(fringe)
        if node not in lengths:
            lengths[node] = length
            for nbr, weight in adj[node].items():
                if nbr not in lengths:
                    heapq.heappush(fringe, (length + weight, pushed, nbr))
                    pushed += 1
    return lengths


def components(adj: Adjacency) -> List[Set[Hashable]]:
    """Connected components, ordered by their first-inserted node."""
    out: List[Set[Hashable]] = []
    seen: Set[Hashable] = set()
    for node in adj:
        if node not in seen:
            out.append(set(bfs_paths(adj, node)))
            seen |= out[-1]
    return out


def links(adj: Adjacency) -> Iterator[Tuple[Hashable, Hashable]]:
    """Each undirected link once, as ``(a, b)`` with ``a`` the endpoint
    inserted first; ``a`` in node order, ``b`` in ``a``'s neighbour order."""
    seen: Set[Hashable] = set()
    for node, nbrs in adj.items():
        yield from ((node, nbr) for nbr in nbrs if nbr not in seen)
        seen.add(node)


def topological_order(successors: Mapping[Hashable, List[Hashable]]) -> list:
    """Kahn's algorithm by generations: the nodes with no predecessor in
    insertion order, then whatever each frees, in successor order.  Raises
    ``ValueError`` when ``successors`` has a cycle."""
    indegree = dict.fromkeys(successors, 0)
    for children in successors.values():
        for child in children:
            indegree[child] += 1
    order = [node for node, degree in indegree.items() if degree == 0]
    for node in order:  # grows while it is walked
        for child in successors[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                order.append(child)
    if len(order) != len(indegree):
        raise ValueError("graph contains a cycle")
    return order


class RouterTopology:
    """An ISP's physical router graph.

    ``adjacency[a][b]`` is the latency of link ``a — b`` in milliseconds
    (held under both endpoints).  Each router may be tagged with a ``pop``
    (used by the Fig 7 partition experiments, which disconnect whole PoPs)
    and a ``role`` of either ``"backbone"`` or ``"edge"`` (hosts attach at
    edge routers); both are kept in ``nodes[router]``.
    """

    def __init__(self, name: str = "isp"):
        self.name = name
        self.nodes: Dict[str, dict] = {}
        self.adjacency: Dict[str, Dict[str, float]] = {}
        self.pops: Dict[Hashable, List[str]] = {}

    # -- construction -------------------------------------------------------

    def add_router(self, router: str, pop: Hashable = None,
                   role: str = "edge") -> None:
        if router in self.nodes:
            raise ValueError("duplicate router {!r}".format(router))
        self.nodes[router] = {"pop": pop, "role": role}
        self.adjacency[router] = {}
        if pop is not None:
            self.pops.setdefault(pop, []).append(router)

    def add_link(self, a: str, b: str, latency_ms: float = 1.0) -> None:
        if a == b:
            raise ValueError("self-loop link")
        for router in (a, b):
            if router not in self.nodes:
                raise KeyError("unknown router {!r}".format(router))
        self.adjacency[a][b] = self.adjacency[b][a] = latency_ms

    # -- queries ------------------------------------------------------------

    @property
    def routers(self) -> List[str]:
        return list(self.nodes)

    @property
    def n_routers(self) -> int:
        return len(self.nodes)

    @property
    def n_links(self) -> int:
        return sum(map(len, self.adjacency.values())) // 2

    def edge_routers(self) -> List[str]:
        return [r for r, data in self.nodes.items() if data["role"] == "edge"]

    def routers_in_pop(self, pop: Hashable) -> List[str]:
        return list(self.pops.get(pop, []))

    def has_link(self, a: str, b: str) -> bool:
        return b in self.adjacency.get(a, ())

    def is_connected(self) -> bool:
        return len(components(self.adjacency)) == 1

    def diameter(self) -> int:
        """Hop-count diameter (the paper relates join cost to this)."""
        return max(len(path) - 1 for router in self.nodes
                   for path in bfs_paths(self.adjacency, router).values())

    def links(self) -> Iterator[Tuple[str, str]]:
        return links(self.adjacency)

    def validate(self) -> None:
        """Raise if the topology violates basic invariants."""
        if self.n_routers == 0:
            raise ValueError("empty topology")
        if not self.is_connected():
            raise ValueError("topology is not connected")
        if any(latency <= 0 for nbrs in self.adjacency.values()
               for latency in nbrs.values()):
            raise ValueError("non-positive link latency")

    def __repr__(self) -> str:
        return "RouterTopology({!r}, routers={}, links={}, pops={})".format(
            self.name, self.n_routers, self.n_links, len(self.pops))
