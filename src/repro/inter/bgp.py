"""The BGP-policy baseline (Fig 8b's "BGP-policy" series).

Implements the standard Gao-Rexford model of today's interdomain routing
over the annotated AS graph:

* export rules — routes learned from customers are exported to everyone;
  routes learned from peers or providers are exported only to customers;
* decision process — prefer customer-learned routes, then peer-learned,
  then provider-learned; tie-break on AS-path length.

The paper measures interdomain stretch as "the ratio of the traversed
path to the path BGP would select", so :func:`policy_distance` is the
denominator of every ROFL stretch number, and
:func:`policy_stretch` (policy path over shortest unrestricted path)
reproduces the BGP-policy reference curve.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Tuple

from repro.topology.asgraph import ASGraph
from repro.topology.graph import bfs_paths, topological_order


class BgpBaseline:
    """Per-destination Gao-Rexford route computation with memoisation;
    backup links carry no routes, as they carry no joins (Section 4.2)."""

    def __init__(self, asg: ASGraph):
        self.asg = asg
        self._tables: Dict[Hashable, Dict[Hashable, Tuple[int, int]]] = {}
        self._topo_order: Optional[List[Hashable]] = None

    def __getstate__(self):
        """Serialize without the memoised route tables.

        The tables are pure derived state (``warm()`` rebuilds them
        deterministically from the AS graph), so :mod:`repro.snapshot`
        marks them rebuild-on-load; this also keeps the canonical state
        hash independent of oracle warm-up.
        """
        state = self.__dict__.copy()
        state["_tables"] = {}
        state["_topo_order"] = None
        return state

    # -- internals --------------------------------------------------------------

    def _topological_order(self) -> List[Hashable]:
        """ASes ordered providers-first (the provider DAG is acyclic)."""
        if self._topo_order is not None:
            return self._topo_order
        customers: Dict[Hashable, List[Hashable]] = {
            asn: [] for asn in self.asg.ases()}
        for asn in customers:
            for provider in self.asg.providers(asn):
                customers[provider].append(asn)
        self._topo_order = topological_order(customers)
        return self._topo_order

    def routes_to(self, dest: Hashable) -> Dict[Hashable, Tuple[int, int]]:
        """For every AS, its best route to ``dest`` as ``(pref, hops)``.

        ``pref`` is 0 for customer-learned, 1 for peer-learned, 2 for
        provider-learned (lower preferred); ``hops`` is the AS-path
        length of the selected route.
        """
        cached = self._tables.get(dest)
        if cached is not None:
            return cached

        inf = math.inf
        cust: Dict[Hashable, float] = {dest: 0}
        # Customer routes: BFS upward from dest over provider links (a
        # provider hears about its customer's prefix from the customer).
        frontier = [dest]
        while frontier:
            nxt = []
            for asn in frontier:
                for provider in self.asg.providers(asn):
                    if provider not in cust:
                        cust[provider] = cust[asn] + 1
                        nxt.append(provider)
            frontier = nxt

        # Peer routes: one peer hop onto a customer route (peers only
        # export customer-learned routes).
        peer: Dict[Hashable, float] = {}
        for asn in self.asg.ases():
            best = inf
            for p in self.asg.peers(asn):
                if p in cust:
                    best = min(best, cust[p] + 1)
            if best < inf:
                peer[asn] = best

        # Provider routes: a provider exports its *selected* route to its
        # customers; process providers before customers.
        prov: Dict[Hashable, float] = {}
        best_len: Dict[Hashable, float] = {}
        for asn in self._topological_order():
            choices = [cust.get(asn, inf), peer.get(asn, inf), prov.get(asn, inf)]
            selected = self._select(choices)
            best_len[asn] = selected
            for customer in self.asg.customers(asn, include_backup=False):
                if selected < inf:
                    candidate = selected + 1
                    if candidate < prov.get(customer, inf):
                        prov[customer] = candidate

        table: Dict[Hashable, Tuple[int, int]] = {}
        for asn in self.asg.ases():
            options = [(0, cust.get(asn, inf)), (1, peer.get(asn, inf)),
                       (2, prov.get(asn, inf))]
            viable = [(pref, hops) for pref, hops in options if hops < inf]
            if viable:
                pref, hops = min(viable)          # preference first
                table[asn] = (pref, int(hops))
        self._tables[dest] = table
        return table

    @staticmethod
    def _select(choices: List[float]) -> float:
        """The decision process applied to (cust, peer, prov) lengths:
        the most-preferred *reachable* class wins regardless of length."""
        for length in choices:
            if length != math.inf:
                return length
        return math.inf

    # -- public API ---------------------------------------------------------------

    def policy_distance(self, src: Hashable, dest: Hashable) -> Optional[int]:
        """AS-path length of the route BGP would select, or ``None``."""
        if src == dest:
            return 0
        entry = self.routes_to(dest).get(src)
        return entry[1] if entry is not None else None

    def shortest_distance(self, src: Hashable, dest: Hashable) -> Optional[int]:
        """Plain (policy-oblivious) shortest AS-hop distance."""
        path = bfs_paths(self.asg.adjacency, src).get(dest)
        return None if path is None else len(path) - 1

    def policy_stretch(self, src: Hashable, dest: Hashable) -> Optional[float]:
        """The Fig 8b "BGP-policy" series: policy path over shortest path."""
        policy = self.policy_distance(src, dest)
        shortest = self.shortest_distance(src, dest)
        if policy is None or shortest is None:
            return None
        if shortest == 0:
            return 1.0
        return policy / shortest

    def warm(self) -> int:
        """Precompute the routing table toward every AS.

        The baseline is a measurement oracle — it supplies the stretch
        denominator for every delivered packet — so benchmarks warm it
        between their join and send phases to keep oracle table
        construction out of the measured ROFL send path.  Returns the
        number of tables now resident.
        """
        targets = self.asg.ases()
        for dest in targets:
            self.routes_to(dest)
        return len(targets)
