"""Up-/down-hierarchy computation over the AS graph (Sections 2.3, 4.1).

Interdomain ROFL is built on each AS's view of its *up-hierarchy* G_X:
"all ASes 'above' X in the AS hierarchy (X's providers, its providers'
providers, and so on)".  Rings merge bottom-up along this hierarchy, the
isolation property is phrased in terms of subtrees, and bloom filters
summarise the hosts in a *down-hierarchy* (all transitive customers).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set

from repro.topology.asgraph import ASGraph


def down_hierarchy(asg: ASGraph, asn: Hashable) -> Set[Hashable]:
    """The subtree rooted at ``asn``: itself plus all transitive customers.

    Backup links are excluded, mirroring the join side ("backup
    relationships are supported by directing join requests only over
    non-backup links"): an ID below a backup-only customer does not merge
    into this subtree's rings, so it must not count as subtree membership
    either.
    """
    members = {asn}
    frontier = [asn]
    while frontier:
        current = frontier.pop()
        for customer in asg.customers(current, include_backup=False):
            if customer not in members:
                members.add(customer)
                frontier.append(customer)
    return members


class HierarchyIndex:
    """Memoised hierarchy queries for one AS graph.

    Precomputes up- and down-hierarchies for every AS so the hot loops of
    joining and routing (isolation checks, candidate pruning) are O(1)
    set operations.
    """

    def __init__(self, asg: ASGraph):
        self.asg = asg
        self._down: Dict[Hashable, Set[Hashable]] = {}
        self._up: Dict[Hashable, List[Hashable]] = {}
        for asn in asg.ases():
            self._down[asn] = down_hierarchy(asg, asn)
        for asn in asg.ases():
            self._up[asn] = self._compute_up_chain(asn)

    def _compute_up_chain(self, asn: Hashable) -> List[Hashable]:
        """X's up-hierarchy G_X: ``asn`` and every AS reached by following
        primary provider links (backup links carry no joins, Section 4.2),
        level by provider-hop distance, each level sorted by ``str``."""
        order = [asn]
        seen = {asn}
        level = [asn]
        while level:
            providers: Set[Hashable] = set()
            for node in level:
                providers.update(self.asg.providers(node))
            level = sorted(providers - seen, key=str)
            seen.update(level)
            order.extend(level)
        return order

    def subtree(self, asn: Hashable) -> Set[Hashable]:
        return self._down[asn]

    def up_chain(self, asn: Hashable) -> List[Hashable]:
        """``asn`` first, then its providers level by level."""
        return list(self._up[asn])

    def common_ancestors(self, a: Hashable, b: Hashable) -> Set[Hashable]:
        """ASes whose subtree contains both ``a`` and ``b``."""
        return set(self._up[a]) & set(self._up[b])

    def earliest_common_ancestors(self, a: Hashable, b: Hashable) -> Set[Hashable]:
        """Minimal common ancestors (no common ancestor strictly below).

        The isolation property says the data path "is guaranteed to stay
        within the subtree rooted at the earliest common ancestor" of the
        source and destination domains.
        """
        common = self.common_ancestors(a, b)
        earliest = set()
        for cand in common:
            below = self._down[cand] & common
            if below == {cand}:
                earliest.add(cand)
        return earliest

    def isolation_region(self, a: Hashable, b: Hashable) -> Set[Hashable]:
        """The union of subtrees of the earliest common ancestors: the set
        of ASes a policy-respecting ROFL path from ``a`` to ``b`` may touch.
        """
        region: Set[Hashable] = set()
        for anchor in self.earliest_common_ancestors(a, b):
            region |= self._down[anchor]
        return region
