"""Up-/down-hierarchy computation over the AS graph (Sections 2.3, 4.1).

Interdomain ROFL is built on each AS's view of its *up-hierarchy* G_X:
"all ASes 'above' X in the AS hierarchy (X's providers, its providers'
providers, and so on)".  Rings merge bottom-up along this hierarchy, the
isolation property is phrased in terms of subtrees, and bloom filters
summarise the hosts in a *down-hierarchy* (all transitive customers).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set

from repro.topology.asgraph import ASGraph


def up_hierarchy(asg: ASGraph, asn: Hashable,
                 include_backup: bool = False,
                 prune: Optional[Set[Hashable]] = None) -> Dict[Hashable, list]:
    """X's up-hierarchy graph G_X as a customer→provider DAG (``{AS: its
    providers}``, in discovery order).

    Contains ``asn`` itself plus every AS reachable by repeatedly following
    (primary, and optionally backup) provider links.  ``prune`` removes the
    given ASes — the paper allows X to "prune G_X to reduce its join and
    maintenance overhead".
    """
    dag: Dict[Hashable, List[Hashable]] = {asn: []}
    frontier = [asn]
    while frontier:
        current = frontier.pop()
        uplinks = asg.providers(current)
        if include_backup:
            uplinks += asg.backup_providers(current)
        for provider in uplinks:
            if prune and provider in prune:
                continue
            dag[current].append(provider)
            if provider not in dag:
                dag[provider] = []
                frontier.append(provider)
    return dag


def up_hierarchy_levels(asg: ASGraph, asn: Hashable,
                        include_backup: bool = False) -> List[Set[Hashable]]:
    """Levels of G_X by provider-hop distance: [ {X}, providers, … ]."""
    dag = up_hierarchy(asg, asn, include_backup=include_backup)
    levels: List[Set[Hashable]] = []
    current = {asn}
    seen: Set[Hashable] = set()
    while current:
        levels.append(current)
        seen |= current
        nxt: Set[Hashable] = set()
        for node in current:
            nxt |= set(dag[node]) - seen
        current = nxt
    return levels


def down_hierarchy(asg: ASGraph, asn: Hashable,
                   _cache: Optional[Dict] = None,
                   include_backup: bool = False) -> Set[Hashable]:
    """The subtree rooted at ``asn``: itself plus all transitive customers.

    Backup links are excluded by default, mirroring the join side ("backup
    relationships are supported by directing join requests only over
    non-backup links"): an ID below a backup-only customer does not merge
    into this subtree's rings, so it must not count as subtree membership
    either.
    """
    if _cache is not None and asn in _cache:
        return _cache[asn]
    members = {asn}
    frontier = [asn]
    while frontier:
        current = frontier.pop()
        for customer in asg.customers(current, include_backup=include_backup):
            if customer not in members:
                members.add(customer)
                frontier.append(customer)
    if _cache is not None:
        _cache[asn] = members
    return members


class HierarchyIndex:
    """Memoised hierarchy queries for one AS graph.

    Precomputes up- and down-hierarchies for every AS so the hot loops of
    joining and routing (isolation checks, candidate pruning) are O(1)
    set operations.
    """

    def __init__(self, asg: ASGraph, include_backup: bool = False):
        self.asg = asg
        self.include_backup = include_backup
        self._down: Dict[Hashable, Set[Hashable]] = {}
        self._up: Dict[Hashable, List[Hashable]] = {}
        for asn in asg.ases():
            self._down[asn] = down_hierarchy(asg, asn)
        for asn in asg.ases():
            self._up[asn] = self._compute_up_chain(asn)

    def _compute_up_chain(self, asn: Hashable) -> List[Hashable]:
        """ASes of G_X ordered by provider-hop level (BFS order)."""
        order: List[Hashable] = []
        for level in up_hierarchy_levels(self.asg, asn,
                                         include_backup=self.include_backup):
            order.extend(sorted(level, key=str))
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
