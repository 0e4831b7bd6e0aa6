"""Policy machinery for interdomain ROFL (Sections 4.1–4.2).

This module owns three things:

* **Hierarchy levels.**  A join happens at a set of *levels*; each level is
  a subtree root: a real AS, or a *virtual AS* standing for a peering link
  (conversion rule (a), Fig 4).  Peering cliques collapse to one virtual
  AS ("if several ASes are all peered together in a clique (e.g. the
  Tier 1 ISPs), we only need a single virtual AS"), which also serves as
  the global root ring.
* **Join strategies** (the Fig 8a comparison): ephemeral, single-homed,
  recursively multihomed, and peering.  Backup links never carry join
  requests ("backup relationships are supported by directing join
  requests only over non-backup links").
* **Valley-free path computation** within a level's subtree — the AS-level
  source routes pointers carry, and the BGP-like import rule transit ASes
  apply when shortcutting.
"""

from __future__ import annotations

import copyreg
import enum
from collections import deque
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from repro.topology.asgraph import ASGraph, Relationship
from repro.topology.hierarchy import HierarchyIndex
from repro.util import perf


class JoinStrategy(enum.Enum):
    """The four joining strategies of Section 6.3 / Fig 8a."""

    EPHEMERAL = "ephemeral"
    SINGLE_HOMED = "single-homed"
    MULTIHOMED = "multihomed"
    PEERING = "peering"


class VirtualAS:
    """Conversion rule (a): a stand-in provider for a set of mutually
    peered ASes.  Hashable and usable anywhere a level key is expected."""

    __slots__ = ("members",)

    def __init__(self, members: FrozenSet[Hashable]):
        if len(members) < 2:
            raise ValueError("a virtual AS joins at least two peers")
        self.members = frozenset(members)

    def __eq__(self, other) -> bool:
        return isinstance(other, VirtualAS) and self.members == other.members

    def __hash__(self) -> int:
        return hash(("vAS", self.members))

    def __repr__(self) -> str:
        return "VirtualAS({})".format("|".join(sorted(map(str, self.members))))


def level_within(level: Hashable, outer_set: Set[Hashable]) -> bool:
    """Is ``level``'s subtree inside ``outer_set``, some level's subtree?

    A subtree holds its root AS and everything below it, and a virtual
    AS's subtree is its members' together, so only the roots are tested:
    a real AS is inside when it is in the set, a virtual AS when each of
    its members is."""
    if isinstance(level, VirtualAS):
        return outer_set.issuperset(level.members)
    return level in outer_set


class PolicyView:
    """Policy-aware wrapper over an :class:`ASGraph`.

    Precomputes the hierarchy index, the virtual-AS set, per-level subtree
    membership, and valley-free shortest paths on demand.
    """

    def __init__(self, asg: ASGraph):
        self.asg = asg
        self.hierarchy = HierarchyIndex(asg)
        self.virtual_ases: List[VirtualAS] = self._build_virtual_ases()
        self._vas_by_member: Dict[Hashable, List[VirtualAS]] = {}
        for vas in self.virtual_ases:
            for member in vas.members:
                self._vas_by_member.setdefault(member, []).append(vas)
        self._subtree_cache: Dict[Hashable, Set[Hashable]] = {}
        #: ``(src, scope)`` → destination → path, one BFS each.
        self._policy_path_cache: Dict[Tuple, Dict[Hashable, Tuple]] = {}
        self._step_cache: Dict[Tuple[Hashable, Hashable], Optional[str]] = {}
        self._profile_cache: Dict[Tuple[Hashable, Hashable],
                                  Tuple[int, int]] = {}
        root = self.root_level()
        if root is None:
            raise ValueError("AS graph has no global root ring "
                             "(no tier-1 peering clique or single tier-1)")
        self.root = root

    def __getstate__(self):
        """Serialize without the pure memo caches (path/step/subtree/
        profile): they rebuild deterministically on demand, so the
        canonical state hash stays independent of query history."""
        state = self.__dict__.copy()
        state["_subtree_cache"] = {}
        state["_policy_path_cache"] = {}
        state["_step_cache"] = {}
        state["_profile_cache"] = {}
        return state

    def __reduce_ex__(self, protocol):
        """Pickle the path memo beside that state: a query hands out one
        tuple per key and the hash encodes which pointers share one, so a
        loaded policy must hand later pointers the objects its pointers
        hold, not fresh equal ones.  The hash never sees the memo."""
        return (copyreg.__newobj__, (type(self),),
                (self.__getstate__(), self._policy_path_cache))

    def __setstate__(self, state) -> None:
        state, memo = state
        self.__dict__.update(state)
        self._policy_path_cache = memo

    # -- virtual ASes ------------------------------------------------------------

    def _build_virtual_ases(self) -> List[VirtualAS]:
        """One virtual AS per maximal peering clique we detect greedily,
        one per remaining peer link."""
        peer_edges = [(a, b) for a, b, rel in self.asg.links()
                      if rel is Relationship.PEER]
        # The tier-1 clique: ASes with no providers that all peer.
        tier1 = set(self.asg.tier1())
        cliques: List[FrozenSet[Hashable]] = []
        covered: Set[FrozenSet[Hashable]] = set()
        if len(tier1) >= 2 and all(
                self.asg.relationship(a, b) is Relationship.PEER
                for a in tier1 for b in tier1 if str(a) < str(b)):
            cliques.append(frozenset(tier1))
            for a in tier1:
                for b in tier1:
                    if str(a) < str(b):
                        covered.add(frozenset((a, b)))
        out = [VirtualAS(members) for members in cliques]
        for a, b in peer_edges:
            key = frozenset((a, b))
            if key not in covered:
                covered.add(key)
                out.append(VirtualAS(key))
        return out

    def root_level(self) -> Optional[Hashable]:
        """The global ring's level: the tier-1 clique's virtual AS (or the
        single tier-1 AS when there is exactly one)."""
        tier1 = set(self.asg.tier1())
        if len(tier1) == 1:
            return next(iter(tier1))
        for vas in self.virtual_ases:
            if vas.members == frozenset(tier1):
                return vas
        return None

    # -- subtrees ------------------------------------------------------------------

    def subtree(self, level: Hashable) -> Set[Hashable]:
        """All real ASes inside a level's subtree."""
        cached = self._subtree_cache.get(level)
        if cached is not None:
            return cached
        if isinstance(level, VirtualAS):
            members: Set[Hashable] = set()
            for asn in level.members:
                members |= self.hierarchy.subtree(asn)
        else:
            members = set(self.hierarchy.subtree(level))
        self._subtree_cache[level] = members
        return members

    def level_contains(self, level: Hashable, asn: Hashable) -> bool:
        return asn in self.subtree(level)

    def level_contained_in(self, inner: Hashable, outer: Hashable) -> bool:
        """Is ``subtree(inner)`` ⊆ ``subtree(outer)``?"""
        return inner == outer or level_within(inner, self.subtree(outer))

    # -- join chains -------------------------------------------------------------------

    def join_chain(self, home_as: Hashable, strategy: JoinStrategy,
                   via_provider: Optional[Hashable] = None) -> List[Hashable]:
        """The ordered (innermost → outermost) levels an ID joins at.

        Every chain ends at the global root ring so the ID is globally
        reachable; the strategies differ in how much of the up-hierarchy
        (and which peering virtual ASes) they cover.  Every ID of one
        strategy at one home AS joins the same chain: the paper's option
        to prune G_X (Section 2.3) is not modelled.
        """
        if strategy is JoinStrategy.EPHEMERAL:
            levels: List[Hashable] = [home_as]
        elif strategy is JoinStrategy.SINGLE_HOMED:
            levels = [home_as]
            current = home_as
            seen = {home_as}
            first_step = True
            while True:
                providers = sorted(self.asg.providers(current), key=str)
                if not providers:
                    break
                if first_step and via_provider is not None:
                    if via_provider not in providers:
                        raise ValueError("{} is not a provider of {}".format(
                            via_provider, home_as))
                    current = via_provider
                else:
                    current = providers[0]
                first_step = False
                if current in seen:
                    break
                seen.add(current)
                levels.append(current)
        else:  # MULTIHOMED and PEERING share the provider DAG coverage.
            chain = self.hierarchy.up_chain(home_as)
            levels = list(chain)
            if strategy is JoinStrategy.PEERING:
                extra: List[VirtualAS] = []
                for asn in chain:
                    for vas in self._vas_by_member.get(asn, []):
                        if vas not in extra and vas != self.root:
                            extra.append(vas)
                levels.extend(extra)
        if self.root not in levels:
            levels.append(self.root)
        # Innermost-first: order by subtree size, root last.
        levels.sort(key=lambda lvl: (len(self.subtree(lvl)), str(lvl)))
        if strategy is JoinStrategy.EPHEMERAL:
            # Ephemeral IDs only hold a global successor (plus their home
            # ring membership, which costs nothing extra to model).
            return [home_as, self.root] if home_as != self.root else [self.root]
        return levels

    # -- valley-free paths ------------------------------------------------------------

    def step_type(self, a: Hashable, b: Hashable) -> Optional[str]:
        """Classify the directed AS hop ``a → b`` (memoised: the AS graph
        is static for the lifetime of a policy)."""
        key = (a, b)
        try:
            return self._step_cache[key]
        except KeyError:
            pass
        rel = self.asg.relationship(a, b)
        if rel is None:
            kind = None
        elif rel is Relationship.PEER:
            kind = "peer"
        elif rel in (Relationship.CUSTOMER_PROVIDER, Relationship.BACKUP):
            kind = "up" if self.asg.is_provider_of(b, a) else "down"
        else:
            kind = None
        self._step_cache[key] = kind
        return kind

    def route_is_valley_free(self, route: Sequence[Hashable]) -> bool:
        """up* (peer)? down* — at most one peer crossing, never up after
        going down or crossing a peer."""
        phase = 0  # 0 = may go up, 1 = peer crossed, 2 = descending
        for a, b in zip(route, route[1:]):
            step = self.step_type(a, b)
            if step is None:
                return False
            if step == "up":
                if phase != 0:
                    return False
            elif step == "peer":
                if phase != 0:
                    return False
                phase = 1
            else:  # down
                phase = 2
        return True

    def policy_path(self, src: Hashable, dst: Hashable,
                    scope: Optional[Hashable] = None
                    ) -> Optional[Tuple[Hashable, ...]]:
        """Shortest valley-free AS path from ``src`` to ``dst`` over
        primary links, restricted to ``scope``'s subtree (peer hops only
        where the scope's virtual AS covers them, or anywhere unscoped).

        One BFS tree per ``(src, scope)`` answers every destination (the
        AS graph is static for the lifetime of a policy), so a query is
        two dict hits."""
        key = (src, scope)
        tree = self._policy_path_cache.get(key)
        if tree is None:
            tree = self._policy_path_cache[key] = self._policy_tree(*key)
        return tree.get(dst)

    def level_route(self, src: Hashable, dst: Hashable,
                    level: Hashable) -> Optional[Tuple[Hashable, ...]]:
        """The AS route a pointer or message formed at ``level`` takes:
        the path inside the level's subtree, else the unscoped one.  The
        memoised tuple itself, never a copy — which pointers share a route
        object is part of the state hash."""
        path = self.policy_path(src, dst, level)
        return path if path is not None else self.policy_path(src, dst)

    def path_profile(self, src: Hashable,
                     dst: Hashable) -> Tuple[int, int]:
        """``(up-links, total hops)`` of the unscoped policy path
        ``src → dst``, memoised per ordered AS pair.

        The proximity metric of the finger-selection machinery (Section
        4.1): with ~N² AS pairs for a fixed topology the cache saturates
        quickly, turning the per-candidate step-type walk into one dict
        hit on the join hot path.  Unreachable pairs profile as a large
        sentinel so ``min()`` never prefers them.
        """
        key = (src, dst)
        cached = self._profile_cache.get(key)
        if cached is not None:
            return cached
        path = self.policy_path(src, dst)
        if path is None:
            profile = (1 << 30, 1 << 30)
        else:
            step_type = self.step_type
            ups = sum(1 for a, b in zip(path, path[1:])
                      if step_type(a, b) == "up")
            profile = (ups, len(path) - 1)
        self._profile_cache[key] = profile
        return profile

    def _allowed_peer_pairs(self, scope: Optional[Hashable]) -> Optional[Set[FrozenSet]]:
        """Which peer links a scoped path may cross.  Inside a real AS's
        subtree: none (pure customer-provider).  Inside a virtual AS:
        exactly the peerings among its members.  Unscoped: all.

        The oracle's form of the rule (``tests/policy_reference.py``);
        ``_policy_tree`` applies it as a test on each peer step."""
        if scope is None:
            return None
        if isinstance(scope, VirtualAS):
            return {frozenset((a, b)) for a in scope.members
                    for b in scope.members
                    if a != b and self.asg.relationship(a, b) is Relationship.PEER}
        return set()

    def _policy_tree(self, src, scope) -> Dict[Hashable, Tuple]:
        """Every destination's valley-free path from ``src`` within
        ``scope``: one layered BFS over (AS, phase) states, phase
        0=may-ascend, 1=descending.  A destination keeps the path of its
        first-discovered state, which is the path a search stopping at
        that destination returns."""
        perf.counter("inter.policy.bfs_trees")
        tree = {src: (src,)}
        allowed = self.subtree(scope) if scope is not None else None
        if allowed is not None and src not in allowed:
            return tree
        # _allowed_peer_pairs as a test on the step asn → peer: every peer
        # link unscoped, none inside a real AS, and inside a virtual AS
        # those between two members (asg.peers yields peer links only).
        members = scope.members if isinstance(scope, VirtualAS) else None
        asg = self.asg
        start = (src, 0)
        paths = {start: tree[src]}          # BFS-state paths, build-time only
        queue = deque([start])
        while queue:
            state = queue.popleft()
            asn, phase = state
            steps: List[Tuple[Hashable, int]] = []
            if phase == 0:
                steps.extend((p, 0) for p in asg.providers(asn))
                if scope is None:
                    steps.extend((peer, 1) for peer in asg.peers(asn))
                elif members is not None and asn in members:
                    steps.extend((peer, 1) for peer in asg.peers(asn)
                                 if peer in members)
            for customer in asg.customers(asn, include_backup=False):
                steps.append((customer, 1))
            path = paths[state]
            for step in steps:
                nxt = step[0]
                if step in paths or (allowed is not None
                                     and nxt not in allowed):
                    continue
                paths[step] = reached = path + (nxt,)
                tree.setdefault(nxt, reached)
                queue.append(step)
        return tree

    def shortcut_allowed(self, arrived_from: Optional[Hashable],
                         at_as: Hashable, pointer_route: Sequence[Hashable]) -> bool:
        """BGP-like import/export filtering for mid-route shortcuts.

        An AS that received the packet from a customer may relay it onto
        any of its pointers; one that received it from a peer or provider
        may only relay toward customers (the first hop of the shortcut's
        source route must be a down step)."""
        if arrived_from is None:
            return True
        inbound = self.step_type(arrived_from, at_as)
        if inbound == "up":
            # Previous hop's provider is us → the packet came from a
            # customer → free to relay anywhere.
            return True
        if len(pointer_route) < 2:
            return True
        return self.step_type(pointer_route[0], pointer_route[1]) == "down"

