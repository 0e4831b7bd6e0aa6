"""The per-AS aggregated routing state (the paper models each AS as a
single node in its interdomain simulations; Section 6.1).

An AS node aggregates the pointer state of every identifier it hosts,
keeps the AS-level pointer cache with its bloom-filter isolation guard
(Section 4.1), and the bloom filter summarising the hosts in its subtree
(consulted by the peering machinery of Section 4.2).

The aggregated candidate index is maintained *incrementally* by
:class:`repro.util.ringmap.CandidateIndex`: ``mark_dirty(vn)`` re-diffs
only that VN on the next lookup.  Index maintenance is the single hottest
path of interdomain joins; see ``repro.util.perf``'s ``asnode.index.*``
counters.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple, TYPE_CHECKING, Union

from repro.idspace.identifier import FlatId, RingSpace
from repro.inter.pointers import ASPointer, InterVirtualNode
from repro.inter.policy import level_within
from repro.intra.pointercache import PointerCache
from repro.obs import trace
from repro.util.bloom import BloomFilter
from repro.util.ringmap import CandidateIndex

if TYPE_CHECKING:  # pragma: no cover
    from repro.inter.network import InterDomainNetwork

#: Ring positions :meth:`RoflAS.best_match` walks back from the
#: destination before it gives up on finding an admissible candidate.
MAX_SCAN = 512
#: Width of every AS's subtree Bloom filter: one geometry network-wide,
#: so a join hashes an ID once for all its ancestors.
BLOOM_BITS = 1 << 14


@dataclass
class ASBestMatch:
    """One greedy decision at an AS."""

    dest_id: FlatId
    pointer: Optional[ASPointer]
    resident_vn: Optional[InterVirtualNode]
    distance: int
    cached: bool = False    # the pointer stands for a cache entry
    finger: bool = False    # the pointer is a proximity finger

    @property
    def is_local(self) -> bool:
        return self.resident_vn is not None


def ring_rule(pointer: ASPointer, finger: bool) -> str:
    """How a ring pointer makes greedy progress, as traces tag it: a
    finger, an internal successor, or one formed at an outer level."""
    if finger:
        return "finger"
    return "successor" if pointer.level is None else "external-successor"


#: The rider of a finger's index entry: ``(owner_seq, rank, pointer, True)``.
_FINGER = (True,)


def _contributed(vn: InterVirtualNode) -> Tuple[tuple, tuple]:
    """The candidates ``vn`` adds to its AS's index besides its own ID, as
    ``(rider, pointers)`` groups: its successors, bare, then its fingers,
    flagged (a successor level gained moves no finger's slot).  The flag
    is the longer entry: one more item on every successor entry cost
    ``inter_5k`` a tenth of its send rate."""
    return ((), vn.succ_by_level.values()), (_FINGER, vn.fingers)


class RoflAS:
    """One AS running interdomain ROFL."""

    def __init__(self, asn: Hashable, space: RingSpace,
                 cache_entries: int = 0):
        self.asn = asn
        self.space = space
        self.hosted: Dict[FlatId, InterVirtualNode] = {}
        self.cache = PointerCache(space, cache_entries)
        #: Hosts joined at or below this AS ("bloom filters that summarize
        #: the set of hosts in the subtree rooted at the AS").
        self.subtree_bloom = BloomFilter(n_bits=BLOOM_BITS, n_hashes=4)
        self._build_candidates()

    def _build_candidates(self) -> None:
        self._candidates = CandidateIndex(self.space, "asnode", _contributed)
        #: ``hosted`` keyed by raw int value (the index's owner map, kept in
        #: lock-step by host/unhost): the routing loop's residency test,
        #: with no ``FlatId`` hashed per AS.
        self.resident: Dict[int, InterVirtualNode] = self._candidates.owners
        for vn in self.hosted.values():
            self._candidates.add_owner(vn)

    # -- serialization ------------------------------------------------------------

    def __getstate__(self):
        """The candidate index (and ``resident``, its owner map) is derived
        from ``hosted`` and rebuilt on load, like SPF/BGP caches: which ASes
        happened to flush, and how often, depends on read traffic, not on
        routing state."""
        state = self.__dict__.copy()
        del state["_candidates"], state["resident"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._build_candidates()

    # -- hosting -----------------------------------------------------------------

    def host(self, vn: InterVirtualNode) -> None:
        if vn.id in self.hosted:
            raise ValueError("ID {} already hosted at {}".format(vn.id, self.asn))
        if vn.home_as != self.asn:
            raise ValueError("virtual node belongs to another AS")
        self.hosted[vn.id] = vn
        self._candidates.add_owner(vn)

    def unhost(self, vn_id: FlatId) -> InterVirtualNode:
        vn = self.hosted.pop(vn_id)
        self._candidates.remove_owner(vn)
        return vn

    def hosts_id(self, vn_id: FlatId) -> bool:
        return vn_id in self.hosted

    # -- the aggregated candidate index ----------------------------------------------

    def mark_dirty(self, vn: InterVirtualNode) -> None:
        """Note a change to ``vn``'s pointer state: only that VN's
        contribution is re-diffed on the next lookup."""
        self._candidates.mark_dirty(vn)

    def flush_index(self) -> None:
        """Apply any pending index maintenance now instead of lazily on
        the next lookup — benchmarks call this between their join and
        send phases so deferred flush storms are charged to the phase
        that caused them."""
        self._candidates.flush()

    def best_match(self, net: "InterDomainNetwork", dest: FlatId,
                   scope: Optional[Hashable] = None,
                   arrived_from: Optional[Hashable] = None,
                   closer_than: Optional[int] = None
                   ) -> Union[ASBestMatch, int, None]:
        """Algorithm 2 at AS granularity in one call, in the int domain: the
        closest admissible candidate to ``dest`` (not past it) among the
        hosted IDs and their pointers, then the cache if strictly closer.

        Admissibility: scoped searches see ring members and successor
        pointers formed inside the scope (Algorithm 3's pruning); a packet
        that came from a peer or provider (``arrived_from``) may only be
        relayed onto a route that starts downward (the BGP-like import
        rule); a cached pointer must pass the bloom isolation guard.

        Returns an :class:`ASBestMatch`, or ``None``; a cache win is the
        one place an :class:`ASPointer` is built, from the entry's ID int
        and route.  With ``closer_than`` (a transit AS) it
        is the winning distance if strictly below that bound, else
        ``None``, and nothing is built.  Either way an unscoped
        lookup probes a non-empty cache as
        :meth:`PointerCache.best_match` would (``hits`` and the LRU touch
        are serialized state).
        """
        dest_iv = dest.value
        policy = net.policy
        asn = self.asn
        # Whether the import rule lets every pointer through (the packet
        # came from a customer); asked once, when a pointer is first tried.
        free = True if arrived_from is None else None
        ivalues, entries = self._candidates.columns()
        vn = pointer = distance = cached_iv = inside = None
        # The entry at or right before ``dest`` in sorted order (index -1
        # wraps); walk back past inadmissible ones, MAX_SCAN at most.
        position = bisect_right(ivalues, dest_iv) - 1
        stop = position - min(len(ivalues), MAX_SCAN)
        while position > stop:
            entry = entries[position]
            here = entry.vn
            if here is not None and (scope is None or scope == here.home_as
                                     or scope in here.joined_levels):
                vn = here
                break
            for cand in entry.ptrs:
                ptr = cand[2]
                # Scoped (join-time) searches walk successors only: a
                # finger's level records its owner's isolation constraint,
                # not its target's ring membership.  A successor is in
                # scope when its level's subtree is, an internal one's
                # level being its target AS.
                if scope is not None:
                    if len(cand) > 3:
                        continue
                    if inside is None:    # once per call, not per pointer
                        inside = policy.subtree(scope)
                    level = ptr.level
                    if not level_within(ptr.as_route[-1] if level is None
                                        else level, inside):
                        continue
                if free is None:
                    free = policy.step_type(arrived_from, asn) == "up"
                route = ptr.as_route
                if not free and len(route) > 1 \
                        and policy.step_type(route[0], route[1]) != "down":
                    if trace.ENABLED:
                        trace.event_in_current(
                            "policy.filter", asn=str(asn),
                            target=ptr.dest_id.to_hex(),
                            rule=ring_rule(ptr, len(cand) > 3))
                    continue
                pointer, finger = ptr, len(cand) > 3
                break
            if pointer is not None:
                break
            position -= 1
        mask = self.space.mask
        if vn is not None or pointer is not None:
            distance = (dest_iv - ivalues[position]) & mask

        cache = self.cache
        cached = cache._ivalues   # its sorted key column, no call
        # Scoped (join-time) searches never use caches: they would escape
        # the level being merged.  Nor may a destination (apparently) below
        # this AS: a cached shortcut could pull its traffic up a provider.
        if scope is None and cached:
            if dest in self.subtree_bloom:
                if trace.ENABLED:
                    trace.event_in_current("cache.bloom-guard", asn=str(asn),
                                           dest=dest.to_hex())
            else:
                probed = cached[bisect_right(cached, dest_iv) - 1]
                cache.hits += 1
                cache._lru.move_to_end(probed)
                route = cache._lru[probed]
                cached_dist = (dest_iv - probed) & mask
                if distance is not None and cached_dist >= distance:
                    event = "cache.reject"
                elif len(route) > 1 and not (free or policy.step_type(
                        arrived_from, asn) == "up") \
                        and policy.step_type(route[0], route[1]) != "down":
                    event = "policy.filter"
                else:
                    event = "cache.hit"
                    vn, cached_iv, distance = None, probed, cached_dist
                if trace.ENABLED:
                    target = self.space.make(probed).to_hex()
                    if event == "policy.filter":
                        trace.event_in_current(event, asn=str(asn),
                                               target=target, rule="cache")
                    else:
                        trace.event_in_current(event, asn=str(asn),
                                               dest=dest.to_hex(),
                                               target=target)

        if closer_than is not None:
            return distance if distance is not None \
                and distance < closer_than else None
        if cached_iv is not None:
            dest_id = self.space.make(cached_iv)
            return ASBestMatch(dest_id, ASPointer(dest_id, route), None,
                               distance, cached=True)
        if pointer is not None:
            return ASBestMatch(pointer.dest_id, pointer, None, distance,
                               finger=finger)
        return None if vn is None else ASBestMatch(vn.id, None, vn, distance)

    # -- upkeep -------------------------------------------------------------------

    def drop_pointer(self, pointer: ASPointer) -> None:
        self.cache.invalidate_id(pointer.dest_id)
        for vn in self.hosted.values():
            if vn.drop_dead_targets((pointer.dest_id,)):
                self.mark_dirty(vn)

    def state_entries(self) -> int:
        return (sum(vn.state_entries() for vn in self.hosted.values())
                + len(self.cache))

    def __repr__(self) -> str:
        return "RoflAS({!r}, hosted={}, cache={})".format(
            self.asn, len(self.hosted), len(self.cache))
