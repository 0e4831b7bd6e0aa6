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
from typing import Dict, Hashable, List, Optional, TYPE_CHECKING

from repro.idspace.identifier import FlatId, RingSpace
from repro.inter.pointers import ASPointer, InterVirtualNode
from repro.intra.pointercache import PointerCache
from repro.obs import trace
from repro.util.bloom import BloomFilter
from repro.util.ringmap import CandidateIndex

if TYPE_CHECKING:  # pragma: no cover
    from repro.inter.network import InterDomainNetwork

#: Ring positions :meth:`RoflAS.best_match` walks back from the
#: destination before it gives up on finding an admissible candidate.
MAX_SCAN = 512


@dataclass
class ASBestMatch:
    """One greedy decision at an AS."""

    dest_id: FlatId
    pointer: Optional[ASPointer]
    resident_vn: Optional[InterVirtualNode]
    distance: int

    @property
    def is_local(self) -> bool:
        return self.resident_vn is not None


def _contributed(vn: InterVirtualNode) -> List[tuple]:
    """The pointers ``vn`` adds to its AS's index besides its own ID, in
    table order."""
    return [(ptr,) for ptr in vn.candidate_pointers()]


class RoflAS:
    """One AS running interdomain ROFL."""

    def __init__(self, asn: Hashable, space: RingSpace,
                 cache_entries: int = 0, bloom_bits: int = 1 << 14):
        self.asn = asn
        self.space = space
        self.hosted: Dict[FlatId, InterVirtualNode] = {}
        self.cache = PointerCache(space, cache_entries)
        #: Hosts joined at or below this AS ("bloom filters that summarize
        #: the set of hosts in the subtree rooted at the AS").
        self.subtree_bloom = BloomFilter(n_bits=bloom_bits, n_hashes=4)
        self._build_candidates()

    def _build_candidates(self) -> None:
        self._candidates = CandidateIndex(self.space, "asnode", _contributed)
        for vn in self.hosted.values():
            self._candidates.add_owner(vn)

    # -- serialization ------------------------------------------------------------

    def __getstate__(self):
        """The candidate index is derived from ``hosted`` and rebuilt on
        load, like SPF/BGP caches: which ASes happened to flush, and how
        often, depends on read traffic, not on routing state."""
        state = self.__dict__.copy()
        del state["_candidates"]
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

    def mark_dirty(self, vn: Optional[InterVirtualNode] = None) -> None:
        """Note a pointer-state change; with ``vn`` given only that VN's
        contribution is re-diffed on the next lookup."""
        self._candidates.mark_dirty(vn)

    def flush_index(self) -> None:
        """Apply any pending index maintenance now instead of lazily on
        the next lookup — benchmarks call this between their join and
        send phases so deferred flush storms are charged to the phase
        that caused them."""
        self._candidates.flush()

    @staticmethod
    def _vn_in_ring(vn: InterVirtualNode, scope: Optional[Hashable]) -> bool:
        """Ring membership: an ID belongs to a level's merged ring iff it
        joined that level (its home ring always counts)."""
        if scope is None:
            return True
        return scope == vn.home_as or scope in vn.joined_levels

    def best_match(self, net: "InterDomainNetwork", dest: FlatId,
                   scope: Optional[Hashable] = None,
                   arrived_from: Optional[Hashable] = None,
                   use_cache: bool = True) -> Optional[ASBestMatch]:
        """The closest admissible candidate to ``dest`` (not past it).

        Admissibility: scoped searches only see ring members / pointers
        formed at levels inside the scope (Algorithm 3's pruning); transit
        shortcuts (``arrived_from`` set) must obey the BGP-like import
        rule; cached pointers additionally pass the bloom-filter isolation
        guard and lose to equally good non-cache state.
        """
        ivalues, entries = self._candidates.columns()
        n = len(ivalues)
        best: Optional[ASBestMatch] = None
        if n:
            dest_iv = dest.value
            mask = self.space.mask
            start = (bisect_right(ivalues, dest_iv) - 1) % n
            for offset in range(min(n, MAX_SCAN)):
                position = (start - offset) % n
                iv = ivalues[position]
                entry = entries[position]
                vn = entry.vn
                if vn is not None and self._vn_in_ring(vn, scope):
                    best = ASBestMatch(vn.id, None, vn, (dest_iv - iv) & mask)
                    break
                pointer = self._pick_pointer(net, entry.ptrs, scope,
                                             arrived_from)
                if pointer is not None:
                    best = ASBestMatch(pointer.dest_id, pointer, None,
                                       (dest_iv - iv) & mask)
                    break
        if use_cache:
            cached = self._cache_match(net, dest, scope, arrived_from,
                                       best.distance if best else None)
            if cached is not None:
                return cached
        return best

    def _pick_pointer(self, net: "InterDomainNetwork",
                      ptr_entries: List[tuple], scope: Optional[Hashable],
                      arrived_from: Optional[Hashable]) -> Optional[ASPointer]:
        for entry in ptr_entries:
            ptr = entry[2]
            if scope is not None and ptr.kind == "finger":
                # Scoped (join-time) searches walk the successor structure
                # only: a finger may target an ID that is not a member of
                # the ring being merged (its level records the owner's
                # isolation constraint, not the target's membership).
                continue
            if scope is not None and ptr.level is not None \
                    and not net.policy.level_contained_in(ptr.level, scope):
                continue
            if scope is not None and ptr.level is None \
                    and not net.policy.level_contains(scope, ptr.dest_as):
                continue
            if arrived_from is not None and not net.policy.shortcut_allowed(
                    arrived_from, self.asn, ptr.as_route):
                if trace.ENABLED:
                    trace.event_in_current("policy.filter", asn=str(self.asn),
                                           target=ptr.dest_id.to_hex(),
                                           rule=ptr.trace_tag)
                continue
            return ptr
        return None

    def _cache_match(self, net: "InterDomainNetwork", dest: FlatId,
                     scope: Optional[Hashable],
                     arrived_from: Optional[Hashable],
                     better_than: Optional[int]) -> Optional[ASBestMatch]:
        if len(self.cache) == 0 or scope is not None:
            # Scoped (join-time) searches never use caches — they would
            # escape the hierarchy level being merged.
            return None
        # Bloom-filter isolation guard: if the destination is (apparently)
        # below this AS, the cache must not be used — a cached shortcut
        # could pull intra-subtree traffic up through a provider.
        if dest in self.subtree_bloom:
            if trace.ENABLED:
                trace.event_in_current("cache.bloom-guard",
                                       asn=str(self.asn),
                                       dest=dest.to_hex())
            return None
        ptr = self.cache.best_match(dest)
        if ptr is None:
            if trace.ENABLED:
                trace.event_in_current("cache.miss", asn=str(self.asn),
                                       dest=dest.to_hex())
            return None
        dist = self.space.distance_cw_i(ptr.dest_id.value, dest.value)
        if better_than is not None and dist >= better_than:
            if trace.ENABLED:
                trace.event_in_current("cache.reject", asn=str(self.asn),
                                       dest=dest.to_hex(),
                                       target=ptr.dest_id.to_hex())
            return None
        if arrived_from is not None and not net.policy.shortcut_allowed(
                arrived_from, self.asn, ptr.as_route):
            if trace.ENABLED:
                trace.event_in_current("policy.filter", asn=str(self.asn),
                                       target=ptr.dest_id.to_hex(),
                                       rule="cache")
            return None
        if trace.ENABLED:
            trace.event_in_current("cache.hit", asn=str(self.asn),
                                   dest=dest.to_hex(),
                                   target=ptr.dest_id.to_hex())
        return ASBestMatch(ptr.dest_id, ptr, None, dist)

    # -- upkeep -------------------------------------------------------------------

    def drop_pointer(self, pointer: ASPointer) -> None:
        self.cache.invalidate_id(pointer.dest_id)
        for vn in self.hosted.values():
            if vn.drop_dead_targets((pointer.dest_id,)):
                self.mark_dirty(vn)

    def state_entries(self, include_cache: bool = True) -> int:
        total = sum(vn.state_entries() for vn in self.hosted.values())
        if include_cache:
            total += len(self.cache)
        return total

    def __repr__(self) -> str:
        return "RoflAS({!r}, hosted={}, cache={})".format(
            self.asn, len(self.hosted), len(self.cache))
