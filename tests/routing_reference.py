"""The interdomain forwarding engine of commit ``8528c03``, before the
fused per-AS kernel — verbatim; never edit (or tidy) it.

There one AS hop cost 19.5 Python-level calls on the ``inter_5k`` shape:
``_route`` asked ``RoflAS.hosts_id`` (a ``FlatId``-keyed dict, hashed per
test) up to twice per AS, ``RoflAS.best_match`` → ``_pick_pointer`` →
``PolicyView.shortcut_allowed`` (→ ``step_type``, once per candidate) →
``_cache_match`` at every AS a packet crossed, ``validate_pointer``
(``as_is_up`` per AS of the route, through a generator) at every
decision, and ``as_is_up`` / ``step_type`` / ``perf.counter`` per hop.
``repro.inter`` now has one fused ``RoflAS.best_match`` and one tight
``routing._route`` loop; these are the answers they must agree with —
every outcome field, counter, cache statistic, LRU order, trace byte and
state hash, packet by packet
(``tests/test_inter_routing.py::TestReferenceEngine``).

The bodies below are that commit's (``inter/routing.py``,
``inter/asnode.py``, ``inter/network.py``), methods dedented; ``self`` is
the :class:`~repro.inter.asnode.RoflAS` (or, for ``validate_pointer``,
the :class:`~repro.inter.network.InterDomainNetwork`) under test.
:func:`installed` puts them back where they were for the length of a
``with`` block, so a network driven inside it runs the old engine end to
end.  ``validate_pointer`` keeps its ``from_as or pointer.owner_as``,
which only an AS numbered ``0`` (or named ``""``) tells apart from the
fixed ``is None`` test; the twin tests run on named ASes.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from typing import Hashable, List, Optional

from repro.idspace.identifier import FlatId
from repro.inter import routing
from repro.inter.asnode import MAX_SCAN, ASBestMatch, RoflAS
from repro.inter.network import InterDomainNetwork
from repro.inter.pointers import ASPointer, InterVirtualNode
from repro.inter.routing import MAX_POINTER_HOPS, InterOutcome
from repro.obs import trace
from repro.util import perf


def _route(net, start_as, dest_id, mode, scope, category, use_cache):
    tr = trace.packet_span("inter.packet", start=str(start_as),
                           dest=dest_id.to_hex(), mode=mode,
                           scope=str(scope) if scope is not None
                           else None) if trace.ENABLED else None
    space = net.space
    greedy_dest = dest_id if mode == "data" else space.make(dest_id.value - 1)

    current = start_as
    outcome = InterOutcome(delivered=False, reason="in-flight",
                           as_path=[start_as])
    committed: Optional[ASPointer] = None
    committed_step = 0
    committed_dist = space.size
    arrived_from: Optional[Hashable] = None

    while outcome.pointer_hops <= MAX_POINTER_HOPS:
        node = net.ases[current]

        if mode == "data" and node.hosts_id(dest_id):
            outcome.delivered = True
            outcome.reason = "delivered"
            outcome.final_vn = node.hosted[dest_id]
            net.stats.charge_path(outcome.as_path, category)
            if tr is not None:
                tr.end(delivered=True, reason="delivered",
                       router=str(current))
                trace.close_span(tr)
            return outcome

        if committed is not None and current == committed.dest_as \
                and not node.hosts_id(committed.dest_id):
            # NACK: stale pointer to an ID no longer hosted here; its
            # owner tears it down (an ID never moves between ASes, so there
            # is nowhere to re-route it to).  Routing restarts from this AS.
            owner = net.ases.get(committed.as_route[0])
            if owner is not None:
                owner.drop_pointer(committed)
                node.cache.invalidate_id(committed.dest_id)
            if tr is not None:
                tr.event("nack", router=str(current), action="teardown",
                         target=committed.dest_id.to_hex())
            committed = None
            committed_dist = space.size
            continue

        at_decision = committed is None or current == committed.dest_as
        if at_decision:
            match = node.best_match(net, greedy_dest, scope=scope,
                                    arrived_from=None, use_cache=use_cache)
            if match is None:
                outcome.reason = "no routing state"
                break
            if match.distance >= committed_dist and match.is_local:
                if mode == "lookup":
                    outcome.delivered = True
                    outcome.reason = "predecessor found"
                    outcome.final_vn = match.resident_vn
                    net.stats.charge_path(outcome.as_path, category)
                    if tr is not None:
                        tr.end(delivered=True, reason="predecessor found",
                               router=str(current))
                        trace.close_span(tr)
                    return outcome
                outcome.reason = "destination ID not found"
                break
            if match.distance >= committed_dist:
                outcome.reason = "no progress available"
                break
            if match.is_local:
                if tr is not None:
                    tr.decision(router=str(current), rule="local-adopt",
                                target=match.dest_id.to_hex(),
                                distance=match.distance)
                committed = None
                committed_dist = match.distance
                continue
            pointer = net.validate_pointer(node, match.pointer)
            if pointer is None:
                continue
            committed = pointer
            committed_step = 0
            committed_dist = match.distance
            outcome.pointer_hops += 1
            outcome.used_cache = outcome.used_cache or pointer.kind == "cache"
            if tr is not None:
                tr.decision(router=str(current), rule=pointer.trace_tag,
                            target=pointer.dest_id.to_hex(),
                            distance=match.distance)
            if pointer.n_hops == 0:
                # Zero-hop pointer: the target is hosted right here (but
                # was not an admissible local position, e.g. a non-member
                # in a scoped search) — adopt its position and re-decide.
                committed = None
                continue
        else:
            # Transit shortcut, gated by the BGP-like import rule.
            shortcut = node.best_match(net, greedy_dest, scope=scope,
                                       arrived_from=arrived_from,
                                       use_cache=use_cache)
            if shortcut is not None and shortcut.distance < committed_dist:
                if tr is not None:
                    tr.event("shortcut", router=str(current),
                             distance=shortcut.distance)
                committed = None
                continue

        next_as = committed.as_route[committed_step + 1]
        if not net.as_is_up(next_as):
            pointer = net.validate_pointer(node, committed, from_as=current)
            if tr is not None:
                tr.event("repair", router=str(current),
                         target=committed.dest_id.to_hex(),
                         repaired=pointer is not None)
            if pointer is None:
                committed = None
                committed_dist = space.size
                continue
            committed = pointer
            committed_step = 0
            next_as = committed.as_route[1]
        perf.counter("inter.fwd.hops")
        if net.policy.step_type(current, next_as) == "peer":
            outcome.crossed_peer = True
        outcome.as_path.append(next_as)
        if tr is not None:
            tr.hop(frm=str(current), to=str(next_as))
        arrived_from = current
        current = next_as
        committed_step += 1

    else:
        outcome.reason = "pointer hop limit exceeded (routing loop?)"

    outcome.delivered = False
    net.stats.charge_path(outcome.as_path, category)
    if tr is not None:
        tr.end(delivered=False, reason=outcome.reason, router=str(current))
        trace.close_span(tr)
    return outcome


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


def validate_pointer(self, node: RoflAS, pointer: ASPointer,
                     from_as: Optional[Hashable] = None
                     ) -> Optional[ASPointer]:
    start = from_as or pointer.owner_as
    route_ok = (pointer.as_route[0] == start
                and all(self.as_is_up(asn) for asn in pointer.as_route))
    if route_ok:
        return pointer
    target = self.id_owner_index.get(pointer.dest_id)
    if target is not None and self.as_is_up(target.home_as):
        new_route = self.policy.policy_path(start, target.home_as,
                                            scope=pointer.level)
        if new_route is None:
            new_route = self.policy.policy_path(start, target.home_as)
        if new_route is not None:
            return ASPointer(pointer.dest_id, target.home_as,
                             tuple(new_route), level=pointer.level,
                             kind=pointer.kind)
    owner = self.ases.get(pointer.owner_as)
    if owner is not None:
        owner.drop_pointer(pointer)
    if node is not owner:
        node.cache.invalidate_id(pointer.dest_id)
    return None


_MISSING = object()


@contextmanager
def installed():
    """Run the old engine: inside the block ``routing._route``,
    ``InterDomainNetwork.validate_pointer`` and the four ``RoflAS``
    lookups are the functions above."""
    patches = [
        (routing, "_route", _route),
        (RoflAS, "_vn_in_ring", _vn_in_ring),
        (RoflAS, "best_match", best_match),
        (RoflAS, "_pick_pointer", _pick_pointer),
        (RoflAS, "_cache_match", _cache_match),
        (InterDomainNetwork, "validate_pointer", validate_pointer),
    ]
    saved = [(owner, name, owner.__dict__.get(name, _MISSING))
             for owner, name, _ in patches]
    for owner, name, replacement in patches:
        setattr(owner, name, replacement)
    try:
        yield
    finally:
        for owner, name, original in saved:
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
