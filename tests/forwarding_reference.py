"""The pre-PR-19 intradomain forwarding engine, verbatim but for the
sanctioned changes below — never edit (or tidy) it.

Sanctioned, PR 22 (snapshot schema 3): two reads of things that no longer
exist.  ``_route`` took a hop's latency from a networkx ``EdgeView``
(``lsmap.live_graph.edges[a, b]["latency_ms"]``) and now reads the live
map's own adjacency (``lsmap.adjacency[a][b]``, the same float); and
``vn_best_match`` skipped a resident VN that was ``ephemeral or joining``
— ``VirtualNode.joining`` was constant ``False`` since PR 21 and left
with the schema bump, so the test reads ``ephemeral`` alone.

Sanctioned, PR 21 (ROADMAP item 1(a)): the parent's walk
adopted a *zero-hop* pointer's ring position without asking whether its
target was still resident, so a stale same-router successor entry stalled
every walk that chose it.  ``_route``'s zero-hop branch now asks
``router.hosts_id(pointer.dest_id)`` — the condition ``forwarding._route``
tests as ``pointer.dest_id.value in resident`` — and otherwise leaves the
pointer committed for the NACK branch.  That ``if`` and the two reads
above are the only lines that differ from the parent's file.

Until PR 19 one physical hop cost 28 Python-level calls: ``_route`` asked
``RoflRouter.best_match`` → ``vn_best_match`` (``flush`` / ``columns`` /
``rank_right``, ``_sync`` twice) → ``cache_best_match`` →
``PointerCache.best_match`` → ``SortedRingMap.predecessor`` at every
router a packet crossed, built up to two ``BestMatch`` dataclasses, and
read link state and latency through ``is_link_up`` and a networkx
``EdgeView``; ``_fill_caches`` re-scanned the control path once per
``(target, router)`` through ``_route_toward``.  ``repro.intra`` now has
one fused ``RoflRouter.best_match``, one tight ``forwarding._route`` loop
and a one-pass ``ring._fill_caches``; these are the answers they must
agree with — every outcome field, counter, cache statistic, LRU order,
trace byte and state hash, packet by packet
(``tests/test_intra_forwarding.py::TestReferenceEngine``).

The bodies below are the parent commit's (``intra/router.py``,
``util/ringmap.py``, ``intra/forwarding.py``, ``intra/ring.py``), methods
dedented; ``self`` is the :class:`~repro.intra.router.RoflRouter` (or,
for ``rank_right``, the :class:`~repro.util.ringmap.ColumnarRingIndex`)
under test.  :func:`installed` puts them back where the parent had them
for the length of a ``with`` block, so a network driven inside it runs
the parent's engine end to end.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.idspace.identifier import FlatId
from repro.intra import forwarding, ring
from repro.intra.forwarding import MAX_POINTER_HOPS, ForwardingOutcome
from repro.intra.router import RoflRouter
from repro.intra.virtualnode import Pointer, VirtualNode
from repro.obs import trace
from repro.util import perf
from repro.util.ringmap import ColumnarRingIndex

if TYPE_CHECKING:  # pragma: no cover
    from repro.intra.network import IntraDomainNetwork


@dataclass
class BestMatch:
    """Result of a router's local best-match evaluation."""

    dest_id: FlatId
    #: ``None`` when the match is a locally resident ID (no hop needed).
    pointer: Optional[Pointer]
    resident_vn: Optional[VirtualNode]
    distance: int

    @property
    def is_local(self) -> bool:
        return self.resident_vn is not None



def rank_right(self, key: int) -> int:
    """``bisect_right`` position of ``key`` in the synced column."""
    self._sync()
    return bisect.bisect_right(self._keys, key)


def vn_best_match(self, dest: FlatId,
                  include_ephemeral: bool = True) -> Optional[BestMatch]:
    """``VN.best_match``: the closest ID to ``dest`` (not past it) among
    all resident IDs, their successor groups, and parked ephemeral IDs.

    "Closest, not past" on a circle is the candidate minimising the
    clockwise distance to the destination; the scan below runs
    entirely on raw int values (no ``FlatId`` allocation per hop).
    """
    index = self._candidates.flush()
    ivalues, candidates = index.columns()
    n = len(ivalues)
    if not n:
        return None
    dest_iv = dest.value
    mask = self.space.mask
    start = (index.rank_right(dest_iv) - 1) % n
    for offset in range(n):
        position = (start - offset) % n
        iv = ivalues[position]
        cand = candidates[position]
        vn = cand.vn
        if vn is not None and (include_ephemeral
                               or not vn.ephemeral):
            return BestMatch(vn.id, None, vn, (dest_iv - iv) & mask)
        if cand.ptrs:
            first = cand.ptrs[0]
            if include_ephemeral or not first[3]:
                ptr = first[2]
                return BestMatch(ptr.dest_id, ptr, None,
                                 (dest_iv - iv) & mask)
    return None


def cache_best_match(self, dest: FlatId,
                     better_than: Optional[int] = None) -> Optional[BestMatch]:
    """``PC.best_match``, returned only if strictly better (closer to
    ``dest``) than ``better_than``."""
    ptr = self.cache.best_match(dest)
    if ptr is None:
        if trace.ENABLED:
            trace.event_in_current("cache.miss", router=self.name,
                                   dest=dest.to_hex())
        return None
    dist = self.space.distance_cw_i(ptr.dest_id.value, dest.value)
    if better_than is not None and dist >= better_than:
        if trace.ENABLED:
            trace.event_in_current("cache.reject", router=self.name,
                                   dest=dest.to_hex(),
                                   target=ptr.dest_id.to_hex())
        return None
    if trace.ENABLED:
        trace.event_in_current("cache.hit", router=self.name,
                               dest=dest.to_hex(),
                               target=ptr.dest_id.to_hex())
    return BestMatch(ptr.dest_id, ptr, None, dist)

def best_match(self, dest: FlatId,
               include_ephemeral: bool = True) -> Optional[BestMatch]:
    """Combined Algorithm 2 decision: VN state first, cache shortcut if
    it is numerically closer (lines 5–10)."""
    vn_match = self.vn_best_match(dest, include_ephemeral=include_ephemeral)
    threshold = vn_match.distance if vn_match is not None else None
    cache_match = self.cache_best_match(dest, better_than=threshold)
    return cache_match or vn_match


def _route(net, start_router, dest_id, mode, category):
    tr = trace.packet_span("intra.packet", start=start_router,
                           dest=dest_id.to_hex(),
                           mode=mode) if trace.ENABLED else None
    space = net.space
    include_ephemeral = mode == "data"
    # Lookups aim at the spot just before the target so greedy routing
    # converges on the target's predecessor even if the target exists.
    greedy_dest = dest_id if mode == "data" else space.make(dest_id.value - 1)

    current = start_router
    outcome = ForwardingOutcome(delivered=False, reason="in-flight",
                                path=[start_router])
    committed: Optional[Pointer] = None
    committed_step = 0
    committed_dist = space.size  # +infinity: any real candidate beats it

    while outcome.pointer_hops <= MAX_POINTER_HOPS:
        router = net.routers[current]

        if mode == "data" and router.hosts_id(dest_id):
            outcome.delivered = True
            outcome.reason = "delivered"
            outcome.final_vn = router.vn_table[dest_id]
            net.stats.charge_path(outcome.path, category)
            if tr is not None:
                tr.end(delivered=True, reason="delivered", router=current)
                trace.close_span(tr)
            return outcome

        if committed is not None and current == committed.hosting_router \
                and not router.hosts_id(committed.dest_id):
            # NACK: the source route was live but its target ID is not
            # here — a stale pointer beyond the teardown/move notification
            # window.  Invariant (b) is enforced lazily: if the ID now
            # lives elsewhere (host moved), the owner re-routes its
            # pointer; if it is gone, the owner deletes it.  Either way,
            # routing restarts from this router.
            owner = net.routers.get(committed.path[0])
            target_vn = net.vn_index.get(committed.dest_id)
            if (target_vn is not None
                    and net.lsmap.is_router_up(target_vn.router)
                    and net.routers[target_vn.router].hosts_id(committed.dest_id)):
                new_path = net.paths.hop_path(committed.path[0],
                                              target_vn.router)
                if owner is not None and new_path is not None:
                    owner.reroute_pointer(committed,
                                          committed.rerouted(tuple(new_path)))
                if tr is not None:
                    tr.event("nack", router=current, action="reroute",
                             target=committed.dest_id.to_hex())
            else:
                if owner is not None:
                    owner.drop_pointer(committed)
                router.cache.invalidate_id(committed.dest_id)
                if tr is not None:
                    tr.event("nack", router=current, action="teardown",
                             target=committed.dest_id.to_hex())
            committed = None
            committed_dist = space.size
            continue

        if committed is None or current == committed.hosting_router:
            # Decision point: (re-)run Algorithm 2 at this router.
            match = router.best_match(greedy_dest,
                                      include_ephemeral=include_ephemeral)
            if match is None:
                outcome.reason = "no routing state"
                break
            if match.distance >= committed_dist and match.is_local:
                # The closest ID we know is resident right here: this VN is
                # the destination's predecessor.
                if mode == "lookup":
                    outcome.delivered = True
                    outcome.reason = "predecessor found"
                    outcome.final_vn = match.resident_vn
                    net.stats.charge_path(outcome.path, category)
                    if tr is not None:
                        tr.end(delivered=True, reason="predecessor found",
                               router=current)
                        trace.close_span(tr)
                    return outcome
                outcome.reason = "destination ID not found"
                break
            if match.distance >= committed_dist:
                outcome.reason = "no progress available"
                break
            if match.is_local:
                # A resident ID strictly closer than anything committed:
                # adopt its position and re-evaluate (its successors are
                # now candidates).
                if mode == "lookup" and _overshoots_all(net, match.resident_vn,
                                                        greedy_dest):
                    outcome.delivered = True
                    outcome.reason = "predecessor found"
                    outcome.final_vn = match.resident_vn
                    net.stats.charge_path(outcome.path, category)
                    if tr is not None:
                        tr.end(delivered=True, reason="predecessor found",
                               router=current)
                        trace.close_span(tr)
                    return outcome
                if tr is not None:
                    tr.decision(router=current, rule="local-adopt",
                                target=match.resident_vn.id.to_hex(),
                                distance=match.distance)
                committed = None
                committed_dist = match.distance
                continue
            pointer = net.validate_pointer(router, match.pointer)
            if pointer is None:
                # Stale source route with unreachable target: the pointer
                # was torn down; re-evaluate with it gone.
                continue
            committed = pointer
            committed_step = 0
            committed_dist = match.distance
            outcome.pointer_hops += 1
            outcome.used_cache = outcome.used_cache or pointer.kind == "cache"
            if tr is not None:
                tr.decision(router=current, rule=pointer.kind,
                            target=pointer.dest_id.to_hex(),
                            distance=match.distance)
            if pointer.n_hops == 0:
                # Zero-hop pointer: the target ID is resident at this very
                # router — adopt its ring position and re-decide locally.
                if router.hosts_id(pointer.dest_id):
                    committed = None
                continue
        else:
            # Mid-source-route routers may shortcut onto a strictly closer
            # cached pointer (Section 4.1, "shortcuts if it observes a
            # cached pointer is numerically closer").
            shortcut = router.best_match(greedy_dest,
                                         include_ephemeral=include_ephemeral)
            if shortcut is not None and shortcut.distance < committed_dist:
                if tr is not None:
                    tr.event("shortcut", router=current,
                             distance=shortcut.distance)
                committed = None
                continue

        # Take one physical hop along the committed source route.
        next_router = committed.path[committed_step + 1]
        if not net.lsmap.is_link_up(current, next_router):
            # The route broke under us; repair from here or tear down.
            pointer = net.validate_pointer(router, committed, from_router=current)
            if tr is not None:
                tr.event("repair", router=current,
                         target=committed.dest_id.to_hex(),
                         repaired=pointer is not None)
            if pointer is None:
                committed = None
                committed_dist = space.size
                continue
            committed = pointer
            committed_step = 0
            next_router = committed.path[1]
        perf.counter("fwd.hops")
        outcome.latency_ms += net.lsmap.adjacency[current][next_router]
        outcome.path.append(next_router)
        if tr is not None:
            tr.hop(frm=current, to=next_router)
        current = next_router
        committed_step += 1

    else:
        outcome.reason = "pointer hop limit exceeded (routing loop?)"

    outcome.delivered = False
    net.stats.charge_path(outcome.path, category)
    if tr is not None:
        tr.end(delivered=False, reason=outcome.reason, router=current)
        trace.close_span(tr)
    return outcome


def _overshoots_all(net: "IntraDomainNetwork", vn: VirtualNode,
                    greedy_dest: FlatId) -> bool:
    """True when none of ``vn``'s own pointers make further progress —
    i.e. ``vn`` is the greedy destination's predecessor."""
    mask = net.space.mask
    dest_iv = greedy_dest.value
    here = (dest_iv - vn.id.value) & mask
    for ptr in vn.successors:
        if ((dest_iv - ptr.dest_id.value) & mask) < here:
            return False
    return True


def _fill_caches(net: "IntraDomainNetwork", path: Sequence[str],
                 ids: List[FlatId], force: bool = False) -> None:
    """Populate pointer caches along a control path.

    For each ID named by the control message, every router on the path
    caches a source route toward that ID's hosting router — using the
    suffix of the control path when the hosting router lies ahead, which
    is "contents available from control packets" only (Section 6.1).
    ``force`` bypasses the control-fill switch (used by the data-packet
    snooping option, which is governed separately).
    """
    if not net.cache_fill_enabled and not force:
        return
    for target in ids:
        vn = net.vn_index.get(target)
        if vn is None:
            continue
        for i, router_name in enumerate(path):
            if router_name == vn.router:
                continue
            suffix = _route_toward(net, path, i, vn.router)
            if suffix is None:
                continue
            net.routers[router_name].cache.put(
                Pointer(target, tuple(suffix), "cache"))
            vn.cached_at.add(router_name)


def _route_toward(net: "IntraDomainNetwork", path: Sequence[str], index: int,
                  hosting_router: str) -> Optional[List[str]]:
    """A source route from ``path[index]`` to ``hosting_router``: the path
    suffix when the hosting router lies further along the control path,
    otherwise the reversed prefix (the message came from there)."""
    for j in range(index + 1, len(path)):
        if path[j] == hosting_router:
            return list(path[index:j + 1])
    for j in range(index - 1, -1, -1):
        if path[j] == hosting_router:
            return list(reversed(path[j:index + 1]))
    return None


_MISSING = object()


@contextmanager
def installed():
    """Run the parent's engine: inside the block ``forwarding._route``,
    ``ring._fill_caches``, the three ``RoflRouter`` lookups and
    ``ColumnarRingIndex.rank_right`` are the functions above."""
    patches = [
        (forwarding, "_route", _route),
        (ring, "_fill_caches", _fill_caches),
        (RoflRouter, "vn_best_match", vn_best_match),
        (RoflRouter, "cache_best_match", cache_best_match),
        (RoflRouter, "best_match", best_match),
        (ColumnarRingIndex, "rank_right", rank_right),
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
