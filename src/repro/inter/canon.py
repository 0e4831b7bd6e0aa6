"""Canon-style hierarchical joining (Section 4.1, Algorithm 3).

An identifier joins its home ring, then — level by level, innermost
first — the merged ring of every hierarchy level its strategy covers.
Per level the join is: a scoped predecessor lookup (greedy routing pruned
to the level's subtree), the response, and the setup/ack exchange with
the discovered successor.  Two paper optimisations are implemented:

* **condition (b)** — a successor pointer is only *stored* when it
  differs from the successor already known at an inner level ("It then
  removes unnecessary successors"), keeping per-ID state O(log n);
* **redundant-lookup elimination** — "we leveraged this observation to
  optimize the multi-homed join, by eliminating redundant lookups that
  resolve to the same successor": when the level's successor is already
  known, only a short confirmation exchange is charged.

The module also maintains the per-level ring registry, which is the
*verification oracle*: the honest (message-charged) lookup walks must
agree with it, and every disagreement is counted in
``net.lookup_mismatches`` (asserted zero by the test-suite).

It is the one place an interdomain pointer is formed and a level ring
spliced: :func:`pointer_to` chooses every pointer's AS route (join,
repair, fingers and revalidation alike, with the entry rule of
single-homed IDs), :func:`link` points one member at the next and back,
and :func:`splice_out` closes the gap a departed ID leaves — the join
links twice per level, a stub failure splices out once per (ID, level).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, TYPE_CHECKING

from repro.idspace.crypto import authenticate
from repro.idspace.identifier import FlatId
from repro.inter import fingers, routing
from repro.inter.pointers import ASPointer, InterVirtualNode
from repro.inter.policy import JoinStrategy
from repro.topology.hosts import PlannedHost
from repro.util import perf

if TYPE_CHECKING:  # pragma: no cover
    from repro.inter.network import InterDomainNetwork

#: Messages charged for a dedup'd level: the confirmation probe to the
#: already-known successor and its answer.
CONFIRMATION_COST = 2

_SINGLE_HOMED = JoinStrategy.SINGLE_HOMED.value


class InterJoinError(Exception):
    """An interdomain join could not complete."""


@dataclass
class InterJoinReceipt:
    host_name: str
    flat_id: FlatId
    home_as: Hashable
    strategy: str
    messages: int
    levels_joined: int
    fingers: int


def join_inter(net: "InterDomainNetwork", host: PlannedHost,
               strategy: JoinStrategy,
               via_provider: Optional[Hashable] = None,
               flat_id_override: Optional[FlatId] = None) -> InterJoinReceipt:
    """Join one host's identifier across its hierarchy (Fig 8a workload).

    ``via_provider`` pins a single-homed join's first up-hop (the
    traffic-engineering knob of Section 5.1); ``flat_id_override`` joins a
    group identifier ``(G, x)`` instead of the hash-of-public-key ID (the
    group's shared key authenticates the join).
    """
    home = host.attach_at
    if not net.as_is_up(home):
        raise InterJoinError("home AS {} is down".format(home))
    if flat_id_override is None:
        challenge = "inter:{}:{}".format(home, host.name).encode("utf-8")
        flat_id = authenticate(host.key_pair.prove_ownership(challenge),
                               net.authority)
    else:
        flat_id = flat_id_override
    if flat_id in net.id_owner_index:
        raise InterJoinError("ID {} already joined".format(flat_id))

    vn = InterVirtualNode(id=flat_id, home_as=home, host_name=host.name,
                          strategy=strategy.value)
    chain = net.policy.join_chain(home, strategy, via_provider=via_provider)
    n_fingers = 0 if strategy is JoinStrategy.EPHEMERAL else net.n_fingers

    with perf.timed("inter.join"), \
            net.stats.operation("join", host=host.name,
                                strategy=strategy.value) as op:
        net.ases[home].host(vn)
        net.id_owner_index[vn.id] = vn
        with perf.timed("inter.join.levels"):
            for level in chain:
                _join_level(net, vn, level)
        _update_blooms(net, vn)
        if n_fingers:
            fingers.acquire_fingers(net, vn, n_fingers)
        messages = op["messages"]

    net.hosts[host.name] = vn
    return InterJoinReceipt(host_name=host.name, flat_id=vn.id, home_as=home,
                            strategy=strategy.value, messages=messages,
                            levels_joined=len(vn.joined_levels),
                            fingers=len(vn.fingers))


def _join_level(net: "InterDomainNetwork", vn: InterVirtualNode,
                level: Hashable) -> None:
    """Join one hierarchy level."""
    ring = net.ring_at(level)

    if len(ring) == 0:
        # First member of this level's merged ring: the registration that
        # lets later joiners bootstrap ("having host identifiers register
        # with their providers … when they join").
        ring.insert(vn.id, vn)
        vn.joined_levels.append(level)
        return

    oracle_pred: InterVirtualNode = ring[ring.predecessor(vn.id)]
    oracle_succ: InterVirtualNode = ring[ring.successor(vn.id)]

    # Condition (b) + redundant-lookup elimination: if a pointer stored at
    # an already-joined level *contained in this one* already reaches this
    # level's true successor, the lookup resolves to a known successor —
    # charge only the confirmation probe and store nothing new.
    effective = routing.effective_successor(net, vn, level)
    deduped = effective is not None and effective.dest_id == oracle_succ.id

    if deduped:
        net.stats.charge_hops(CONFIRMATION_COST, "join")
        pred = oracle_pred
    else:
        pred = _scoped_lookup(net, vn, level)
        if pred is None or pred.id != oracle_pred.id:
            # The distributed walk disagreed with the authoritative ring —
            # count it (tests assert zero) and fall back to the oracle so
            # state stays consistent.
            net.lookup_mismatches += 1
            pred = oracle_pred
        # Response: predecessor → home, carrying its successor info.
        response = net.policy.level_route(pred.home_as, vn.home_as, level)
        if response is not None:
            net.stats.charge_hops(len(response) - 1, "join")
        to_succ = link(net, vn, oracle_succ, level)
        if to_succ is not None:
            # Setup + ack with the successor.
            net.stats.charge_hops(2 * to_succ.n_hops, "join")
            _fill_as_caches(net, to_succ.as_route, oracle_succ)

    # The predecessor always re-points at the new node at this level.
    if link(net, pred, vn, level) is not None:
        net.ases[pred.home_as].mark_dirty(pred)

    ring.insert(vn.id, vn)
    vn.joined_levels.append(level)
    # Only successors and fingers are candidate pointers: a deduped level
    # stored none (and its successor gained just a predecessor), so there
    # is nothing for the AS index to re-diff.
    if not deduped:
        net.ases[vn.home_as].mark_dirty(vn)


def splice_out(net: "InterDomainNetwork", gone: InterVirtualNode,
               level: Hashable) -> None:
    """Close the gap ``gone`` left in ``level``'s ring (it has already left
    it): its predecessor re-points at the ID after the gap, one
    teardown-triggered setup and ack charged as repair."""
    ring = net.ring_at(level)
    pred_id = ring.predecessor(gone.id, strict=False)
    succ_id = ring.successor(gone.id, strict=False)
    if pred_id == succ_id:  # an empty ring, or one member left
        return
    pred: InterVirtualNode = ring[pred_id]
    succ: InterVirtualNode = ring[succ_id]
    pointer = link(net, pred, succ, level)
    if pointer is None:
        return
    net.stats.charge_hops(2 * pointer.n_hops, "repair")
    net.ases[pred.home_as].mark_dirty(pred)
    net.ases[succ.home_as].mark_dirty(succ)


def link(net: "InterDomainNetwork", a: InterVirtualNode, b: InterVirtualNode,
         level: Hashable) -> Optional[ASPointer]:
    """Splice ``a → b`` into ``level``'s ring: ``a``'s successor there
    becomes ``b`` and ``b``'s predecessor ``a``, each over
    :func:`pointer_to`'s route.  Returns ``a``'s new pointer, or None (and
    sets nothing) when no route reaches ``b``.  Charges nothing and marks
    nothing dirty: the join and the repair each account for their own
    exchange."""
    pointer = pointer_to(net, a.home_as, b, level)
    if pointer is None:
        return None
    _set_successor_preserving_coverage(net, a, level, pointer)
    back = pointer_to(net, b.home_as, a, level)
    if back is not None:
        b.pred_by_level[level] = back
    return pointer


def _set_successor_preserving_coverage(net: "InterDomainNetwork",
                                       owner: InterVirtualNode,
                                       level: Hashable,
                                       new_ptr: ASPointer) -> None:
    """Replace ``owner``'s successor pointer at ``level`` without breaking
    condition-(b) coverage of outer levels.

    A pointer stored at an inner level may be serving as the effective
    successor for outer joined levels (condition (b) stored nothing
    there).  When joining strategies are mixed, the *new* target may not
    be a member of those outer rings, so the old pointer must first be
    materialised at each outer level it was covering.  (The information
    needed is carried by the join exchange: the joiner knows which levels
    it is joining, so the predecessor can tell which of its dedup'd
    levels lose coverage.)
    """
    old = owner.succ_by_level.get(level)
    owner.set_successor(level, new_ptr)
    if old is None or old.dest_id == new_ptr.dest_id:
        return
    for outer in owner.joined_levels:
        if outer == level or outer in owner.succ_by_level:
            continue
        if not net.policy.level_contained_in(level, outer):
            continue
        outer_ring = net.ring_at(outer)
        if new_ptr.dest_id in outer_ring:
            continue  # the new target covers the outer level too
        if old.dest_id in outer_ring:
            owner.succ_by_level[outer] = ASPointer(old.dest_id, old.as_route,
                                                   outer)


def pointer_to(net: "InterDomainNetwork", from_as: Hashable,
               vn: InterVirtualNode,
               level: Hashable) -> Optional[ASPointer]:
    """The pointer from ``from_as`` to ``vn`` formed at ``level``, or None
    when no route reaches it — the one rule for every interdomain pointer
    (join, repair, fingers, revalidation).

    Its route is the level's (:meth:`PolicyView.level_route`), returned as
    the memoised tuple itself: which pointers share a route object is part
    of the state hash.  A single-homed join "sends a join out" on one
    provider only — the inbound-TE semantics of Section 5.1: packets for a
    suffix-``k`` identifier must enter via provider ``k`` — so a route
    into a single-homed ID over another provider is re-formed as the
    shortest valley-free leg to a provider it joined by plus the
    down-step home."""
    route = net.policy.level_route(from_as, vn.home_as, level)
    if route is None:
        return None
    if vn.strategy == _SINGLE_HOMED and len(route) > 1:
        allowed = set(net.asg.providers(vn.home_as)).intersection(
            vn.joined_levels)
        if allowed and route[-2] not in allowed:
            entries = []
            for provider in sorted(allowed, key=str):
                leg = net.policy.level_route(from_as, provider, level)
                if leg is not None:
                    entries.append(leg + (vn.home_as,))
            route = min(filter(net.policy.route_is_valley_free, entries),
                        key=len, default=route)
    return ASPointer(vn.id, route, level)


def _scoped_lookup(net: "InterDomainNetwork", vn: InterVirtualNode,
                   level: Hashable) -> Optional[InterVirtualNode]:
    """The honest, message-charged predecessor lookup at one level: from
    the home AS, and once more from the level's bootstrap member when the
    home AS holds no usable state in this ring (a walk that only found the
    joining ID itself counts as none)."""
    start = vn.home_as
    for attempt in range(2):
        outcome = routing.route(net, start, vn.id, mode="lookup",
                                scope=level, category="join")
        if (outcome.delivered and outcome.final_vn is not None
                and outcome.final_vn.id != vn.id):
            return outcome.final_vn
        climb = None if attempt else routing.enter_level(
            net, vn.home_as, level, "join")
        if climb is None:
            return None
        start = climb[-1]


def _fill_as_caches(net: "InterDomainNetwork", route: tuple,
                    target: InterVirtualNode) -> None:
    """Transit ASes on a setup path cache their suffix of the route to the
    target ID (control-packet cache fill, as in the intradomain design),
    unless the network's one cache capacity is zero."""
    if not net.ases[target.home_as].cache.capacity:
        return
    iv = target.id.value
    for i, asn in enumerate(route[:-1]):
        if asn != target.home_as:
            net.ases[asn].cache.put(iv, route[i:])


def _update_blooms(net: "InterDomainNetwork", vn: InterVirtualNode) -> None:
    """Add the new ID to the subtree bloom filter of every ancestor
    ("these bloom filters are also updated during the join process").
    Every AS's filter has the network's one geometry, so the ID is hashed
    once and the same bits set in each."""
    blooms = [net.ases[asn].subtree_bloom
              for asn in net.policy.hierarchy.up_chain(vn.home_as)]
    mask = blooms[0].mask_of(vn.id)
    for bloom in blooms:
        bloom.add_mask(mask)
