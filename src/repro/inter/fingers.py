"""Proximity-based finger tables (Section 4.1).

"ROFL exploits network proximity to reduce routing stretch by maintaining
proximity-based fingers in addition to successor pointers … We store
these fingers in a prefix-based finger table (along the lines of
Bamboo/Pastry/Tapestry) … Each entry contains an ID that is reachable via
the smallest number of up-links", and each entry lives at "the lower-most
level of the hierarchy (relative to X)" so following fingers preserves
isolation.

Selection here reproduces the *outcome* of the paper's three-phase finger
join (collect candidate entries along the route to your own ID, insert
yourself into others' tables, keep state fresh via piggybacked probes):
per (row, digit) slot we sample a handful of matching identifiers — as
the protocol would encounter on its route — and keep the one reachable
with the fewest up-links, tie-broken on AS-path length.  Each acquired
finger is charged one control message (its insertion notification), plus
the three-phase scaffolding proportional to the up-chain depth; with the
paper's numbers (340 fingers ≈ 445 messages) finger acquisition dominates
join cost exactly as observed in Section 6.3.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Hashable, List, Optional, Tuple, TYPE_CHECKING

from repro.idspace.identifier import FlatId
from repro.inter.pointers import ASPointer, InterVirtualNode
from repro.util import perf
from repro.util.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.inter.network import InterDomainNetwork

#: Digits per finger-table row (base 16, as in Pastry's default).
BASE_BITS = 4
#: How many matching candidates the selection samples per slot.
CANDIDATE_SAMPLE = 6


def slot_arc(vn_id: FlatId, row: int, digit: int,
             base_bits: int = BASE_BITS) -> Tuple[FlatId, FlatId]:
    """The identifier arc covered by finger slot ``(row, digit)``: IDs
    sharing ``row`` digits with ``vn_id`` and having ``digit`` next."""
    bits = vn_id.bits
    prefix_bits = row * base_bits
    if prefix_bits + base_bits > bits:
        raise ValueError("row out of range")
    remaining = bits - prefix_bits - base_bits
    prefix = vn_id.prefix_bits(prefix_bits) if prefix_bits else 0
    low = ((prefix << base_bits) | digit) << remaining
    high = low | ((1 << remaining) - 1)
    return FlatId(low, bits=bits), FlatId(high, bits=bits)


def up_links_between(net: "InterDomainNetwork", src: Hashable,
                     dst: Hashable) -> Tuple[int, int]:
    """(number of up-links, total hops) of the policy path src → dst.

    Thin wrapper over the memoised :meth:`PolicyView.path_profile`, which
    is what the selection loop below hits once per sampled candidate.
    """
    return net.policy.path_profile(src, dst)


def lowest_containing_level(net: "InterDomainNetwork", vn: InterVirtualNode,
                            target_as: Hashable) -> Optional[Hashable]:
    """The inner-most level of ``vn``'s chain whose subtree contains the
    target's home AS — where the finger must be formed to preserve
    isolation."""
    best = None
    best_size = None
    for level in vn.joined_levels:
        if not net.policy.level_contains(level, target_as):
            continue
        size = len(net.policy.subtree(level))
        if best_size is None or size < best_size:
            best, best_size = level, size
    return best


def acquire_fingers(net: "InterDomainNetwork", vn: InterVirtualNode,
                    n_fingers: int, base_bits: int = BASE_BITS) -> int:
    """Build ``vn``'s finger table; returns the message cost charged."""
    if n_fingers <= 0:
        return 0
    with perf.timed("inter.join.fingers"):
        fingers, charged = select_fingers(net, vn, n_fingers, base_bits)
        apply_fingers(net, vn, fingers, charged)
        return charged


def select_fingers(net: "InterDomainNetwork", vn: InterVirtualNode,
                   n_fingers: int, base_bits: int = BASE_BITS
                   ) -> Tuple[List[ASPointer], int]:
    """Choose ``vn``'s fingers without installing them or charging stats.

    Pure with respect to network state: reads the global ring (whose
    payloads are the member VNs) and the memoised policy-path profile;
    draws from a per-call ``derive_rng`` stream (no registry stream is
    consumed); :func:`apply_fingers` installs the result.  Returns
    ``(fingers, message_cost)`` — the cost is the three-phase scaffolding
    (~2 messages per up-chain hop) plus one insertion notification per
    acquired finger.
    """
    rng = derive_rng(net.seed, "fingers", vn.id.value)
    fingers: List[ASPointer] = []
    ring = net.global_ring
    ivalues = ring.key_values()

    depth = len(net.policy.hierarchy.up_chain(vn.home_as))
    charged = 2 * max(1, depth)

    digits = 1 << base_bits
    row = 0
    while len(fingers) < n_fingers and (row + 1) * base_bits <= vn.id.bits:
        own_digit = vn.id.digit(row, base_bits)
        for digit in range(digits):
            if digit == own_digit:
                continue
            if len(fingers) >= n_fingers:
                break
            # A slot arc never wraps, so its members are one index range
            # of the ring's sorted column; sampling positions draws exactly
            # what sampling a copied slice of keys would.
            low, high = slot_arc(vn.id, row, digit, base_bits)
            positions = range(bisect_left(ivalues, low.value),
                              bisect_right(ivalues, high.value))
            if not positions:
                continue
            if len(positions) > CANDIDATE_SAMPLE:
                positions = rng.sample(positions, CANDIDATE_SAMPLE)
            chosen = _pick_nearest(net, vn, [ring[ivalues[position]]
                                             for position in positions])
            if chosen is None:
                continue
            level = lowest_containing_level(net, vn, chosen.home_as)
            route = net.policy.policy_path(vn.home_as, chosen.home_as,
                                           scope=level)
            if route is None:
                route = net.policy.policy_path(vn.home_as, chosen.home_as)
            if route is None:
                continue
            fingers.append(ASPointer(chosen.id, chosen.home_as, tuple(route),
                                     level=level, kind="finger"))
            charged += 1  # insertion notification
        row += 1
    return fingers, charged


def apply_fingers(net: "InterDomainNetwork", vn: InterVirtualNode,
                  fingers: List[ASPointer], charged: int,
                  category: str = "join") -> None:
    """Install a selected finger table and charge its message cost."""
    vn.fingers = list(fingers)
    net.ases[vn.home_as].mark_dirty(vn)
    net.stats.charge_hops(charged, category)


def _pick_nearest(net: "InterDomainNetwork", vn: InterVirtualNode,
                  candidates: List[InterVirtualNode]
                  ) -> Optional[InterVirtualNode]:
    best_vn = None
    best_key = None
    for cand in candidates:
        if cand is vn:
            continue
        key = up_links_between(net, vn.home_as, cand.home_as)
        if best_key is None or key < best_key:
            best_vn, best_key = cand, key
    return best_vn
