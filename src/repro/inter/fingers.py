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
from repro.inter import canon
from repro.inter.pointers import ASPointer, InterVirtualNode
from repro.util import perf
from repro.util.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.inter.network import InterDomainNetwork

#: Digits per finger-table row (base 16, as in Pastry's default).
BASE_BITS = 4
#: How many matching candidates the selection samples per slot.
CANDIDATE_SAMPLE = 6


def slot_arc(vn_id: FlatId, row: int, digit: int) -> Tuple[FlatId, FlatId]:
    """The identifier arc covered by finger slot ``(row, digit)``: IDs
    sharing ``row`` digits with ``vn_id`` and having ``digit`` next."""
    bits = vn_id.bits
    prefix_bits = row * BASE_BITS
    if prefix_bits + BASE_BITS > bits:
        raise ValueError("row out of range")
    remaining = bits - prefix_bits - BASE_BITS
    prefix = vn_id.prefix_bits(prefix_bits) if prefix_bits else 0
    low = ((prefix << BASE_BITS) | digit) << remaining
    high = low | ((1 << remaining) - 1)
    return FlatId(low, bits=bits), FlatId(high, bits=bits)


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
                    n_fingers: int) -> int:
    """Build and install ``vn``'s finger table from the global ring (whose
    payloads are the member VNs), drawing from a per-call ``derive_rng``
    stream (no registry stream is consumed).  Returns the messages
    charged: the three-phase scaffolding (~2 per up-chain hop) plus one
    insertion notification per finger."""
    if n_fingers <= 0:
        return 0
    with perf.timed("inter.join.fingers"):
        rng = derive_rng(net.seed, "fingers", vn.id.value)
        fingers: List[ASPointer] = []
        ring = net.global_ring
        ivalues = ring.key_values()

        depth = len(net.policy.hierarchy.up_chain(vn.home_as))
        charged = 2 * max(1, depth)

        row = 0
        while len(fingers) < n_fingers and (row + 1) * BASE_BITS <= vn.id.bits:
            own_digit = vn.id.digit(row, BASE_BITS)
            for digit in range(1 << BASE_BITS):
                if digit == own_digit:
                    continue
                if len(fingers) >= n_fingers:
                    break
                # A slot arc never wraps, so its members are one index range
                # of the ring's sorted column; sampling positions draws
                # exactly what sampling a copied slice of keys would.
                low, high = slot_arc(vn.id, row, digit)
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
                finger = canon.pointer_to(net, vn.home_as, chosen, level)
                if finger is None:
                    continue
                fingers.append(finger)
                charged += 1  # insertion notification
            row += 1

        vn.fingers = fingers
        net.ases[vn.home_as].mark_dirty(vn)
        net.stats.charge_hops(charged, "join")
        return charged


def _pick_nearest(net: "InterDomainNetwork", vn: InterVirtualNode,
                  candidates: List[InterVirtualNode]
                  ) -> Optional[InterVirtualNode]:
    best_vn = None
    best_key = None
    for cand in candidates:
        if cand is vn:
            continue
        key = net.policy.path_profile(vn.home_as, cand.home_as)
        if best_key is None or key < best_key:
            best_vn, best_key = cand, key
    return best_vn
