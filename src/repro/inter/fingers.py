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

from bisect import bisect_left
from typing import TYPE_CHECKING

from repro.inter import canon
from repro.inter.pointers import InterVirtualNode
from repro.util import perf
from repro.util.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.inter.network import InterDomainNetwork

#: Digits per finger-table row (base 16, as in Pastry's default).
BASE_BITS = 4
#: How many matching candidates the selection samples per slot.
CANDIDATE_SAMPLE = 6


def acquire_fingers(net: "InterDomainNetwork", vn: InterVirtualNode,
                    n_fingers: int) -> int:
    """Build and install ``vn``'s finger table from the global ring (whose
    payloads are the member VNs), drawing from a per-call ``derive_rng``
    stream (no registry stream is consumed).  Returns the messages
    charged: the three-phase scaffolding (~2 per up-chain hop) plus one
    insertion notification per finger.

    Slot ``(row, digit)`` covers the IDs sharing ``row`` digits with
    ``vn`` and having ``digit`` next: an arc that never wraps, so its
    members are one index range of the ring's sorted column.  Of a
    sample of them the finger targets the one reachable with the fewest
    up-links (then AS hops; first drawn on a tie), formed at the
    inner-most joined level whose subtree holds the target's AS (first in
    chain order on a tie) — where it must be to preserve isolation."""
    if n_fingers <= 0:
        return 0
    with perf.timed("inter.join.fingers"):
        sample = derive_rng(net.seed, "fingers", vn.id.value).sample
        ring = net.global_ring
        ivalues = ring.key_values()
        members = ring.payloads()
        policy = net.policy
        profile = policy.path_profile
        home = vn.home_as
        # The joined levels by subtree size; the sort is stable, so equal
        # sizes keep chain order.
        innermost_first = sorted(
            [(level, policy.subtree(level)) for level in vn.joined_levels],
            key=lambda level_subtree: len(level_subtree[1]))
        fingers = []
        charged = 2 * max(1, len(policy.hierarchy.up_chain(home)))

        value, bits = vn.id.value, vn.id.bits
        remaining = bits
        while len(fingers) < n_fingers and remaining >= BASE_BITS:
            remaining -= BASE_BITS
            own_digit = (value >> remaining) & ((1 << BASE_BITS) - 1)
            prefix = value >> (remaining + BASE_BITS) << BASE_BITS
            for digit in range(1 << BASE_BITS):
                if digit == own_digit:
                    continue
                if len(fingers) >= n_fingers:
                    break
                low = (prefix | digit) << remaining
                lo = bisect_left(ivalues, low)
                n = bisect_left(ivalues, low + (1 << remaining), lo) - lo
                if not n:
                    continue
                # The arc excludes vn's own ID (its digit differs), so every
                # candidate is another ID.
                chosen = best = None
                for position in (sample(range(lo, lo + n), CANDIDATE_SAMPLE)
                                 if n > CANDIDATE_SAMPLE
                                 else range(lo, lo + n)):
                    cand = members[ivalues[position]]
                    key = profile(home, cand.home_as)
                    if best is None or key < best:
                        chosen, best = cand, key
                target_as = chosen.home_as
                for level, inside in innermost_first:
                    if target_as in inside:
                        break
                else:
                    level = None
                finger = canon.pointer_to(net, home, chosen, level)
                if finger is None:
                    continue
                fingers.append(finger)
                charged += 1  # insertion notification

        vn.fingers = fingers
        net.ases[home].mark_dirty(vn)
        net.stats.charge_hops(charged, "join")
        return charged
