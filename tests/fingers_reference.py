"""The interdomain finger selection of commit ``1aa484b``, before a
finger cost only its draws — verbatim; never edit (or tidy) it.

There one acquired finger cost 55.4 Python-level calls (100-AS graph,
network seed 7, 8 fingers, multihomed, over the 500 joins after 2 000):
per slot :func:`slot_arc` built two ``FlatId`` bounds, ``rng.sample``
drew the positions, ``ring[...]`` read each candidate through
``SortedRingMap.__getitem__``, :func:`_pick_nearest` ranked them, and
:func:`lowest_containing_level` re-scanned the joiner's chain (a
``level_contains`` and a ``subtree`` call per level) for every finger.
``repro.inter.fingers.acquire_fingers`` now does only the draws, the
ranking and the route; these are the answers it must agree with — every
finger (target, level, route object), every message charged, and the
state hash, join by join (``tests/test_inter_fingers.py::TestReferenceTwin``).

The bodies below are that commit's ``inter/fingers.py`` from
:func:`slot_arc` down; the two constants are the module's own.
:func:`installed` puts this ``acquire_fingers`` where ``canon`` calls it
for the length of a ``with`` block.
"""

from __future__ import annotations

import contextlib
from bisect import bisect_left, bisect_right
from typing import Hashable, List, Optional, Tuple, TYPE_CHECKING

from repro.idspace.identifier import FlatId
from repro.inter import canon, fingers as _fingers
from repro.inter.fingers import BASE_BITS, CANDIDATE_SAMPLE
from repro.inter.pointers import ASPointer, InterVirtualNode
from repro.util import perf
from repro.util.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.inter.network import InterDomainNetwork


@contextlib.contextmanager
def installed():
    """Joins inside the block acquire their fingers with this module's
    :func:`acquire_fingers`."""
    current = _fingers.acquire_fingers
    _fingers.acquire_fingers = acquire_fingers
    try:
        yield
    finally:
        _fingers.acquire_fingers = current


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
