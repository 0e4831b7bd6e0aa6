"""Group identifiers ``(G, x)`` (Section 5 of the paper).

Anycast, multicast and multihomed traffic engineering all use structured
suffixes: "Servers belonging to group G join with ID (G, x). A host may
then route to (G, y), where y is set arbitrarily. Intermediate routers
forward the packet towards G, treating all suffixes equally."

A group identifier splits the 128-bit namespace into a group prefix (the
hash of the group name, truncated) and a free suffix.  All members of a
group occupy one contiguous arc of the ring, so plain greedy routing
toward any ``(G, y)`` lands on *some* member — which is exactly the
anycast semantics the paper wants for free.
"""

from __future__ import annotations

import hashlib

from repro.idspace.identifier import DEFAULT_BITS, FlatId

#: Number of leading bits that identify the group; the rest is the suffix.
DEFAULT_GROUP_BITS = 96


def group_prefix(group_name: str, bits: int = DEFAULT_BITS,
                 group_bits: int = DEFAULT_GROUP_BITS) -> int:
    """The integer prefix (top ``group_bits`` bits) for a named group."""
    if not 0 < group_bits < bits:
        raise ValueError("group_bits must leave room for a suffix")
    digest = hashlib.sha256(group_name.encode("utf-8")).digest()
    full = int.from_bytes(digest, "big") % (1 << bits)
    return full >> (bits - group_bits)


def make_member_id(group_name: str, suffix: int, bits: int = DEFAULT_BITS,
                   group_bits: int = DEFAULT_GROUP_BITS) -> FlatId:
    """Build the flat ID ``(G, x)`` for group ``G`` and suffix ``x``."""
    suffix_bits = bits - group_bits
    if not 0 <= suffix < (1 << suffix_bits):
        raise ValueError("suffix does not fit in {} bits".format(suffix_bits))
    prefix = group_prefix(group_name, bits=bits, group_bits=group_bits)
    return FlatId((prefix << suffix_bits) | suffix, bits=bits)
