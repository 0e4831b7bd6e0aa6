"""Intradomain ROFL (Section 3 of the paper).

Hosts' flat identifiers are *resident* at gateway routers, which maintain
virtual nodes on their behalf.  Resident IDs form a ring (successor /
predecessor pointers carrying router-level source routes); routing is
greedy on the identifier space; pointer caches cut stretch; failures are
repaired with teardowns, directed floods and — for partitions — a
zero-ID-driven ring-merge protocol.

Entry point: :class:`repro.intra.network.IntraDomainNetwork`.
"""
