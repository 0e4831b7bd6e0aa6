"""Interdomain ROFL (Section 4 of the paper) plus the BGP-policy baseline.

Each AS runs its own intradomain ring; rings merge bottom-up along the AS
hierarchy Canon-style, with extensions for today's policies:
customer-provider, peering (virtual ASes or bloom filters), multihoming
and backup links.  Proximity finger tables and per-AS pointer caches cut
stretch; the isolation property confines traffic to the subtree of the
earliest common ancestor.

Entry point: :class:`repro.inter.network.InterDomainNetwork`.
"""
