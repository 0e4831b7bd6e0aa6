"""Topology substrates.

* :mod:`repro.topology.graph` — the router-level topology model shared by
  the link-state substrate and intradomain ROFL.
* :mod:`repro.topology.isp` — synthetic Rocketfuel-like ISP generator
  (PoP-structured, matched to the paper's four ISP profiles).
* :mod:`repro.topology.asgraph` — synthetic Internet AS graph annotated
  with customer-provider / peering / backup relationships (Routeviews +
  relationship-inference substitute).
* :mod:`repro.topology.hierarchy` — up-hierarchy (G_X) and down-hierarchy
  computation, and subtree membership.
* :mod:`repro.topology.hosts` — Zipf host populations (skitter substitute).
"""
