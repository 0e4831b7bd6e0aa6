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

from repro.topology.graph import RouterTopology
from repro.topology.isp import synthetic_isp, ROCKETFUEL_PROFILES
from repro.topology.asgraph import ASGraph, synthetic_as_graph, Relationship
from repro.topology.hierarchy import up_hierarchy, down_hierarchy
from repro.topology.hosts import HostPlan

__all__ = [
    "RouterTopology",
    "synthetic_isp",
    "ROCKETFUEL_PROFILES",
    "ASGraph",
    "synthetic_as_graph",
    "Relationship",
    "up_hierarchy",
    "down_hierarchy",
    "HostPlan",
]
