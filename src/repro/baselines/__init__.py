"""Baselines the paper compares against, behind one shared contract.

* :mod:`repro.baselines.cmu_ethernet` — the flood-based flat routing
  design of Myers, Ng and Zhang (HotNets'04), the paper's comparison
  point for join overhead (Fig 5a, 37–181×) and memory (Fig 6c,
  34–1200×).
* :mod:`repro.baselines.ospf_routing` — plain shortest-path host routing
  with location-dependent addresses, the load-balance (Fig 6b) and
  stretch baseline.
* :class:`repro.compact.DiscoNetwork` — Disco-style compact routing on
  flat names with a provable stretch bound (the post-paper baseline the
  compact-routing literature calls for; it lives in ``repro.compact``).

All three are :class:`repro.network.Network` kinds (``"cmu"``, ``"ospf"``,
``"disco"``), so the harness, the workload driver, ``repro serve`` and the
contract tests drive them exactly as they drive ROFL.
"""

from repro.baselines.cmu_ethernet import CmuEthernetNetwork
from repro.baselines.ospf_routing import OspfHostRouting

__all__ = ["CmuEthernetNetwork", "OspfHostRouting"]
