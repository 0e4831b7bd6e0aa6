"""The OSPF-like substrate ROFL assumes (paper Section 2.1).

"ROFL assumes an underlying OSPF-like protocol that provides a network map
(and not routes to hosts) and can identify link failures in the physical
network. … This protocol is used to detect link and node failures, and
notifies the routing layer of such events."

* :mod:`repro.linkstate.lsdb` — the live network map: failures, restores,
  reachability, failure notifications to subscribers.
* :mod:`repro.linkstate.spf` — cached shortest-path computation (hop-count
  and latency metrics) with generation-based invalidation.
* :mod:`repro.linkstate.protocol` — flooding cost/latency models and the
  OSPF-style timers used by the failure benchmarks.
"""
