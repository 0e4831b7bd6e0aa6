"""Section 5 extensions: routing control, enhanced delivery, security.

* :mod:`repro.services.anycast` — ``(G, x)`` group joins; routing toward
  ``(G, y)`` reaches the first group member encountered.
* :mod:`repro.services.multicast` — path-painting trees of bidirectional
  links between the nodes of the group's members.

Both run unchanged on the two ROFL kinds — routers on ``intra``, ASes on
``inter`` — through the :class:`repro.network.Network` operations
``send_to_id``, ``join_id``, ``node_of``, ``node_is_up``, ``link_is_up``,
``node_path`` and ``node_distance``; ``cmu`` and ``ospf`` leave all of
them ``Unsupported``, ``disco`` all but ``send_to_id``.

* :mod:`repro.services.security` — default-off reachability, registration
  and capabilities with lifetimes (TVA-style), path capabilities.
* :mod:`repro.services.traffic_eng` — endpoint path negotiation over
  up-hierarchy intersections, multihomed suffix joins, regional
  sub-rings.
"""
