"""Synthetic Rocketfuel-like ISP topologies.

The paper's intradomain experiments run over Rocketfuel maps of four ISPs:
AS 1221 (318 routers, 2.6 M hosts), AS 1239 (604, 10 M), AS 3257
(240, 0.5 M) and AS 3967 (201, 2.1 M).  Rocketfuel data is not available
offline, so we generate topologies with the structure Rocketfuel actually
observed (see DESIGN.md §3.1): routers are grouped into PoPs; each PoP is
a small dense cluster with one or two backbone routers; backbone routers
form the inter-PoP core (a connected, preferential-attachment mesh).  The
experiments exercise diameter, PoP granularity and path diversity, all of
which this shape reproduces.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.topology.graph import RouterTopology
from repro.util.rng import derive_rng

#: The four ISP profiles the paper evaluates on (Section 6.1).
ROCKETFUEL_PROFILES: Dict[str, Dict] = {
    "AS1221": {"routers": 318, "hosts": 2_600_000},
    "AS1239": {"routers": 604, "hosts": 10_000_000},
    "AS3257": {"routers": 240, "hosts": 500_000},
    "AS3967": {"routers": 201, "hosts": 2_100_000},
}

#: Modelled TCAM budget for intradomain forwarding state (Section 6.1):
#: "Transit routers are presumed to have 9Mbits of fast memory".
TCAM_BITS = 9 * 1024 * 1024
ID_BITS = 128
#: Entries that budget holds at 128 bits/entry — the paper's "roughly
#: 70,000 entries (corresponding to a 9Mbit cache of 128-bit IDs)".
TCAM_ENTRIES = TCAM_BITS // ID_BITS


#: The generator's one ISP shape (DESIGN.md §3.1): about this many routers
#: per PoP, a quarter of each PoP's routers (at least one) its backbone.
POP_SIZE = 8
#: Backbone links beyond the spanning tree, as a fraction of the number of
#: PoPs: the path diversity real ISP cores have.
EXTRA_BACKBONE_LINKS = 0.6
#: Link latency inside a PoP, and between PoPs before a ±50 % jitter.
INTRA_POP_LATENCY_MS = 0.3
BACKBONE_LATENCY_MS = 4.0
#: The smallest ISP the generator builds.
MIN_ROUTERS = 2


def synthetic_isp(n_routers: int = 100, seed: int = 0,
                  name: Optional[str] = None) -> RouterTopology:
    """Generate a PoP-structured ISP router graph of the shape above: PoP
    backbones joined by a spanning tree plus redundant core links."""
    if n_routers < MIN_ROUTERS:
        raise ValueError("need at least {} routers, got {}".format(
            MIN_ROUTERS, n_routers))
    rng = derive_rng(seed, "isp", name or "anon", n_routers)
    topo = RouterTopology(name or "isp-{}r".format(n_routers))

    n_pops = max(2, round(n_routers / POP_SIZE))
    # Spread routers over PoPs as evenly as possible.
    base, remainder = divmod(n_routers, n_pops)
    pop_sizes = [base + (1 if i < remainder else 0) for i in range(n_pops)]

    backbone_by_pop: Dict[int, list] = {}
    router_index = 0
    for pop in range(n_pops):
        members = []
        n_backbone = max(1, pop_sizes[pop] // 4)
        for i in range(pop_sizes[pop]):
            router = "r{}".format(router_index)
            router_index += 1
            role = "backbone" if i < n_backbone else "edge"
            topo.add_router(router, pop=pop, role=role)
            members.append(router)
        backbone_by_pop[pop] = members[:n_backbone]
        _wire_pop(topo, members, rng)

    _wire_backbone(topo, backbone_by_pop, rng)
    topo.validate()
    return topo


def _wire_pop(topo: RouterTopology, members: list, rng) -> None:
    """Wire one PoP: a ring plus a chord, dense enough to survive one
    router loss, sparse enough to stay realistic."""
    n = len(members)
    if n == 1:
        return
    for i in range(n):
        a, b = members[i], members[(i + 1) % n]
        if not topo.has_link(a, b) and a != b:
            topo.add_link(a, b, latency_ms=INTRA_POP_LATENCY_MS)
    # One random chord for redundancy in PoPs of 4+.
    if n >= 4:
        a, b = rng.sample(members, 2)
        if not topo.has_link(a, b):
            topo.add_link(a, b, latency_ms=INTRA_POP_LATENCY_MS)


def _wire_backbone(topo: RouterTopology, backbone_by_pop: Dict[int, list],
                   rng) -> None:
    """Connect PoP backbones: random spanning tree + preferential extras."""
    pops = sorted(backbone_by_pop)
    attached = [pops[0]]
    degree = {pop: 1 for pop in pops}  # +1 smoothing for preferential pick
    for pop in pops[1:]:
        # Preferential attachment: PoPs with more links attract more.
        weights = [degree[p] for p in attached]
        target = rng.choices(attached, weights=weights, k=1)[0]
        _link_pops(topo, backbone_by_pop, pop, target, rng)
        degree[pop] += 1
        degree[target] += 1
        attached.append(pop)
    n_extra = int(math.ceil(EXTRA_BACKBONE_LINKS * len(pops)))
    for _ in range(n_extra):
        a, b = rng.sample(pops, 2)
        _link_pops(topo, backbone_by_pop, a, b, rng)


def _link_pops(topo: RouterTopology, backbone_by_pop: Dict[int, list],
               pop_a: int, pop_b: int, rng) -> None:
    router_a = rng.choice(backbone_by_pop[pop_a])
    router_b = rng.choice(backbone_by_pop[pop_b])
    if router_a != router_b and not topo.has_link(router_a, router_b):
        # Jitter backbone latency ±50% so paths are not all equal cost.
        jitter = BACKBONE_LATENCY_MS * rng.uniform(0.5, 1.5)
        topo.add_link(router_a, router_b, latency_ms=jitter)
