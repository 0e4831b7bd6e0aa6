"""Routing control / traffic engineering (Section 5.1).

Three mechanisms:

* **Endpoint path negotiation** — "all paths that can be used to reach AS
  X from AS Y traverse ASes in the intersection of X's and Y's
  up-hierarchies … we allow the source and destination to negotiate a
  subset of ASes in this set that can be used to forward packets".
* **Multihomed suffix joins** — "when a hosting router in a multihomed AS
  performs a join, it sends a join out on each of its AS's p providers
  with IDs with variable suffixes (G, x_k) … Hosts or intermediate
  routers may vary r and the suffixes x_k to control the path selected".
* **Regional sub-rings** — "a transit AS that is spread over multiple
  countries can create sub-rings corresponding to each of those regions.
  The isolation property ensures that internal traffic will not transit
  costly inter-country links."  Realised by building a region hierarchy
  and running the interdomain machinery over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Sequence, Set, Tuple

from repro.idspace.identifier import FlatId
from repro.inter.network import InterDomainNetwork
from repro.inter.policy import JoinStrategy
from repro.sim.stats import PathResult
from repro.topology.asgraph import ASGraph
from repro.topology.hosts import PlannedHost


# -- endpoint path negotiation -----------------------------------------------------


@dataclass(frozen=True)
class NegotiatedPathSet:
    """The result of the first-packet negotiation: which ASes may carry
    this session's traffic."""

    src_as: Hashable
    dst_as: Hashable
    allowed_ases: frozenset

    def permits(self, as_path: Sequence[Hashable]) -> bool:
        return all(asn in self.allowed_ases for asn in as_path)


def negotiate_path_set(net: InterDomainNetwork, src_as: Hashable,
                       dst_as: Hashable,
                       dst_selection: Optional[Set[Hashable]] = None
                       ) -> NegotiatedPathSet:
    """Run the negotiation: the destination "select[s] a subset of ASes
    above it in the hierarchy and append[s] this set to the response";
    the usable region is both endpoints' hierarchies joined through the
    selected subset."""
    up_src = set(net.policy.hierarchy.up_chain(src_as))
    up_dst = set(net.policy.hierarchy.up_chain(dst_as))
    if dst_selection is not None:
        illegal = dst_selection - up_dst
        if illegal:
            raise ValueError("destination selected ASes outside its "
                             "up-hierarchy: {}".format(sorted(map(str, illegal))))
        up_dst = set(dst_selection) | {dst_as}
    allowed = up_src | up_dst
    # The negotiation costs one round trip on the first packet; charge it.
    dist = net.bgp.policy_distance(src_as, dst_as)
    if dist is not None:
        net.stats.charge_hops(2 * dist, "negotiation")
    return NegotiatedPathSet(src_as=src_as, dst_as=dst_as,
                             allowed_ases=frozenset(allowed))


def send_negotiated(net: InterDomainNetwork, src_host: str, dst_host: str,
                    negotiated: NegotiatedPathSet) -> Tuple[PathResult, bool]:
    """Send a post-negotiation packet: once the endpoints have exchanged
    their hierarchy subsets, packets carry a direct AS-level source route
    through the negotiated set — "stretch for remaining packets can be
    reduced to one by exchanging the list of ASes above the destination".
    Falls back to plain greedy routing when no path fits the set."""
    src_as = net.hosts[src_host].home_as
    dst_as = net.hosts[dst_host].home_as
    direct = _direct_path_within(net, src_as, dst_as, negotiated.allowed_ases)
    if direct is not None:
        net.stats.charge_path(direct, "data")
        hops = len(direct) - 1
        optimal = net.bgp.policy_distance(src_as, dst_as) or hops
        result = PathResult(delivered=True, path=list(direct), hops=hops,
                            optimal_hops=optimal)
        return result, True
    result = net.send(src_host, dst_host)
    return result, negotiated.permits(result.path)


def _direct_path_within(net: InterDomainNetwork, src_as: Hashable,
                        dst_as: Hashable,
                        allowed: frozenset) -> Optional[Tuple[Hashable, ...]]:
    """Shortest valley-free path whose every AS lies in ``allowed``."""
    path = net.policy.policy_path(src_as, dst_as)
    if path is not None and all(asn in allowed for asn in path):
        return path
    # Constrained search: climb src's side of the allowed set, descend
    # the destination's side through a common member.
    up_src = [asn for asn in net.policy.hierarchy.up_chain(src_as)
              if asn in allowed]
    best: Optional[Tuple[Hashable, ...]] = None
    for meet in up_src:
        up_leg = net.policy.policy_path(src_as, meet)
        down_leg = net.policy.policy_path(meet, dst_as)
        if up_leg is None or down_leg is None:
            continue
        candidate = tuple(up_leg) + tuple(down_leg[1:])
        if not all(asn in allowed for asn in candidate):
            continue
        if not net.policy.route_is_valley_free(candidate):
            continue
        if best is None or len(candidate) < len(best):
            best = candidate
    return best


# -- multihomed suffix joins ----------------------------------------------------------


class MultihomedSuffixJoin:
    """Per-provider identifiers ``(G, x_k)`` for inbound TE.

    Each provider ``k`` of the host's AS carries a single-homed join of
    the suffix-``k`` identifier, so a correspondent routing to ``(G, r)``
    deterministically enters via provider ``r``'s hierarchy — the degree
    of inbound control the paper contrasts with BGP prepending.

    The per-suffix identifiers are *hashed* onto the ring (``H(G‖x_k)``)
    rather than packed into one contiguous group arc: adjacent same-prefix
    IDs would make the group's own members each other's ring
    predecessors, so every inbound route would funnel through the lowest
    suffix's provider.  Spreading the IDs gives each suffix an unrelated
    ring predecessor whose pointer carries the provider-constrained
    source route (see ``canon.pointer_to``).
    """

    def __init__(self, net: InterDomainNetwork, host: PlannedHost,
                 group_name: str):
        self.net = net
        self.host = host
        self.group_name = group_name
        #: suffix → (provider, joined flat ID)
        self.suffix_map: Dict[int, Tuple[Hashable, FlatId]] = {}

    def join_all(self) -> Dict[int, Tuple[Hashable, FlatId]]:
        """Join one suffix per provider of the host's AS."""
        home = self.host.attach_at
        providers = sorted(self.net.asg.providers(home), key=str)
        if not providers:
            raise ValueError("AS {} has no providers to engineer".format(home))
        for k, provider in enumerate(providers):
            member_id = FlatId.from_bytes(
                "{}:{}".format(self.group_name, k).encode("utf-8"),
                bits=self.net.space.bits)
            self.net.join_host(
                PlannedHost(name="{}#{}".format(self.host.name, k),
                            attach_at=home, key_pair=self.host.key_pair),
                strategy=JoinStrategy.SINGLE_HOMED,
                via_provider=provider,
                flat_id_override=member_id,
            )
            self.suffix_map[k] = (provider, member_id)
        return dict(self.suffix_map)

    def send_via(self, src_as: Hashable, suffix: int) -> Tuple[PathResult, Hashable]:
        """Route to ``(G, suffix)``; returns the result and the provider
        the packet was engineered toward."""
        provider, member_id = self.suffix_map[suffix]
        return self.net.send_to_id(src_as, member_id), provider

    def entry_provider(self, as_path: Sequence[Hashable]) -> Optional[Hashable]:
        """Which of the host's providers the packet actually entered by:
        the AS immediately before the home AS on the path."""
        home = self.host.attach_at
        for prev, asn in zip(as_path, as_path[1:]):
            if asn == home:
                return prev
        return None


# -- regional sub-rings -----------------------------------------------------------------


def build_regional_hierarchy(regions: Dict[Hashable, int],
                             parent_name: str = "GLOBAL") -> ASGraph:
    """Build the AS graph realising Section 5.1's intra-domain sub-rings:
    one "AS" per region, all customers of a single corporate parent.

    ``regions`` maps region name → host count.  Running the interdomain
    machinery over this graph gives regional rings whose isolation
    property keeps intra-region traffic off inter-region links.
    """
    asg = ASGraph()
    asg.add_as(parent_name, tier=1)
    for region, hosts in regions.items():
        asg.add_as(region, tier=2, hosts=hosts)
        asg.add_customer_provider(region, parent_name)
    asg.validate()
    return asg
