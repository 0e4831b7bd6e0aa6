"""Synthetic AS-level Internet graphs with policy relationships.

The paper's interdomain evaluation uses "the complete inter-AS topology
graph sampled from Routeviews" with customer/provider relationships
inferred by Subramanian et al.'s tool, and "leverages the fact that most
current policies can be modeled as arising out of a simple hierarchical AS
graph" (Section 2.3).  Offline, we generate tiered power-law AS graphs
with *explicit* relationship annotations:

* **customer-provider** — the customer pays the provider for transit;
* **peer** — settlement-free, traffic between the two ASes' customers only;
* **backup** — a provider link used only when the primary fails
  (Section 4.2: "We treat multi-homing links as backup links" option).

Multihoming arises naturally: any AS with more than one provider is
multihomed.  Host counts are assigned by :class:`repro.topology.hosts`.
"""

from __future__ import annotations

import enum
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.topology import graph
from repro.util.rng import derive_rng, sample_zipf_counts


class Relationship(enum.Enum):
    """Business relationship annotating one AS-level adjacency."""

    CUSTOMER_PROVIDER = "cp"
    PEER = "peer"
    BACKUP = "backup"


class ASGraph:
    """An annotated AS-level topology.

    ``adjacency[a][b]`` is the one attribute dict of link ``a — b`` (held
    under both endpoints): its :class:`Relationship` ``rel`` and, for
    directional relationships, which endpoint is the ``provider``.  A link
    carries no latency: an AS hop is the unit of interdomain cost.
    ``nodes[asn]`` holds an AS's ``tier`` and ``hosts``.
    """

    def __init__(self) -> None:
        self.nodes: Dict[Hashable, dict] = {}
        self.adjacency: Dict[Hashable, Dict[Hashable, dict]] = {}
        # Relationship queries are on the hot path of every policy-path
        # BFS and finger selection; the graph is static once built, so
        # neighbour lists are memoised (invalidated by the mutators).
        self._rel_cache: Dict[tuple, tuple] = {}

    def __getstate__(self):
        """Serialize without the neighbour-list memo (pure derived state;
        rebuild-on-load keeps snapshots lean and the canonical state hash
        independent of query history)."""
        state = self.__dict__.copy()
        state["_rel_cache"] = {}
        return state

    # -- construction -------------------------------------------------------

    def add_as(self, asn: Hashable, tier: int = 3, hosts: int = 0) -> None:
        if asn in self.nodes:
            raise ValueError("duplicate AS {!r}".format(asn))
        self.nodes[asn] = {"tier": tier, "hosts": hosts}
        self.adjacency[asn] = {}
        self._rel_cache.clear()

    def add_customer_provider(self, customer: Hashable, provider: Hashable,
                              backup: bool = False) -> None:
        """Add a transit link: ``customer`` buys transit from ``provider``."""
        rel = Relationship.BACKUP if backup else Relationship.CUSTOMER_PROVIDER
        self._add_link(customer, provider, rel, provider)

    def add_peering(self, a: Hashable, b: Hashable) -> None:
        self._add_link(a, b, Relationship.PEER, None)

    def _add_link(self, a: Hashable, b: Hashable, rel: Relationship,
                  provider: Optional[Hashable]) -> None:
        for asn in (a, b):
            if asn not in self.nodes:
                raise KeyError("unknown AS {!r}".format(asn))
        if a == b:
            raise ValueError("self-relationship")
        self.adjacency[a][b] = self.adjacency[b][a] = {
            "rel": rel, "provider": provider}
        self._rel_cache.clear()

    def set_hosts(self, asn: Hashable, hosts: int) -> None:
        self.nodes[asn]["hosts"] = hosts

    # -- relationship queries -------------------------------------------------

    def ases(self) -> List[Hashable]:
        return list(self.nodes)

    @property
    def n_ases(self) -> int:
        return len(self.nodes)

    def hosts(self, asn: Hashable) -> int:
        return self.nodes[asn]["hosts"]

    def _related(self, asn: Hashable, rel: Relationship,
                 as_provider: Optional[bool] = None) -> List[Hashable]:
        key = (asn, rel, as_provider)
        cached = self._rel_cache.get(key)
        if cached is None:
            out = []
            for nbr, data in self.adjacency[asn].items():
                if data["rel"] is not rel:
                    continue
                if as_provider is True and data["provider"] != nbr:
                    continue
                if as_provider is False and data["provider"] != asn:
                    continue
                out.append(nbr)
            cached = self._rel_cache[key] = tuple(out)
        # Fresh list per call: callers are free to mutate their copy.
        return list(cached)

    def providers(self, asn: Hashable) -> List[Hashable]:
        """Primary (non-backup) providers of ``asn``."""
        return self._related(asn, Relationship.CUSTOMER_PROVIDER, as_provider=True)

    def backup_providers(self, asn: Hashable) -> List[Hashable]:
        return self._related(asn, Relationship.BACKUP, as_provider=True)

    def customers(self, asn: Hashable,
                  include_backup: bool = True) -> List[Hashable]:
        out = self._related(asn, Relationship.CUSTOMER_PROVIDER,
                            as_provider=False)
        if include_backup:
            out += self._related(asn, Relationship.BACKUP, as_provider=False)
        return out

    def peers(self, asn: Hashable) -> List[Hashable]:
        return self._related(asn, Relationship.PEER)

    def relationship(self, a: Hashable, b: Hashable) -> Optional[Relationship]:
        data = self.adjacency.get(a, {}).get(b)
        return None if data is None else data["rel"]

    def is_provider_of(self, provider: Hashable, customer: Hashable) -> bool:
        data = self.adjacency.get(provider, {}).get(customer)
        return (data is not None and data["rel"] is not Relationship.PEER
                and data["provider"] == provider)

    def stubs(self) -> List[Hashable]:
        """ASes with no customers — the unstable edge of the Internet."""
        return [asn for asn in self.nodes if not self.customers(asn)]

    def tier1(self) -> List[Hashable]:
        """ASes with no providers at all (primary or backup)."""
        return [asn for asn in self.nodes
                if not self.providers(asn) and not self.backup_providers(asn)]

    def links(self) -> Iterable[Tuple[Hashable, Hashable, Relationship]]:
        for a, b in graph.links(self.adjacency):
            yield a, b, self.adjacency[a][b]["rel"]

    def validate(self) -> None:
        """Check the annotation invariants the routing layer relies on."""
        if self.n_ases == 0:
            raise ValueError("empty AS graph")
        if len(graph.components(self.adjacency)) != 1:
            raise ValueError("AS graph is not connected")
        # The provider relation must be acyclic (it is a hierarchy) — so
        # some AS has no provider, and every other reaches such a tier-1.
        try:
            graph.topological_order({
                asn: self.providers(asn) + self.backup_providers(asn)
                for asn in self.nodes})
        except ValueError:
            raise ValueError(
                "customer-provider relation contains a cycle") from None

    def __repr__(self) -> str:
        return "ASGraph(ases={}, links={})".format(
            self.n_ases, sum(map(len, self.adjacency.values())) // 2)


#: The generator's one shape (DESIGN.md §3.2).  Tier-2 transit ASes are
#: this fraction of the graph (at least two); the tier-1 clique is three
#: ASes, or one in 25 from 100 ASes up.
TIER2_FRACTION = 0.22
#: Non-tier-1 ASes that take a second provider, and the share of those
#: second links that are *backup* relationships.
MULTIHOME_PROB = 0.35
SECOND_PROVIDER_BACKUP_PROB = 0.3
#: Lateral peering between each pair of tier-2 ASes.
TIER2_PEERING_PROB = 0.15
#: Hosts spread over stubs and tier-2 ASes by a Zipf law of this exponent.
TOTAL_HOSTS = 100_000
ZIPF_EXPONENT = 1.0
#: The smallest graph of that shape: three tier-1s, two tier-2s, one stub.
MIN_ASES = 6


def synthetic_as_graph(n_ases: int = 100, seed: int = 0) -> ASGraph:
    """Generate a tiered Internet-like AS graph.

    Structure, in the proportions above: a tier-1 clique (full peering
    mesh), a tier-2 transit layer buying from tier-1 and peering among
    itself, and a stub layer buying from tier-2/tier-1; some non-tier-1
    ASes take a second provider, some of those as *backup* links.
    """
    if n_ases < MIN_ASES:
        raise ValueError("need at least {} ASes, got {}".format(MIN_ASES,
                                                                n_ases))
    rng = derive_rng(seed, "asgraph", n_ases)
    asg = ASGraph()

    tier1_count = max(3, n_ases // 25)
    n_tier2 = max(2, int(n_ases * TIER2_FRACTION))
    n_stub = n_ases - tier1_count - n_tier2

    tier1 = ["T1-{}".format(i) for i in range(tier1_count)]
    tier2 = ["T2-{}".format(i) for i in range(n_tier2)]
    stubs = ["S-{}".format(i) for i in range(n_stub)]

    for asn in tier1:
        asg.add_as(asn, tier=1)
    for asn in tier2:
        asg.add_as(asn, tier=2)
    for asn in stubs:
        asg.add_as(asn, tier=3)

    # Tier-1 full peering mesh.
    for i, a in enumerate(tier1):
        for b in tier1[i + 1:]:
            asg.add_peering(a, b)

    # Tier-2 buy transit from tier-1 (preferentially from low-index T1s,
    # mimicking the uneven size of real tier-1s).
    t1_weights = [1.0 / (i + 1) for i in range(tier1_count)]
    for asn in tier2:
        _attach_providers(asg, rng, asn, tier1, t1_weights)

    # Stubs buy transit mostly from tier-2, occasionally directly tier-1.
    t2_weights = [1.0 / (i + 1) for i in range(n_tier2)]
    for asn in stubs:
        if rng.random() < 0.1:
            _attach_providers(asg, rng, asn, tier1, t1_weights)
        else:
            _attach_providers(asg, rng, asn, tier2, t2_weights)

    # Lateral tier-2 peering.
    for i, a in enumerate(tier2):
        for b in tier2[i + 1:]:
            if rng.random() < TIER2_PEERING_PROB:
                asg.add_peering(a, b)

    # Hosts: Zipf over stubs + tier-2 (transit cores host few endpoints).
    bearers = stubs + tier2
    counts = sample_zipf_counts(rng, len(bearers), TOTAL_HOSTS, ZIPF_EXPONENT)
    for asn, count in zip(bearers, counts):
        asg.set_hosts(asn, count)

    asg.validate()
    return asg


def _attach_providers(asg: ASGraph, rng, asn, candidates, weights) -> None:
    primary = rng.choices(candidates, weights=weights, k=1)[0]
    asg.add_customer_provider(asn, primary)
    if rng.random() < MULTIHOME_PROB and len(candidates) > 1:
        second = primary
        while second == primary:
            second = rng.choices(candidates, weights=weights, k=1)[0]
        asg.add_customer_provider(
            asn, second, backup=rng.random() < SECOND_PROVIDER_BACKUP_PROB)


def as_router_topology(asg: ASGraph, name: str = "as-graph"):
    """Flatten an AS graph into a :class:`RouterTopology` of one router
    per AS, so router-level protocols (the compact-routing baseline, the
    OSPF load series) can run over the interdomain topology and report
    AS-hop metrics directly comparable to ROFL's interdomain stretch
    denominators.

    Every AS becomes an edge-role router named ``str(asn)`` and every AS
    link a link of the default latency, one unit per AS hop
    (relationship annotations carry no meaning for shortest-path
    protocols and are dropped).
    """
    topo = graph.RouterTopology(name)
    for asn in sorted(asg.ases(), key=repr):
        topo.add_router(str(asn), role="edge")
    for a, b, _rel in asg.links():
        topo.add_link(str(a), str(b))
    topo.validate()
    return topo
