#!/usr/bin/env python
"""Internet-scale ROFL: policy-respecting joins, the isolation property,
inbound traffic engineering and stub failures (paper Sections 4-5, 6.3).

Run:  python examples/interdomain_policies.py
"""

from repro import build_network
from repro.idspace.crypto import KeyPair
from repro.services.anycast import AnycastGroup
from repro.services.multicast import MulticastGroup
from repro.services.traffic_eng import (MultihomedSuffixJoin,
                                        negotiate_path_set, send_negotiated)
from repro.topology.hosts import PlannedHost


def main() -> None:
    net = build_network("inter", seed=5, hosts=300, n_ases=80, n_fingers=16)
    net.check()
    print("Internet of {} ASes ({} tier-1s, {} stubs); {} IDs joined, "
          "0 ring inconsistencies, {} oracle mismatches".format(
              net.asg.n_ases, len(net.asg.tier1()), len(net.asg.stubs()),
              net.n_hosts, net.lookup_mismatches))

    # --- Policy-respecting routing + isolation ---------------------------
    print("\nRouting 100 packets across domains...")
    stretches, isolated = [], 0
    for _ in range(100):
        a, b = net.random_host_pair()
        result = net.send(a, b)
        assert result.delivered
        if result.optimal_hops > 0:
            stretches.append(result.stretch)
        if net.check_isolation(net.hosts[a].home_as, net.hosts[b].home_as,
                               result.path):
            isolated += 1
    print("  mean stretch vs the BGP path: {:.2f}".format(
        sum(stretches) / len(stretches)))
    print("  isolation property held on {}/100 paths".format(isolated))

    # --- Endpoint path negotiation: steady-state stretch 1 ---------------
    a, b = net.random_host_pair()
    negotiated = negotiate_path_set(net, net.hosts[a].home_as,
                                    net.hosts[b].home_as)
    result, within = send_negotiated(net, a, b, negotiated)
    print("\nAfter endpoint negotiation ({} ASes allowed): stretch {:.2f}, "
          "within negotiated set: {}".format(
              len(negotiated.allowed_ases), result.stretch, within))

    # --- Inbound TE with multihomed suffix joins --------------------------
    home = next(asn for asn in net.asg.ases()
                if len(net.asg.providers(asn)) >= 2 and net.asg.hosts(asn) > 0)
    te_host = PlannedHost(name="te-service", attach_at=home,
                          key_pair=KeyPair.generate(b"te", net.authority))
    te = MultihomedSuffixJoin(net, te_host, "te-service-ids")
    suffix_map = te.join_all()
    print("\nMultihomed AS {} joined one ID per provider:".format(home))
    src_as = net.hosts[a].home_as
    for suffix, (provider, _) in sorted(suffix_map.items()):
        result, engineered = te.send_via(src_as, suffix)
        print("  suffix {} → engineered entry via {:<6} "
              "(delivered over {} AS hops)".format(
                  suffix, str(provider), result.hops))

    # --- Stub failure containment ----------------------------------------
    stub = next(s for s in net.asg.stubs() if len(net.ases[s].hosted) > 0)
    ids = len(net.ases[stub].hosted)
    messages = net.fail_as(stub)
    net.check()
    survivors_ok = all(net.send(*net.random_host_pair()).delivered
                       for _ in range(50))
    print("\nFailed stub {} ({} IDs): {} repair messages; all surviving "
          "pairs still reachable: {}".format(stub, ids, messages,
                                             survivors_ok))

    # --- The same anycast and multicast services, one AS per node ---------
    bearers = [asn for asn in net.asg.ases()
               if net.asg.hosts(asn) > 0 and net.as_is_up(asn)]
    resolvers, feed = AnycastGroup(net, "resolver"), MulticastGroup(net, "feed")
    for i, asn in enumerate(bearers[:12:3]):
        resolvers.add_member(asn)
        feed.join("replica-{}".format(i), asn)
    result = resolvers.send(bearers[20])
    report = feed.multicast("replica-0")
    print("\nAnycast from AS {}: a resolver {} AS hops away (nearest {}); "
          "multicast: {} replicas, {} copies (unicast fan-out: {})".format(
              bearers[20], result.hops,
              resolvers.nearest_member_distance(bearers[20]),
              len(report.receivers), report.messages,
              feed.unicast_equivalent_cost("replica-0")))


if __name__ == "__main__":
    main()
