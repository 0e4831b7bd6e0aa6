#!/usr/bin/env python
"""A replicated content service on ROFL: anycast front-ends, a multicast
feed, and default-off capability-gated access (paper Sections 5.2-5.3).

Run:  python examples/content_service.py
"""

from repro import build_network
from repro.idspace.crypto import KeyPair
from repro.services.anycast import AnycastGroup
from repro.services.multicast import MulticastGroup
from repro.services.security import AccessController, CapabilityAuthority


def main() -> None:
    net = build_network("intra", seed=7, hosts=150, n_routers=60,
                        cache_entries=1024)
    edge = net.topology.edge_routers()

    # --- Anycast front-ends: clients hit the nearest replica -------------
    frontends = AnycastGroup(net, "cdn-frontend")
    replica_routers = edge[::9][:5]
    for router in replica_routers:
        frontends.add_member(router)
    net.check()
    print("Anycast group 'cdn-frontend' with {} replicas".format(
        len(frontends.members)))
    for client in edge[3:30:6]:
        result = frontends.send(client)
        nearest = frontends.nearest_member_distance(client)
        print("  client@{:<5} reached a replica in {:>2} hops "
              "(nearest replica is {} hops away)".format(
                  client, result.hops, nearest))
    frontends.remove_member(0)
    net.check()
    result = frontends.send(edge[3])
    print("  replica 0 retired: client@{} now served at {} in {} hops".format(
        edge[3], result.path[-1], result.hops))

    # --- Multicast feed: origin pushes to all replicas -------------------
    feed = MulticastGroup(net, "cdn-invalidation")
    for i, router in enumerate(replica_routers):
        feed.join("replica-{}".format(i), router)
    report = feed.multicast("replica-0")
    print("\nMulticast invalidation from replica-0: {} replicas reached "
          "with {} messages over a {}-edge tree (unicast fan-out: {})".format(
              len(report.receivers), report.messages,
              feed.tree_edge_count(), feed.unicast_equivalent_cost("replica-0")))
    assert report.receivers == {"replica-{}".format(i) for i in range(5)}
    feed.leave("replica-4")
    print("replica-4 left: {}-edge tree after pruning".format(
        feed.tree_edge_count()))

    # --- Default-off + capabilities for the origin server ----------------
    origin_key = KeyPair.generate(b"origin-server", net.authority)
    controller = AccessController()
    caps = CapabilityAuthority(origin_key)

    subscriber = KeyPair.generate(b"paying-subscriber", net.authority)
    stranger = KeyPair.generate(b"random-scanner", net.authority)

    controller.register(origin_key.flat_id,
                        allowed_sources={subscriber.flat_id})
    token = caps.grant(subscriber.flat_id, expires_at=3600.0)

    print("\nDefault-off origin:")
    for name, key in (("subscriber", subscriber), ("stranger", stranger)):
        admitted, reason = controller.admit(key.flat_id, origin_key.flat_id)
        print("  {:<10} network admission: {} ({})".format(
            name, "PASS" if admitted else "DROP", reason))
    print("  subscriber capability check: {}".format(
        caps.verify(token, now=100.0, claimed_src=subscriber.flat_id)))
    print("  stranger replaying the token: {}".format(
        caps.verify(token, now=100.0, claimed_src=stranger.flat_id)))


if __name__ == "__main__":
    main()
