#!/usr/bin/env python
"""Quickstart: bring up an ISP running ROFL and route on flat labels.

Builds a synthetic PoP-structured ISP, joins hosts whose identifiers are
hashes of their public keys (no location semantics whatsoever), routes
packets greedily on the identifier ring, and shows the effect of the
pointer cache.

Run:  python examples/quickstart.py
"""

from repro import build_network


def main() -> None:
    print("Building a 60-router ISP and joining 200 hosts...")
    net = build_network("intra", seed=1, hosts=200, n_routers=60,
                        cache_entries=1024)
    net.check()
    print("  ring consistent: {} identifiers ({} hosts + {} router IDs)"
          .format(len(net.vn_index), net.n_hosts, len(net.routers)))

    join_costs = net.stats.operation_costs("join")
    print("  avg join overhead: {:.1f} messages (network diameter {})"
          .format(sum(join_costs) / len(join_costs), net.topology.diameter()))

    print("\nRouting 200 random packets on flat labels...")
    delivered, stretches, cache_hits = 0, [], 0
    for _ in range(200):
        src, dst = net.random_host_pair()
        result = net.send(src, dst)
        delivered += result.delivered
        cache_hits += result.used_cache
        if result.delivered and result.optimal_hops > 0:
            stretches.append(result.stretch)
    print("  delivered: {}/200".format(delivered))
    print("  mean stretch vs shortest path: {:.2f}".format(
        sum(stretches) / len(stretches)))
    print("  packets that shortcut through a pointer cache: {}".format(
        cache_hits))

    print("\nFailing a host and verifying the ring heals...")
    victim = sorted(net.hosts)[0]
    messages = net.fail_host(victim)
    net.check()
    print("  repaired with {} messages; ring still consistent".format(messages))

    print("\nDisconnecting and reconnecting a whole PoP...")
    report = net.partition_pop(0)
    print("  {} IDs were in the PoP; disconnect repair {} msgs, "
          "zero-ID merge {} msgs".format(report.ids_in_pop,
                                         report.disconnect_messages,
                                         report.reconnect_messages))
    print("  single consistent ring restored.")


if __name__ == "__main__":
    main()
