#!/usr/bin/env python
"""Mobility: the architectural motivation for routing on flat labels.

A host's identifier is the hash of its public key — it never changes when
the host moves.  This example moves a laptop across gateway routers (and
even briefly off the network) while a correspondent keeps sending to the
*same* flat label, with no resolution infrastructure anywhere.

Run:  python examples/mobile_host.py
"""

from repro import build_network
from repro.intra import ring


def main() -> None:
    net = build_network("intra", seed=3, hosts=120, n_routers=50,
                        cache_entries=1024)
    laptop = net.next_planned_host()
    correspondent = sorted(net.hosts)[0]

    gateways = net.topology.edge_routers()[::7][:4]
    print("Laptop identity: {} (hash of its public key)".format(
        laptop.flat_id))
    print("It will visit gateways: {}\n".format(", ".join(gateways)))

    receipt = net.join_host(laptop, via_router=gateways[0])
    print("Attached at {} ({} join messages)".format(
        receipt.router, receipt.messages))

    for hop, gateway in enumerate(gateways[1:], start=1):
        # Move: leave the old gateway gracefully and rejoin at the new one
        # with the *same* self-certifying identity.
        move = net.move_host(laptop.name, gateway)
        net.check()

        result = net.send(correspondent, laptop.name)
        print("Move {}: now at {:<5} leave={} rejoin={} msgs; packet to the "
              "same label delivered={} via {} hops".format(
                  hop, gateway, move.leave_messages, move.rejoin_messages,
                  result.delivered, result.hops))
        assert result.delivered
        assert result.path[-1] == gateway

    # Ephemeral attachment: a short stop where the laptop doesn't take on
    # ring duties (cannot serve as successor/predecessor).
    net.fail_host(laptop.name)
    eph = ring.join_with_id(net, laptop.flat_id, gateways[0],
                            laptop.name, ephemeral=True)
    print("\nEphemeral stop at {}: {} msgs (vs ~{} for a stable join)"
          .format(gateways[0], eph.messages,
                  round(sum(net.stats.operation_costs('join')[:-1][-3:]) / 3)))
    result = net.send(correspondent, laptop.name)
    print("Still reachable at the same label: delivered={}".format(
        result.delivered))
    assert result.delivered


if __name__ == "__main__":
    main()
