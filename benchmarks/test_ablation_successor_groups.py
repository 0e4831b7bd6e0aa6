"""Ablation — successor-group size (DESIGN.md §4).

The paper: "to increase resilience to ID failure, nodes can hold
multiple successors … successor-groups."  This bench quantifies the
trade: bigger groups cost more per-router state but make host-failure
repair cheaper (the predecessor usually repairs locally from its group
instead of issuing extra lookups)."""

from repro.intra.network import IntraDomainNetwork
from repro.topology.isp import synthetic_isp
from repro.util.rng import derive_rng

GROUP_SIZES = (1, 2, 4, 8)


def run_ablation():
    rows = []
    for group in GROUP_SIZES:
        topo = synthetic_isp(n_routers=67, seed=0, name="AS3967")
        net = IntraDomainNetwork(topo, seed=0, successor_group_size=group)
        net.join_random_hosts(400)
        state = sum(net.state_entries(include_cache=False).values())
        rng = derive_rng(0, "ablation-successor-groups", group)
        costs = [net.fail_host(rng.choice(sorted(net.hosts)))
                 for _ in range(80)]
        net.check()
        delivered = sum(net.send(*net.random_host_pair()).delivered
                        for _ in range(100))
        rows.append({"group": group, "state_entries": state,
                     "avg_repair": sum(costs) / len(costs),
                     "delivery": delivered / 100})
    return rows


def test_ablation_successor_groups(run_once):
    rows = run_once(run_ablation)
    print("\nAblation — successor-group size")
    print("{:>6} {:>14} {:>12} {:>10}".format(
        "group", "state entries", "avg repair", "delivery"))
    for row in rows:
        print("{:>6} {:>14} {:>12.1f} {:>9.0%}".format(
            row["group"], row["state_entries"], row["avg_repair"],
            row["delivery"]))
    # State grows with group size; correctness never degrades.
    states = [row["state_entries"] for row in rows]
    assert states == sorted(states)
    assert all(row["delivery"] == 1.0 for row in rows)
