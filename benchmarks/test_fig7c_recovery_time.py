"""§6.2 (text) — non-partition link/router failure recovery time
(paper: "link/router failures that do not trigger partitions [are]
comparable to OSPF recovery times").

ROFL's recovery for these events is exactly the link-state substrate's:
detection + LSA flood + SPF, plus a purely local cache-invalidation pass
(zero network messages, modelled at a small per-router processing cost).
The bench measures both clocks over random single-link failures.
"""

from repro.linkstate.protocol import FloodModel, OspfTimers
from repro.intra.network import IntraDomainNetwork
from repro.intra.virtualnode import uses_link
from repro.topology.isp import synthetic_isp
from repro.util.rng import derive_rng

#: Local cache-walk cost a router pays to invalidate entries over a
#: failed link (no messages; purely CPU).
LOCAL_INVALIDATION_MS = 1.0


def run_experiment():
    topo = synthetic_isp(n_routers=67, seed=0, name="AS3967")
    net = IntraDomainNetwork(topo, seed=0)
    net.join_random_hosts(300)
    model = FloodModel(net.lsmap, timers=OspfTimers())
    rng = derive_rng(0, "fig7c")
    rows = []
    edges = list(net.lsmap.links())
    rng.shuffle(edges)
    for a, b in edges[:20]:
        net.lsmap.fail_link(a, b)
        if len(net.lsmap.components()) > 1:
            net.lsmap.restore_link(a, b)
            continue
        ospf_ms = model.recovery_time_ms(a, net.paths)
        dropped = 0
        for router in net.routers.values():
            dropped += router.cache.invalidate_where(
                lambda iv, route: uses_link(route, a, b))
        rofl_ms = ospf_ms + LOCAL_INVALIDATION_MS
        rows.append({"link": (a, b), "ospf_ms": ospf_ms,
                     "rofl_ms": rofl_ms, "cache_dropped": dropped})
        net.lsmap.restore_link(a, b)
    return rows


def test_fig7c_recovery_time(run_once):
    rows = run_once(run_experiment)
    assert rows
    print("\n§6.2 — link-failure recovery time (no partition)")
    print("{:>12} {:>12} {:>14}".format("OSPF [ms]", "ROFL [ms]",
                                        "cache dropped"))
    for row in rows[:8]:
        print("{:>12.1f} {:>12.1f} {:>14}".format(
            row["ospf_ms"], row["rofl_ms"], row["cache_dropped"]))
    for row in rows:
        # ROFL adds only local work on top of OSPF convergence.
        assert row["rofl_ms"] <= row["ospf_ms"] * 1.1 + 5.0
    print("paper: ROFL recovery for non-partition failures is comparable"
          " to OSPF recovery times")
