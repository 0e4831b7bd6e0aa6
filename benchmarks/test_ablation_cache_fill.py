"""Ablation — control-packet cache filling (DESIGN.md §4).

The paper fills pointer caches "only with contents available from
control packets".  This bench shows that design choice carries the
entire Fig 6a effect: with no cache capacity, nothing is filled and
stretch reverts to the successor-walk baseline."""

from repro.intra.network import IntraDomainNetwork
from repro.topology.isp import synthetic_isp


def run_ablation():
    out = {}
    for fill in (True, False):
        topo = synthetic_isp(n_routers=67, seed=0, name="AS3967")
        net = IntraDomainNetwork(topo, seed=0,
                                 cache_entries=8192 if fill else 0)
        net.join_random_hosts(500)
        stretches = []
        for _ in range(300):
            a, b = net.random_host_pair()
            result = net.send(a, b)
            if result.delivered and result.optimal_hops > 0:
                stretches.append(result.stretch)
        out[fill] = {
            "stretch": sum(stretches) / len(stretches),
            "cache_entries": net.cache_stats()["entries"],
        }
    return out


def test_ablation_cache_fill(run_once):
    out = run_once(run_ablation)
    print("\nAblation — control-packet cache fill")
    for fill, row in out.items():
        print("fill={!s:<6} entries={:>7} stretch={:.2f}".format(
            fill, row["cache_entries"], row["stretch"]))
    assert out[False]["cache_entries"] == 0
    assert out[True]["stretch"] < out[False]["stretch"]
