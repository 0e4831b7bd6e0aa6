"""§4.2/6.3 — bloom-filter peering vs virtual-AS peering (paper: bloom
filters cut the peering join to the multihomed level, at the cost of
per-AS filter state and somewhat higher stretch, 3.29 vs 2.8)."""

from repro.harness import report as R


def test_fig8e_bloom_peering(run_once):
    result = run_once(R.FIGURES["fig8e"].driver, n_ases=100, n_hosts=400,
                      n_packets=400, seed=0)
    print(R.render("fig8e", result))
    assert result["bloom"]["mean_join"] < result["virtual_as"]["mean_join"]
    assert result["bloom"]["delivery_rate"] == 1.0
    assert result["virtual_as"]["delivery_rate"] == 1.0
    assert result["bloom"]["bloom_mbits_total"] > 0
