"""Fig 6b — per-router load, ROFL vs shortest-path OSPF (paper: the
difference is slight; no significant new hot-spots)."""

from repro.harness import report as R


def test_fig6b_load_balance(run_once):
    result = run_once(R.FIGURES["fig6b"].driver, profile="AS3967",
                      n_hosts=600, n_packets=3000, seed=0)
    print(R.render("fig6b", result))
    assert result["max_fraction_rofl"] < 3 * result["max_fraction_ospf"]
    assert 0.3 < result["top_decile_ratio"] < 3.0
