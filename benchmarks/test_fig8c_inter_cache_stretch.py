"""Fig 8c — interdomain stretch vs per-AS pointer-cache size (paper:
2 → 1.33 at 20M entries/AS, extrapolated)."""

from repro.harness import report as R


def test_fig8c_inter_cache_stretch(run_once):
    result = run_once(R.FIGURES["fig8c"].driver, n_ases=100, n_hosts=400,
                      cache_sizes=(0, 64, 512, 4096), n_packets=400, seed=0)
    print(R.render("fig8c", result))
    rows = result["series"]
    assert rows[-1]["mean_stretch"] <= rows[0]["mean_stretch"]
    assert rows[-1]["mean_stretch"] >= 1.0
