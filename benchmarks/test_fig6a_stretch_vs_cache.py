"""Fig 6a — intradomain stretch vs pointer-cache size (paper: stretch
drops to ~1.2-2 with the 9 Mbit / ~70k-entry TCAM budget)."""

from repro.harness import report as R
from repro.topology.isp import TCAM_ENTRIES


def test_fig6a_stretch_vs_cache(run_once):
    result = run_once(R.FIGURES["fig6a"].driver, profile="AS3967",
                      cache_sizes=(0, 16, 64, 256, 1024, 8192, TCAM_ENTRIES),
                      n_hosts=1000, n_packets=500, seed=0)
    print(R.render("fig6a", result))
    series = dict(result["series"])
    assert series[TCAM_ENTRIES] < series[0]            # caching helps
    assert series[TCAM_ENTRIES] < 3.0                  # paper's regime
    assert series[TCAM_ENTRIES] >= 1.0
    # Monotone-ish: bigger caches never hurt much.
    ordered = [series[c] for c in sorted(series)]
    assert ordered[-1] <= ordered[0]
