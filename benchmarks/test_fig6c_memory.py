"""Fig 6c — memory entries per router vs #IDs (paper: CMU-ETHERNET needs
34-1200x more memory than ROFL)."""

from repro.harness import report as R


def test_fig6c_memory(run_once):
    result = run_once(R.FIGURES["fig6c"].driver, profile="AS3967",
                      host_counts=(10, 100, 1000), seed=0)
    print(R.render("fig6c", result))
    rows = result["series"]
    # The gap widens with population: ROFL state is per-resident +
    # O(group), CMU is every-host-everywhere.
    ratios = [row["cmu_over_rofl"] for row in rows]
    assert ratios == sorted(ratios)
    assert ratios[-1] > 5
