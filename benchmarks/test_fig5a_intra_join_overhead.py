"""Fig 5a — cumulative intradomain join overhead vs #hosts, per ISP,
with the CMU-ETHERNET flood baseline (paper: 37-181x more messages)."""

from repro.harness import report as R


def test_fig5a_intra_join_overhead(run_once):
    result = run_once(R.FIGURES["fig5a"].driver,
                      profiles=("AS1221", "AS1239", "AS3257", "AS3967"),
                      host_counts=(10, 100, 1000), seed=0)
    print(R.render("fig5a", result))
    for profile, data in result["profiles"].items():
        # Linear scaling: per-host cost roughly flat in the host count.
        per_host = [c / h for c, h in zip(data["rofl_cumulative"],
                                          result["host_counts"])]
        assert max(per_host) < 4 * min(per_host)
        # CMU-ETHERNET is uniformly, substantially worse.
        assert all(ratio > 2 for ratio in data["cmu_over_rofl"])
