"""Fig 5c — CDF of join latency (paper: typically <40 ms, on the order
of the network diameter because join messages run in parallel)."""

from repro.harness import report as R


def test_fig5c_join_latency_cdf(run_once):
    result = run_once(R.FIGURES["fig5c"].driver,
                      profiles=("AS1221", "AS1239", "AS3257", "AS3967"),
                      n_hosts=500, seed=0)
    print(R.render("fig5c", result))
    for profile, data in result.items():
        assert 0 < data["median_ms"] < 200
        assert data["median_ms"] <= data["p95_ms"]
