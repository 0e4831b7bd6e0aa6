"""Fig 5c — CDF of join latency (paper: typically <40 ms, on the order
of the network diameter because join messages run in parallel)."""

from repro.harness import report as R


def test_fig5c_join_latency_cdf(run_once):
    result = run_once(R.FIGURES["fig5c"].driver,
                      profiles=("AS1221", "AS1239", "AS3257", "AS3967"),
                      n_hosts=500, seed=0)
    print(R.render("fig5c", result))
    rows = list(R.FIGURES["fig5c"].rows(result))   # skips the "perf" key
    assert len(rows) == 4
    for profile, median_ms, p95_ms, mean_ms in rows:
        assert 0 < median_ms < 200
        assert median_ms <= p95_ms
