"""Fig 5c — CDF of join latency (paper: typically <40 ms, on the order
of the network diameter because join messages run in parallel)."""

from repro.harness import report as R


def test_fig5c_join_latency_cdf(run_once):
    figure = R.FIGURES["fig5c"]
    result = run_once(figure.driver, **figure.params(1))
    print(R.render("fig5c", result))
    rows = list(figure.rows(result))   # skips the "perf" key
    # One row per profile the registry asks for.
    assert len(rows) == len(figure.params(1)["profiles"])
    for profile, median_ms, p95_ms, mean_ms in rows:
        assert 0 < median_ms < 200
        assert median_ms <= p95_ms
