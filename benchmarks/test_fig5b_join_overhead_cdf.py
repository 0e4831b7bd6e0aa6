"""Fig 5b — CDF of per-host join overhead (paper: <45 packets,
roughly 4x network diameter)."""

from repro.harness import report as R


def test_fig5b_join_overhead_cdf(run_once):
    figure = R.FIGURES["fig5b"]
    result = run_once(figure.driver, **figure.params(1))
    print(R.render("fig5b", result))
    # The registry's own row extractor: ``result`` also carries the
    # ``perf`` key every driver attaches.
    rows = list(figure.rows(result))
    # One row per profile the registry asks for.
    assert len(rows) == len(figure.params(1)["profiles"])
    for profile, median, p95, mean, diameter, per_diameter in rows:
        assert p95 < 10 * diameter
        assert 1.0 < per_diameter < 8.0
        assert median <= p95
