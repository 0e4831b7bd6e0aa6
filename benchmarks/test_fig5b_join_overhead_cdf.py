"""Fig 5b — CDF of per-host join overhead (paper: <45 packets,
roughly 4x network diameter)."""

from repro.harness import report as R


def test_fig5b_join_overhead_cdf(run_once):
    result = run_once(R.FIGURES["fig5b"].driver,
                      profiles=("AS1221", "AS1239", "AS3257", "AS3967"),
                      n_hosts=800, seed=0)
    print(R.render("fig5b", result))
    # The registry's own row extractor: ``result`` also carries the
    # ``perf`` key every driver attaches.
    rows = list(R.FIGURES["fig5b"].rows(result))
    assert len(rows) == 4
    for profile, median, p95, mean, diameter, per_diameter in rows:
        assert p95 < 10 * diameter
        assert 1.0 < per_diameter < 8.0
        assert median <= p95
