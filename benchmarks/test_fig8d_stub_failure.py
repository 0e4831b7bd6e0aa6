"""§6.3 — stub-AS failure impact (paper: 99.998% of paths unaffected;
repair messages roughly the number of IDs in the failed stub)."""

from repro.harness import report as R


def test_fig8d_stub_failure(run_once):
    figure = R.FIGURES["fig8d"]
    result = run_once(figure.driver, **figure.params(1))
    print(R.render("fig8d", result))
    for row in result["failures"]:
        assert row["post_delivery"] == 1.0        # survivors unaffected
        assert row["repair_messages"] <= 60 * row["ids"]
        # At the paper's 600M scale, the endpoint fraction vanishes.
        assert row["endpoint_fraction_600M"] < 1e-4
