"""§6.2 (text) — host-failure repair vs join overhead (paper: "the
overhead triggered by host failure and mobility [is] comparable to join
overhead")."""

from repro.harness import report as R


def test_fig7b_host_failure(run_once):
    figure = R.FIGURES["fig7b"]
    result = run_once(figure.driver, **figure.params(1))
    print(R.render("fig7b", result))
    assert result["failure_over_join"] < 5.0
    assert result["avg_failure"] > 0
