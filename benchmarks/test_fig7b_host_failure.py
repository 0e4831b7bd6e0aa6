"""§6.2 (text) — host-failure repair vs join overhead (paper: "the
overhead triggered by host failure and mobility [is] comparable to join
overhead")."""

from repro.harness import report as R


def test_fig7b_host_failure(run_once):
    result = run_once(R.FIGURES["fig7b"].driver, profile="AS3967",
                      n_hosts=800, n_failures=200, seed=0)
    print(R.render("fig7b", result))
    assert result["failure_over_join"] < 5.0
    assert result["avg_failure"] > 0
