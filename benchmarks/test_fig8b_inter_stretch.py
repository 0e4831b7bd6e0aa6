"""Fig 8b — interdomain stretch CDF vs finger count, with the BGP-policy
reference (paper: 2.8 @60 fingers → 2.3 @160; more fingers, less
stretch)."""

from repro.harness import report as R


def test_fig8b_inter_stretch(run_once):
    figure = R.FIGURES["fig8b"]
    result = run_once(figure.driver, **figure.params(1))
    print(R.render("fig8b", result))
    means = {k: v["mean"] for k, v in result["fingers"].items()}
    assert means[32] <= means[4]              # fingers cut stretch
    assert 1.0 <= means[32] < 3.5             # the paper's 2-3 regime
    assert result["bgp_policy"]["mean"] >= 1.0
