"""Fig 8c — interdomain stretch vs per-AS pointer-cache size (paper:
2 → 1.33 at 20M entries/AS, extrapolated)."""

from repro.harness import report as R


def test_fig8c_inter_cache_stretch(run_once):
    figure = R.FIGURES["fig8c"]
    result = run_once(figure.driver, **figure.params(1))
    print(R.render("fig8c", result))
    rows = result["series"]
    assert rows[-1]["mean_stretch"] <= rows[0]["mean_stretch"]
    assert rows[-1]["mean_stretch"] >= 1.0
