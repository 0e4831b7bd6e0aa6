"""Every figure driver runs at tiny scale and reports the expected shape."""

import pytest

from repro.harness import experiments as E
from repro.harness import report as R
from tests import golden_figures


@pytest.fixture(scope="module")
def tiny():
    """Shared tiny-scale results so drivers run once per module."""
    return {
        "fig5a": E.fig5a_intra_join_overhead(profiles=("AS3967",),
                                             host_counts=(10, 50, 200)),
        "fig5b": E.fig5b_join_overhead_cdf(profiles=("AS3967",), n_hosts=150),
        "fig5c": E.fig5c_join_latency_cdf(profiles=("AS3967",), n_hosts=100),
        "fig6a": E.fig6a_stretch_vs_cache(cache_sizes=(0, 512), n_hosts=200,
                                          n_packets=120),
        "fig6b": E.fig6b_load_balance(n_hosts=150, n_packets=300),
        "fig6c": E.fig6c_memory(host_counts=(10, 100)),
        "fig7": E.fig7_partition_repair(ids_per_pop=(1, 8)),
        "fig7b": E.fig7b_host_failure(n_hosts=150, n_failures=30),
        "fig8a": E.fig8a_inter_join(n_ases=50, n_hosts=120),
        "fig8b": E.fig8b_inter_stretch(n_ases=50, n_hosts=120,
                                       finger_counts=(0, 12), n_packets=120),
        "fig8c": E.fig8c_inter_cache_stretch(n_ases=50, n_hosts=120,
                                             cache_sizes=(0, 512),
                                             n_packets=120),
        "fig8d": E.fig8d_stub_failure(n_ases=50, n_hosts=150, n_failures=3),
        "fig8e": E.fig8e_bloom_peering(n_ases=50, n_hosts=100, n_packets=100),
    }


def test_fig5a_linear_and_cheaper_than_cmu(tiny):
    data = tiny["fig5a"]["profiles"]["AS3967"]
    assert data["rofl_cumulative"][-1] > data["rofl_cumulative"][0]
    assert all(r > 2 for r in data["cmu_over_rofl"])
    # Roughly linear: cost per host stays within a small band.
    per_host_early = data["rofl_cumulative"][0] / 10
    per_host_late = data["rofl_cumulative"][-1] / 200
    assert per_host_late < 3 * per_host_early


def test_fig5b_join_bounded_by_diameter_multiple(tiny):
    data = tiny["fig5b"]["AS3967"]
    assert data["p95"] < 10 * data["diameter"]
    assert 1 < data["per_diameter"] < 8


def test_fig5c_latencies_sane(tiny):
    data = tiny["fig5c"]["AS3967"]
    assert 0 < data["median_ms"] < data["p95_ms"] < 1000


def test_fig6a_cache_reduces_stretch(tiny):
    series = dict(tiny["fig6a"]["series"])
    assert series[512] < series[0]
    assert series[512] >= 1.0


def test_fig6b_no_hotspots(tiny):
    data = tiny["fig6b"]
    assert data["max_fraction_rofl"] < 4 * data["max_fraction_ospf"]
    assert 0.2 < data["top_decile_ratio"] < 5


def test_fig6c_memory_ratio_grows_with_ids(tiny):
    rows = tiny["fig6c"]["series"]
    assert rows[-1]["cmu_over_rofl"] > rows[0]["cmu_over_rofl"]
    assert rows[-1]["cmu_avg_entries"] == rows[-1]["ids"]


def test_fig7_repair_scales_with_pop_population(tiny):
    rows = tiny["fig7"]["series"]
    assert rows[-1]["repair_messages"] >= rows[0]["repair_messages"]
    for row in rows:
        assert row["repair_messages"] < 40 * max(1, row["rejoin_baseline"])


def test_fig7b_failure_comparable_to_join(tiny):
    assert tiny["fig7b"]["failure_over_join"] < 6


def test_fig8a_strategy_ordering(tiny):
    s = tiny["fig8a"]["strategies"]
    assert s["ephemeral"]["mean"] < s["single-homed"]["mean"]
    assert s["multihomed"]["mean"] < s["peering"]["mean"]
    assert all(d["mismatches"] == 0 for d in s.values())
    extrap = tiny["fig8a"]["extrapolation_600M"]
    assert extrap["peering"] > extrap["multihomed"]


def test_fig8b_fingers_reduce_stretch(tiny):
    fingers = tiny["fig8b"]["fingers"]
    assert fingers[12]["mean"] < fingers[0]["mean"]
    assert tiny["fig8b"]["bgp_policy"]["mean"] >= 1.0


def test_fig8c_cache_monotone_not_worse(tiny):
    rows = tiny["fig8c"]["series"]
    assert rows[-1]["mean_stretch"] <= rows[0]["mean_stretch"] + 0.05


def test_fig8d_failures_contained(tiny):
    for row in tiny["fig8d"]["failures"]:
        assert row["post_delivery"] == 1.0
        assert row["endpoint_fraction_600M"] < 1e-4
        assert row["repair_messages"] <= 60 * row["ids"]


def test_fig8e_bloom_tradeoff(tiny):
    data = tiny["fig8e"]
    assert data["bloom"]["mean_join"] < data["virtual_as"]["mean_join"]
    assert data["bloom"]["delivery_rate"] == 1.0
    assert data["virtual_as"]["delivery_rate"] == 1.0


def test_all_formatters_render(tiny):
    for figure_id, result in tiny.items():
        text = R.render(figure_id, result)
        assert "paper:" in text
        assert len(text.splitlines()) >= 3


def test_golden_covers_the_registry():
    assert list(golden_figures.TEXT) == list(R.FIGURES)


@pytest.fixture(scope="module")
def captured_sizes(tiny):
    """Every driver at the sizes ``golden_figures.RESULTS`` was captured
    at: ``tiny`` plus the two figures it holds at their own sizes."""
    return dict(
        tiny, fig7c=E.fig7c_router_recovery(n_hosts=100, n_failures=2),
        headtohead=E.headtohead_stretch(n_hosts=40, n_packets=60, n_ases=20,
                                        inter_hosts=30, inter_packets=30,
                                        all_pairs_hosts=10))


#: Fields ``RESULTS`` holds but does not pin: it was captured before
#: interdomain ROFL counted ``state_entries``, so its ``memory`` there
#: reads ``{mean: None, max: None}`` where the driver now measures.
NOT_CAPTURED = {("headtohead", "inter", "rofl", "memory")}


def _as_captured(value, path):
    """``value`` cut the way ``RESULTS`` was at capture: no ``perf`` key,
    every ``cdf`` list and fig6b's ``series`` at five rows, and none of
    :data:`NOT_CAPTURED`."""
    if not isinstance(value, dict):
        return value
    out = {}
    for key, item in value.items():
        where = path + (key,)
        if key == "perf" or where in NOT_CAPTURED:
            continue
        cut = key == "cdf" or where == ("fig6b", "series")
        out[key] = list(item[:5]) if cut else _as_captured(item, where)
    return out


@pytest.mark.parametrize("figure_id", list(R.FIGURES))
def test_driver_numbers_are_the_captured_ones(captured_sizes, figure_id):
    """The rendering test below pins the renderer; this pins what the
    drivers compute, so a refactor that moves one number fails tier-1."""
    assert (_as_captured(captured_sizes[figure_id], (figure_id,))
            == _as_captured(golden_figures.RESULTS[figure_id], (figure_id,)))


@pytest.mark.parametrize("figure_id", list(R.FIGURES))
def test_render_is_byte_identical_to_the_retired_formatters(figure_id):
    """The registry's table specs against what the hand-written
    ``format_*`` functions printed for the same results (captured at the
    commit before they were deleted)."""
    assert (R.render(figure_id, golden_figures.RESULTS[figure_id])
            == golden_figures.TEXT[figure_id])
