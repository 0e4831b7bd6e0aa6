"""Tests for the perf counter/timer registry (repro.util.perf)."""

import time

from repro.util import perf
from repro.util.perf import PERF, PerfRegistry


def test_counter_accumulates():
    reg = PerfRegistry()
    reg.counter("x")
    reg.counter("x", 4)
    reg.counter("y", 2.5)
    assert reg.value("x") == 5
    assert reg.value("y") == 2.5
    assert reg.value("missing") == 0
    assert reg.value("missing", default=-1) == -1


def test_timer_records_calls_and_seconds():
    reg = PerfRegistry()
    with reg.timed("work"):
        time.sleep(0.01)
    with reg.timed("work"):
        pass
    calls, seconds, max_seconds = reg.timers["work"]
    assert calls == 2
    assert seconds >= 0.01
    # The max is the slow call alone, so it must carry most of the total
    # yet stay below it (the fast call still took > 0 seconds).
    assert 0.01 <= max_seconds <= seconds


def test_timer_snapshot_reports_mean_and_max():
    reg = PerfRegistry()
    with reg.timed("work"):
        time.sleep(0.01)
    with reg.timed("work"):
        pass
    snap = reg.snapshot()["timers"]["work"]
    assert snap["calls"] == 2
    assert snap["max"] >= snap["mean"] > 0
    assert abs(snap["mean"] - snap["seconds"] / 2) < 1e-6
    assert snap["max"] <= snap["seconds"]


def test_snapshot_is_json_shaped_and_detached():
    reg = PerfRegistry()
    reg.counter("a", 3)
    with reg.timed("t"):
        pass
    snap = reg.snapshot()
    assert snap["counters"] == {"a": 3}
    assert snap["timers"]["t"]["calls"] == 1
    assert snap["timers"]["t"]["seconds"] >= 0
    # The snapshot must not alias live registry state.
    reg.counter("a")
    assert snap["counters"]["a"] == 3


def test_reset_clears_everything():
    reg = PerfRegistry()
    reg.counter("a")
    with reg.timed("t"):
        pass
    reg.reset()
    assert reg.counters == {}
    assert reg.timers == {}


def test_module_aliases_hit_global_registry():
    PERF.reset()
    perf.counter("alias.check", 2)
    assert PERF.value("alias.check") == 2
    snap = perf.snapshot()
    assert snap["counters"]["alias.check"] == 2
    perf.reset()
    assert PERF.counters == {}


def test_histogram_percentiles_and_snapshot():
    reg = PerfRegistry()
    for v in [5, 1, 3, 2, 4]:
        reg.observe("lat", v)
    hist = reg.histogram("lat")
    assert len(hist) == 5
    assert hist.percentile(0.0) == 1
    assert hist.percentile(0.5) == 3
    assert hist.percentile(1.0) == 5
    snap = hist.snapshot()
    assert snap["count"] == 5
    assert snap["min"] == 1 and snap["max"] == 5
    assert snap["mean"] == 3
    assert snap["p50"] == 3
    # Recording after a snapshot must not mutate the taken snapshot.
    reg.observe("lat", 100)
    assert snap["max"] == 5
    assert reg.histogram("lat").percentile(1.0) == 100


def test_empty_histogram_snapshot():
    reg = PerfRegistry()
    hist = reg.histogram("nothing")
    assert hist.snapshot() == {"count": 0}
    assert len(hist) == 0


def test_registry_snapshot_omits_empty_sections():
    reg = PerfRegistry()
    reg.counter("a")
    snap = reg.snapshot()
    assert sorted(snap) == ["counters", "timers"]
    reg.observe("h", 1.5)
    snap = reg.snapshot()
    assert snap["histograms"]["h"]["count"] == 1


def test_reset_clears_histograms():
    reg = PerfRegistry()
    reg.observe("h", 1)
    reg.reset()
    assert reg.histograms == {}


def test_module_aliases_for_histogram():
    PERF.reset()
    try:
        perf.observe("alias.h", 2.0)
        assert perf.histogram("alias.h").percentile(0.5) == 2.0
    finally:
        perf.reset()


def test_experiment_drivers_attach_perf(tmp_path):
    from repro.harness import experiments

    result = experiments.fig5b_join_overhead_cdf(
        profiles=("AS3967",), n_hosts=30, seed=0)
    assert "perf" in result
    snap = result["perf"]
    assert "counters" in snap and "timers" in snap
    # Joins route lookup packets: one timed call of the forwarding entry
    # point per packet, and the hops it crossed.
    assert snap["timers"]["intra.route.lookup"]["calls"] > 0
    assert snap["counters"].get("fwd.hops", 0) > 0
    assert any(name.startswith("experiment.") for name in snap["timers"])


def test_report_formatters_skip_perf_key():
    from repro.harness import experiments, report

    result = experiments.fig5b_join_overhead_cdf(
        profiles=("AS3967",), n_hosts=30, seed=0)
    text = report.render("fig5b", result)
    assert "AS3967" in text
    assert "perf" not in text
