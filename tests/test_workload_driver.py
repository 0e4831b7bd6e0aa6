"""End-to-end tests for the workload driver and metrics recorder."""

import json
from pathlib import Path

import pytest

from repro import build_network
from repro.topology.hosts import HostTable
from repro.workload.driver import WorkloadDriver, run_scenario
from repro.workload.scenario import (ChurnSpec, FaultSpec, NetworkSpec, Phase,
                                     Scenario, ScenarioError, TrafficSpec,
                                     builtin_scenario)
from tests import workload_reference


def _small_scenario(seed=0, **overrides) -> Scenario:
    """A fast (~0.1s) intradomain churn scenario used across these tests."""
    kwargs = dict(
        name="test-small",
        seed=seed,
        duration=20.0,
        warmup_hosts=30,
        sample_interval=5.0,
        network=NetworkSpec(kind="intra", n_routers=16, name="test-small"),
        phases=[Phase(
            name="churn", start=0.0, end=20.0,
            churn=ChurnSpec(arrival_rate=1.5,
                            lifetime={"kind": "pareto", "shape": 1.5,
                                      "scale": 6.0}),
            traffic=TrafficSpec(rate=4.0,
                                popularity={"kind": "zipf",
                                            "exponent": 0.9}))],
        faults=[FaultSpec(kind="link_cut", at=10.0,
                          params={"count": 2, "restore_after": 5.0})],
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def test_same_seed_reproduces_deterministic_view():
    a = run_scenario(_small_scenario(seed=3))
    b = run_scenario(_small_scenario(seed=3))
    assert a.deterministic_view() == b.deterministic_view()


def test_different_seed_diverges():
    a = run_scenario(_small_scenario(seed=1))
    b = run_scenario(_small_scenario(seed=2))
    assert a.deterministic_view() != b.deterministic_view()


def test_deterministic_view_excludes_wall_clock():
    view = run_scenario(_small_scenario()).deterministic_view()
    assert set(view) == {"scenario", "samples", "summary", "totals",
                         "fault_log", "violations"}


def test_time_series_shape_and_totals():
    scenario = _small_scenario()
    result = run_scenario(scenario)
    # One row per sample interval (20 / 5), each carrying the full schema.
    assert [row["t"] for row in result.samples] == [5.0, 10.0, 15.0, 20.0]
    for row in result.samples:
        assert {"live_hosts", "sent", "delivered", "delivery_rate",
                "mean_stretch", "control_messages", "state_entries",
                "joins", "departures", "queue_depth"} <= set(row)
    totals = result.totals
    assert totals["warmup_hosts"] == 30
    assert totals["joins"] > 0
    assert totals["packets_sent"] > 0
    assert sum(r["joins"] for r in result.samples) == totals["joins"]
    assert sum(r["sent"] for r in result.samples) == totals["packets_sent"]
    assert totals["final_live_hosts"] == result.samples[-1]["live_hosts"]
    assert result.summary["delivery_rate"] is not None
    assert 0.0 <= result.summary["delivery_rate"] <= 1.0


def test_fault_log_records_cut_and_restore():
    result = run_scenario(_small_scenario())
    kinds = [record["kind"] for record in result.fault_log]
    assert kinds.count("link_cut") == 1
    assert kinds.count("link_restore") == 1
    cut = next(r for r in result.fault_log if r["kind"] == "link_cut")
    restore = next(r for r in result.fault_log if r["kind"] == "link_restore")
    assert cut["at"] == 10.0 and restore["at"] == 15.0
    assert sorted(map(tuple, cut["links"])) == \
        sorted(map(tuple, restore["links"]))
    assert result.totals["faults_fired"] == 2


def test_departures_shrink_membership():
    scenario = _small_scenario(
        duration=15.0, sample_interval=15.0,
        phases=[Phase(name="blip", start=0.0, end=15.0,
                      churn=ChurnSpec(arrival_rate=2.0,
                                      lifetime={"kind": "fixed",
                                                "value": 1.0}))],
        faults=[])
    result = run_scenario(scenario)
    assert result.totals["departures"] > 0
    # Fixed 1-unit lifetimes: nearly everyone who joined has departed.
    assert result.totals["final_live_hosts"] <= \
        result.totals["warmup_hosts"] + 3


def test_crash_departure_mode():
    scenario = _small_scenario(
        duration=10.0, sample_interval=10.0,
        phases=[Phase(name="crashy", start=0.0, end=10.0,
                      churn=ChurnSpec(arrival_rate=2.0,
                                      lifetime={"kind": "fixed",
                                                "value": 2.0},
                                      departure="fail"))],
        faults=[])
    result = run_scenario(scenario)
    assert result.totals["departures"] > 0


def test_interdomain_scenario_runs():
    scenario = builtin_scenario("depeering", seed=0)
    scenario.duration = 20.0
    scenario.warmup_hosts = 40
    scenario.faults = [FaultSpec(kind="as_depeer", at=10.0,
                                 params={"stub_only": True})]
    result = run_scenario(scenario)
    assert result.totals["joins"] > 0
    depeer = next(r for r in result.fault_log if r["kind"] == "as_depeer")
    assert depeer["asn"] is not None
    assert result.summary["delivery_rate"] is not None


def test_interdomain_departure_rejected_at_validation():
    scenario = builtin_scenario("depeering")
    scenario.phases[0].churn.lifetime = {"kind": "fixed", "value": 1.0}
    with pytest.raises(ScenarioError):
        WorkloadDriver(scenario)


def test_rng_streams_are_cached_and_scoped():
    driver = WorkloadDriver(_small_scenario())
    assert driver.rng("a") is driver.rng("a")
    assert driver.rng("a") is not driver.rng("b")


def test_builtin_steady_churn_acceptance():
    """The ISSUE acceptance scenario: builtin churn runs end-to-end and
    two same-seed runs agree byte-for-byte."""
    a = run_scenario(builtin_scenario("steady-churn", seed=0))
    b = run_scenario(builtin_scenario("steady-churn", seed=0))
    assert a.deterministic_view() == b.deterministic_view()
    assert a.totals["joins"] > 50
    assert a.summary["delivery_rate"] > 0.9
    assert any(r["kind"] == "link_cut" for r in a.fault_log)


def test_observing_a_run_does_not_change_its_view(tmp_path):
    """One window row per run: the metrics stream is the rows ``sample()``
    already closes, so a run with ``metrics_out`` set, a run under a
    tracer and an unobserved run have one deterministic view — but for
    ``totals["metrics_windows"]``, which counts the rows streamed.  (The
    stream used to be a second event chain on the loop: ``events_run`` and
    every ``queue_depth`` moved when it was on.)"""
    import io

    from repro.obs import NullSink, Tracer, trace

    def view(result):
        view = result.deterministic_view()
        return dict(view, totals={key: value
                                  for key, value in view["totals"].items()
                                  if key != "metrics_windows"})

    plain = run_scenario(_small_scenario(seed=5))
    buffer = io.StringIO()
    streamed = run_scenario(_small_scenario(seed=5), metrics_out=buffer)
    tracer = Tracer(NullSink())
    with trace.tracing(tracer):
        traced = run_scenario(_small_scenario(seed=5), tracer=tracer)
    assert tracer.records_emitted > 0
    assert view(streamed) == view(plain) == view(traced)
    assert traced.totals == plain.totals
    assert plain.totals["metrics_windows"] == 0
    assert streamed.totals["metrics_windows"] == len(streamed.samples) == 4

    # The stream is the samples, line for line.
    lines = buffer.getvalue().splitlines()
    assert [json.loads(line) for line in lines] == streamed.samples
    assert all(line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":")) for line in lines)

    # A path works like a file object, and is closed when the run ends.
    path = tmp_path / "metrics.jsonl"
    run_scenario(_small_scenario(seed=5), metrics_out=str(path))
    assert path.read_text() == buffer.getvalue()
    assert not buffer.closed


def test_metrics_stream_is_deterministic_across_replays(tmp_path):
    def run(tag):
        path = tmp_path / "metrics-{}.jsonl".format(tag)
        result = run_scenario(_small_scenario(seed=5), metrics_out=str(path))
        return path.read_bytes(), result

    first_bytes, first = run("a")
    second_bytes, _ = run("b")
    # Same seed -> byte-identical metrics JSONL (no wall clock in a row).
    assert first_bytes and first_bytes == second_bytes
    rows = [json.loads(line) for line in first_bytes.decode().splitlines()]
    assert len(rows) == first.totals["metrics_windows"] > 0
    # Virtual-time stamps on the sampling cadence.
    assert [row["t"] for row in rows] == [5.0, 10.0, 15.0, 20.0]


def test_one_streamed_row_per_sample(tmp_path):
    """There is one window, the scenario's ``sample_interval``: a run
    streams as many rows as it has samples."""
    path = tmp_path / "metrics.jsonl"
    result = run_scenario(_small_scenario(seed=1), metrics_out=str(path))
    assert result.totals["metrics_windows"] == len(result.samples)
    assert len(path.read_text().splitlines()) == len(result.samples)


def test_no_metrics_out_means_no_windows():
    result = run_scenario(_small_scenario(seed=0))
    assert result.totals["metrics_windows"] == 0


# ---------------------------------------------------------------------------
# Event-driven membership (PR 17): the live list is kept current at the
# departure and fault sites; tests/workload_reference.py is the parent's
# per-packet scan it must agree with.
# ---------------------------------------------------------------------------

class _ReferenceMembership:
    """The parent's bookkeeping beside a driver: told of the same joins,
    it finds out about everything else by scanning ``net.hosts``."""

    live_hosts = workload_reference.live_hosts
    note_join = workload_reference.note_join

    def __init__(self, net):
        self.net, self._live, self._live_set = net, [], set()


def _run_beside_reference(scenario: Scenario):
    """Run ``scenario`` asserting, after *every* event, that the driver's
    live list is what the reference scan would return."""
    driver = WorkloadDriver(scenario)
    shadow = _ReferenceMembership(driver.net)
    note_join = driver.note_join

    def note_join_both(name):
        note_join(name)
        shadow.note_join(name)
    driver.note_join = note_join_both
    compared = []

    def on_event(event):
        callback = event.callback

        def run_then_compare():
            callback()
            assert driver.live_hosts() == shadow.live_hosts(), \
                "live list diverged at t={}".format(driver.loop.now)
            compared.append(driver.loop.now)
        event.callback = run_then_compare
    driver.loop.on_event = on_event
    result = driver.run()
    assert len(compared) == result.totals["events_run"] > 0
    assert result.totals["final_live_hosts"] == len(shadow.live_hosts())
    return result


def _churn_phase(name, start, end, departure):
    return Phase(name=name, start=start, end=end,
                 churn=ChurnSpec(arrival_rate=2.0, departure=departure,
                                 lifetime={"kind": "pareto", "shape": 1.5,
                                           "scale": 3.0}),
                 traffic=TrafficSpec(rate=4.0, popularity={"kind": "zipf",
                                                           "exponent": 0.9}))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_live_list_tracks_reference_scan_through_every_intra_fault(seed):
    result = _run_beside_reference(_small_scenario(
        seed=seed, duration=40.0, warmup_hosts=40,
        phases=[_churn_phase("graceful", 0.0, 20.0, "leave"),
                _churn_phase("crashy", 20.0, 40.0, "fail")],
        faults=[FaultSpec("link_cut", 6.0, {"count": 2,
                                            "restore_after": 5.0}),
                FaultSpec("host_crash", 9.0, {"count": 5}),
                FaultSpec("pop_partition", 14.0),
                FaultSpec("router_crash", 24.0, {"count": 2}),
                FaultSpec("host_crash", 30.0, {"count": 4}),
                FaultSpec("pop_partition", 34.0)]))
    assert [r["kind"] for r in result.fault_log] == [
        "link_cut", "host_crash", "link_restore", "pop_partition",
        "router_crash", "host_crash", "pop_partition"]
    # Scheduled departures of both modes, on top of the nine crash victims
    # (some of whose own departures then find them already gone).
    assert result.totals["departures"] > 9 + 10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_live_list_tracks_reference_scan_through_depeering(seed):
    scenario = builtin_scenario("depeering", seed=seed)
    scenario.duration, scenario.warmup_hosts = 30.0, 60
    scenario.phases[0].end = 30.0
    scenario.faults = [
        FaultSpec("as_depeer", 8.0, {"stub_only": True,
                                     "restore_after": 6.0}),
        FaultSpec("as_depeer", 20.0, {"stub_only": False})]
    result = _run_beside_reference(scenario)
    assert [r["kind"] for r in result.fault_log] == [
        "as_depeer", "as_restore", "as_depeer"]
    assert result.totals["departures"] > 0


def test_fault_done_reconciles_hosts_lost_behind_the_drivers_back():
    driver = WorkloadDriver(_small_scenario(faults=[]))
    driver._warmup()
    before = list(driver.live_hosts())
    lost = [before[3], before[17]]
    for name in lost:
        driver.net.fail_host(name)          # the driver is not told
    driver.fault_done({"kind": "test", "at": 0.0})
    assert driver.live_hosts() == [n for n in before if n not in lost]
    assert driver.fault_log == [{"kind": "test", "at": 0.0}]


def test_departure_of_an_already_gone_host_still_drops_its_name():
    driver = WorkloadDriver(_small_scenario(faults=[]))
    driver._warmup()
    victim = driver.live_hosts()[5]
    driver.net.fail_host(victim)
    driver._departure(victim, "leave")      # early path: nothing to depart
    assert victim not in driver.live_hosts()
    assert len(driver.live_hosts()) == 29


GOLDEN_VIEWS = json.loads(
    (Path(__file__).parent / "golden_workload_views.json").read_text())


@pytest.mark.parametrize("key", sorted(GOLDEN_VIEWS))
def test_builtin_views_match_the_parent_capture(key):
    """``deterministic_view()`` of every builtin at seeds 0-3 against JSON
    captured at the parent commit of PR 17 (the per-packet scan and the
    normalised Zipf vectors) — never regenerate it from the current code."""
    name, seed = key.split("@")
    view = run_scenario(builtin_scenario(name, seed=int(seed))) \
        .deterministic_view()
    assert json.loads(json.dumps(view)) == GOLDEN_VIEWS[key]


class _CountingHosts(HostTable):
    """``net.hosts`` that counts membership probes (``name in hosts``)."""

    __slots__ = ("probes",)

    def __init__(self):
        super().__init__()
        self.probes = 0

    def __contains__(self, name):
        self.probes += 1
        return super().__contains__(name)


@pytest.mark.parametrize("live", [500, 4000])
def test_membership_probes_per_packet_do_not_grow_with_live_hosts(live):
    """Noise-free scaling guard (a count, not a clock): with no fault and
    no departure the driver has no reason to ask ``net.hosts`` about
    anyone.  The parent probed about once per live host per packet."""
    scenario = _small_scenario(
        warmup_hosts=0, duration=10.0, faults=[],
        phases=[Phase(name="traffic", start=0.0, end=10.0,
                      traffic=TrafficSpec(rate=20.0,
                                          popularity={"kind": "zipf"}))])
    net = build_network("intra", scenario.seed, n_routers=16,
                        name="test-small")
    net.hosts = hosts = _CountingHosts()
    driver = WorkloadDriver(scenario, network=net)
    for _ in range(live):       # joined by the caller, as bench/ does
        driver.note_join(net.join_host(net.next_planned_host()).host_name)
    hosts.probes = 0
    result = driver.run()
    packets = result.totals["packets_sent"]
    assert result.totals["final_live_hosts"] == live and packets > 100
    assert hosts.probes <= 2 * packets


# ---------------------------------------------------------------------------
# The Network contract (PR 18): any registered kind binds to the unmodified
# driver, and the fault vocabulary no run used to reach.
# ---------------------------------------------------------------------------

def _disco_churn(seed=5) -> Scenario:
    return Scenario(
        name="disco-churn", seed=seed, duration=20.0, warmup_hosts=80,
        sample_interval=5.0,
        network=NetworkSpec(kind="disco", n_routers=24, name="disco-churn"),
        phases=[Phase(
            name="churn", start=0.0, end=20.0,
            churn=ChurnSpec(arrival_rate=5.0, departure="leave",
                            lifetime={"kind": "pareto", "shape": 1.5,
                                      "scale": 2.0}),
            traffic=TrafficSpec(rate=60.0, popularity={"kind": "zipf",
                                                       "exponent": 0.9}))])


def _run_probed(scenario: Scenario):
    """Run with the kind's standard probes live on a tracer (the event-driven
    ones, ``StretchBoundProbe`` among them, see every packet's ``end``)."""
    from repro.obs import NullSink, Tracer, trace
    tracer = Tracer(NullSink())
    driver = WorkloadDriver(scenario, tracer=tracer, probes=True)
    with trace.tracing(tracer):
        return driver, driver.run()


def test_disco_runs_a_churn_scenario_through_the_unmodified_driver():
    """Compact routing under arrivals, graceful leaves and Zipf traffic:
    every packet delivered within the provable stretch bound *while* the
    vicinity tables and the locator directory churn."""
    driver, result = _run_probed(_disco_churn())
    assert driver.net.kind == "disco"
    assert [type(p).__name__ for p in driver.probes.probes] == [
        "StretchBoundProbe"]
    assert result.violations == []
    totals, summary = result.totals, result.summary
    assert (totals["joins"], totals["departures"]) == (107, 84)
    assert totals["failed_joins"] == 0
    assert totals["packets_delivered"] == totals["packets_sent"] == 1244
    assert summary["delivery_rate"] == 1.0
    assert 1.0 < summary["stretch"]["p99"] <= driver.net.stretch_bound
    assert totals["final_live_hosts"] == driver.net.n_hosts
    driver.net.check()
    assert _run_probed(_disco_churn())[1].deterministic_view() == \
        result.deterministic_view()


def _cycle_link(net):
    """A link whose cut cannot partition the ISP (it lies on a cycle)."""
    import networkx as nx
    bridges = {frozenset(edge) for edge in nx.bridges(
        nx.Graph(list(net.topology.links())))}
    return next([a, b] for a, b in sorted(net.topology.links())
                if frozenset((a, b)) not in bridges)


def test_explicit_link_cut_then_link_restore():
    net = build_network("intra", 2, n_routers=16, name="test-small")
    link = _cycle_link(net)
    scenario = _small_scenario(
        seed=2, phases=[Phase(
            name="grow", start=0.0, end=20.0,
            churn=ChurnSpec(arrival_rate=1.5),
            traffic=TrafficSpec(rate=4.0))],
        faults=[FaultSpec("link_cut", 5.0, {"links": [link]}),
                FaultSpec("link_restore", 12.0, {"links": [link]})])
    scenario = Scenario.from_json(scenario.to_json())    # as a file would
    down_at_8 = []
    driver = WorkloadDriver(scenario, network=net)
    driver.loop.schedule_at(8.0, lambda: down_at_8.append(
        not net.lsmap.is_link_up(*link)))
    result = driver.run()
    cut, restore = result.fault_log
    assert cut == {"kind": "link_cut", "at": 5.0, "links": [link],
                   "cache_entries_dropped": cut["cache_entries_dropped"]}
    assert restore == {"kind": "link_restore", "at": 12.0, "links": [link]}
    assert down_at_8 == [True] and net.lsmap.is_link_up(*link)
    assert result.summary["delivery_rate"] == 1.0
    net.check()


@pytest.mark.parametrize("fault", [
    FaultSpec("link_cut", 5.0, {"links": [["r0", "nope"]]}),
    FaultSpec("link_restore", 5.0, {"links": [["r0", "r0"]]}),
    FaultSpec("router_crash", 5.0, {"routers": ["nope"]})],
    ids=lambda fault: fault.kind)
def test_a_fault_naming_an_unknown_victim_refuses_the_run(fault):
    """Before anything is scheduled or joined — these used to log the
    fault as done (``link_cut`` also moved the state hash) and carry on."""
    from repro import snapshot
    net = build_network("intra", 2, n_routers=16, hosts=10, name="test-small")
    before = snapshot.state_hash(net)
    scenario = _small_scenario(seed=2, faults=[
        FaultSpec("link_cut", 1.0, {"links": [_cycle_link(net)]}), fault])
    with pytest.raises(ScenarioError,
                       match="fault '{}' at 5.0: unknown ".format(fault.kind)):
        WorkloadDriver(scenario, network=net)
    assert snapshot.state_hash(net) == before
    with pytest.raises(KeyError, match="unknown link"):
        net.fail_link("r0", "nope")
    assert snapshot.state_hash(net) == before


def test_explicit_as_depeer_then_as_restore():
    net = build_network("inter", 4, n_ases=20, hosts=60, name="test-depeer")
    asn = next(a for a in sorted(net.asg.stubs(), key=str)
               if net.ases[a].hosted)
    ids = len(net.ases[asn].hosted)
    scenario = Scenario(
        name="test-depeer", seed=4, duration=20.0, warmup_hosts=30,
        sample_interval=5.0,
        network=NetworkSpec(kind="inter", n_ases=20, name="test-depeer"),
        phases=[Phase(name="grow", start=0.0, end=20.0,
                      churn=ChurnSpec(arrival_rate=1.5),
                      traffic=TrafficSpec(rate=4.0))],
        faults=[FaultSpec("as_depeer", 5.0, {"asn": asn}),
                FaultSpec("as_restore", 12.0, {"asn": asn})])
    scenario = Scenario.from_json(scenario.to_json())
    down_at_8 = []
    driver = WorkloadDriver(scenario, network=net)
    driver.loop.schedule_at(8.0,
                            lambda: down_at_8.append(not net.as_is_up(asn)))
    result = driver.run()
    depeer, restore = result.fault_log
    assert depeer == {"kind": "as_depeer", "at": 5.0, "asn": str(asn),
                      "ids": depeer["ids"],
                      "repair_messages": depeer["repair_messages"]}
    # Arrivals before t=5 may have landed there too.
    assert depeer["ids"] >= ids > 0 and depeer["repair_messages"] > 0
    assert restore == {"kind": "as_restore", "at": 12.0, "asn": str(asn)}
    assert down_at_8 == [True] and net.as_is_up(asn)
    assert result.summary["delivery_rate"] == 1.0
    net.check()


def test_as_restore_needs_its_asn():
    """Refused before the run (it was a ``ValueError`` at t = 1 inside
    it): a spec built in Python is checked like a parsed one."""
    scenario = builtin_scenario("depeering")
    scenario.faults = [FaultSpec("as_restore", 1.0)]
    with pytest.raises(ScenarioError, match="'as_restore' missing 'asn'"):
        WorkloadDriver(scenario, network=object())
