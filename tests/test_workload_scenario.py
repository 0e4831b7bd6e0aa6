"""Tests for the declarative Scenario spec and its JSON round-trip."""

import pytest

from repro.workload.scenario import (BUILTIN_SCENARIOS, ChurnSpec, FaultSpec,
                                     NetworkSpec, Phase, Scenario,
                                     ScenarioError, TrafficSpec,
                                     builtin_scenario)


def test_builtin_scenarios_validate_and_round_trip():
    for name in BUILTIN_SCENARIOS:
        scenario = builtin_scenario(name, seed=5)
        assert scenario.seed == 5
        scenario.validate()
        clone = Scenario.from_dict(scenario.to_dict())
        assert clone.to_dict() == scenario.to_dict()


def test_json_round_trip():
    scenario = builtin_scenario("steady-churn")
    clone = Scenario.from_json(scenario.to_json())
    assert clone.to_dict() == scenario.to_dict()


def test_load_from_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(builtin_scenario("flash-crowd").to_json())
    assert Scenario.load(str(path)).name == "flash-crowd"


def test_malformed_json_raises_scenario_error():
    with pytest.raises(ScenarioError, match="invalid scenario JSON"):
        Scenario.from_json("{not json")


def test_unknown_builtin():
    with pytest.raises(ScenarioError, match="unknown builtin"):
        builtin_scenario("nope")


def test_scenario_missing_name():
    with pytest.raises(ScenarioError, match="missing 'name'"):
        Scenario.from_dict({"duration": 10})


def test_unknown_fault_kind_rejected():
    with pytest.raises(ScenarioError, match="unknown fault kind"):
        FaultSpec.from_dict({"kind": "meteor", "at": 1.0})


def test_fault_params_survive_round_trip():
    spec = FaultSpec.from_dict({"kind": "link_cut", "at": 3.0, "count": 2,
                                "restore_after": 5.0})
    assert spec.params == {"count": 2, "restore_after": 5.0}
    assert spec.to_dict() == {"kind": "link_cut", "at": 3.0, "count": 2,
                              "restore_after": 5.0}


def test_fault_past_duration_rejected():
    scenario = Scenario(name="x", duration=10.0,
                        faults=[FaultSpec(kind="link_cut", at=11.0)])
    with pytest.raises(ScenarioError, match="past the run end"):
        scenario.validate()


def test_phase_past_duration_rejected():
    scenario = Scenario(name="x", duration=10.0,
                        phases=[Phase(name="late", start=10.0, end=20.0)])
    with pytest.raises(ScenarioError, match="starts at"):
        scenario.validate()


def test_phase_end_before_start_rejected():
    with pytest.raises(ScenarioError, match="must follow start"):
        Phase(name="bad", start=5.0, end=5.0).validate()


def test_as_faults_need_inter_network():
    scenario = Scenario(name="x", network=NetworkSpec(kind="intra"),
                        faults=[FaultSpec(kind="as_depeer", at=1.0)])
    with pytest.raises(ScenarioError, match="'as_depeer'.*fail_as.*'intra'"):
        scenario.validate()


def test_router_faults_need_intra_network():
    scenario = Scenario(name="x", network=NetworkSpec(kind="inter"),
                        faults=[FaultSpec(kind="router_crash", at=1.0)])
    with pytest.raises(ScenarioError,
                       match="'router_crash'.*fail_router.*'inter'"):
        scenario.validate()


def test_inter_network_rejects_lifetimes():
    scenario = Scenario(
        name="x", network=NetworkSpec(kind="inter"),
        phases=[Phase(name="p", start=0.0, end=10.0,
                      churn=ChurnSpec(arrival_rate=1.0,
                                      lifetime={"kind": "fixed",
                                                "value": 5.0}))])
    with pytest.raises(ScenarioError, match="'lifetime'.*leave_host.*'inter'"):
        scenario.validate()


def test_bad_departure_mode_rejected():
    with pytest.raises(ScenarioError, match="departure"):
        ChurnSpec(arrival_rate=1.0, departure="vanish").validate()


def test_bad_subspec_surfaces_as_scenario_error():
    with pytest.raises(ScenarioError):
        ChurnSpec(arrival_rate=1.0,
                  lifetime={"kind": "mystery"}).validate()
    with pytest.raises(ScenarioError):
        TrafficSpec(rate=1.0, popularity={"kind": "mystery"}).validate()


def test_network_spec_validation():
    with pytest.raises(ScenarioError, match="intra, inter, cmu, ospf, disco"):
        NetworkSpec(kind="galactic").validate()
    with pytest.raises(ScenarioError):
        NetworkSpec(kind="intra", n_routers=1).validate()
    with pytest.raises(ScenarioError):
        Scenario(name="x", duration=-1.0).validate()
    with pytest.raises(ScenarioError):
        Scenario(name="x", sample_interval=0.0).validate()


@pytest.mark.parametrize("kind, fault, departure, rejected", [
    ("disco", None, "leave", None),             # Disco has a leave protocol
    ("disco", None, "fail", "'lifetime'.*fail_host.*'disco'"),
    ("disco", "link_cut", None, "'link_cut'.*fail_link.*'disco'"),
    ("cmu", None, "leave", "'lifetime'.*leave_host.*'cmu'"),
    ("ospf", "host_crash", None, "'host_crash'.*fail_host.*'ospf'"),
    ("inter", "as_restore", None, None),
    ("intra", "link_restore", "fail", None),
])
def test_support_is_read_off_the_network_class(kind, fault, departure,
                                               rejected):
    """What a kind can run is whatever its class overrides: a fault or a
    ``lifetime`` it has no operation for is refused at validation, by
    name, with the kind."""
    churn = None if departure is None else ChurnSpec(
        arrival_rate=1.0, departure=departure,
        lifetime={"kind": "fixed", "value": 5.0})
    scenario = Scenario(
        name="x", network=NetworkSpec(kind=kind),
        phases=[Phase(name="p", start=0.0, end=10.0, churn=churn)],
        faults=[] if fault is None else [FaultSpec(kind=fault, at=1.0)])
    if rejected is None:
        scenario.validate()
    else:
        with pytest.raises(ScenarioError, match=rejected):
            scenario.validate()


def test_baseline_network_spec_round_trips_with_router_sizing():
    spec = NetworkSpec.from_dict({"kind": "disco", "n_routers": 24})
    assert spec.to_dict() == {"kind": "disco", "name": "workload",
                              "n_fingers": 8, "n_routers": 24}
